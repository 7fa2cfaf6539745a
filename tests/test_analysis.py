import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from darklind.analysis import (
    bloch_of,
    bloch_transport,
    compare_effective_vs_full,
    convergence_sweep,
    dark_state_from_bloch,
    fit_loglog,
    gauge_covariance_check,
    gauge_transform,
    purity,
    purity_prediction_general,
    purity_prediction_spin32,
    trace_distance,
)
import darklind.analysis as analysis
import darklind.effective as eff
from darklind.effective import adiabatic_hamiltonian, dark_space, end_of_cycle_state
from darklind.engine import StepSizeUnderflowError, Trajectory
from darklind.linalg import dagger, matrix_exp
from darklind.protocols import (
    PathSpec,
    custom_protocol,
    fourier_path,
    linear_path,
    ramp_angle,
    smoothstep_path,
    spin32_protocol,
    spin_operators,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def constant_protocol(gammaT=100.0):
    sx, sy, sz = spin_operators(3)
    jump = sx @ (sz @ sz - 0.25 * np.eye(4))
    return custom_protocol([sy], [lambda s: 0.0], jump, gammaT, dangles=[lambda s: 0.0])


class TestObservables:
    def test_purity_pure_state(self):
        assert abs(purity(dark_state_from_bloch((0, 0, 1))) - 1.0) <= 1e-14

    def test_purity_maximally_mixed(self):
        assert abs(purity(0.5 * np.eye(2)) - 0.5) <= 1e-14

    def test_purity_partial(self):
        rho = dark_state_from_bloch((0.0, 0.0, 0.6))
        assert abs(purity(rho) - 0.68) <= 1e-14

    def test_trace_distance_orthogonal_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert abs(trace_distance(a, b) - 1.0) <= 1e-14
        assert trace_distance(a, a) == 0.0

    def test_bloch_roundtrip(self):
        n = (0.3, -0.5, 0.2)
        assert np.allclose(bloch_of(dark_state_from_bloch(n)), n, atol=1e-14)

    def test_bloch_of_sigma_y_state(self):
        rho = 0.5 * (np.eye(2) + SY)
        assert np.allclose(bloch_of(rho), (0.0, 1.0, 0.0), atol=1e-14)

    def test_bloch_requires_qubit(self):
        with pytest.raises(ValueError):
            bloch_of(np.eye(3) / 3.0)

    def test_transport_identity(self):
        n = (0.1, 0.2, 0.7)
        assert np.allclose(bloch_transport(n, np.eye(2)), n, atol=1e-14)

    def test_transport_quarter_turn(self):
        v = matrix_exp(-1j * (math.pi / 4.0) * SY)
        moved = bloch_transport((0.0, 0.0, 1.0), v)
        # independent 2x2 arithmetic: V sigma_z V^dag for the quarter turn
        expected = bloch_of(v @ dark_state_from_bloch((0, 0, 1)) @ dagger(v))
        assert np.allclose(moved, expected, atol=1e-14)
        assert abs(abs(moved[0]) - 1.0) <= 1e-12  # lands on the x axis
        assert abs(np.linalg.norm(moved) - 1.0) <= 1e-9

    def test_rejects_long_bloch_vector(self):
        with pytest.raises(ValueError):
            dark_state_from_bloch((1.0, 1.0, 0.0))


def spin32_loop(path, n0s, gammaT):
    """The spin-3/2 closed form one grid step at a time, the oracle of the array version.

    The purity after one cycle for each Bloch vector of ``n0s``: b_tau by the
    scalar recurrence with Gauss-Legendre node weights that sample the decay,
    the holonomy by one matrix exponential per step, the Bloch vector moved
    as ``bloch_transport`` moves it.
    """
    rate = 3.0
    taus = np.linspace(0.0, float(gammaT), analysis._SPIN32_GRID + 1)
    nodes = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
    weights = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
    b_val = 0.0
    v = np.eye(2, dtype=complex)
    integrands = np.zeros((len(n0s), taus.size))
    rho0s = [dark_state_from_bloch(n0) for n0 in n0s]
    for j, (t0, t1) in enumerate(zip(taus[:-1], taus[1:])):
        half = 0.5 * (t1 - t0)
        mid = 0.5 * (t0 + t1)
        b_val *= math.exp(-0.5 * rate * (t1 - t0))
        for node, weight in zip(nodes, weights):
            s_abs = mid + half * node
            w = weight * half * math.exp(0.5 * rate * (s_abs - t1))
            b_val += w * 1.5 * path.dtheta(s_abs / gammaT)
        s_mid = mid / gammaT
        theta, dtheta, dphi = path.theta(s_mid), path.dtheta(s_mid), path.dphi(s_mid)
        h0 = -dtheta * SY - dphi * (0.5 * math.cos(theta) * SZ - math.sin(theta) * SX)
        v = matrix_exp(-1j * (t1 - t0) / gammaT * h0) @ v
        for i, rho0 in enumerate(rho0s):
            m_t = bloch_of(v @ rho0 @ dagger(v))
            integrands[i, j + 1] = b_val**2 * (m_t[0] ** 2 + m_t[1] ** 2)
    return [
        purity(rho0) - (2.0 / gammaT**2) * float(scipy.integrate.simpson(integrand, x=taus))
        for rho0, integrand in zip(rho0s, integrands)
    ]


LOOP_PATHS = {
    "linear": linear_path(1, 0),
    "smoothstep": smoothstep_path(1, 1),
    "fourier": fourier_path(1, 1, theta_knots=(0.1, -0.2), phi_knots=(0.25,)),
}


class TestPurityPredictions:
    @pytest.mark.parametrize("gammaT", [50.0, 200.0, 800.0])
    @pytest.mark.parametrize("name", list(LOOP_PATHS))
    def test_spin32_matches_step_loop(self, name, gammaT):
        # the scans and exact-decay weights against the scalar loop: measured
        # within 6.2e-11, the largest at gammaT 800 where rate h = 0.6
        n0s = [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.6, 0.5, 0.3)]
        oracle = spin32_loop(LOOP_PATHS[name], n0s, gammaT)
        for n0, expected in zip(n0s, oracle):
            assert abs(purity_prediction_spin32(LOOP_PATHS[name], n0, gammaT) - expected) <= 1e-10

    @pytest.mark.parametrize("gammaT", [6400.0, 12800.0])
    def test_large_gammaT_predictions_follow_first_order_law(self, spin32_ds, gammaT):
        # rate h >> 1 on the fixed grids: both predictions must stay on
        # 1 - 4 pi^2 / gammaT from n0 = z (measured within 4e-4 / gammaT^2)
        proto = spin32_protocol(linear_path(1, 0), gammaT)
        law = 1.0 - 4.0 * math.pi**2 / gammaT
        general = purity_prediction_general(dark_state_from_bloch((0, 0, 1)), proto, spin32_ds)
        closed = purity_prediction_spin32(linear_path(1, 0), (0, 0, 1), gammaT)
        assert abs(general - law) <= 1.0 / gammaT**2
        assert abs(closed - law) <= 1.0 / gammaT**2

    def test_spin32_simplest_case_values(self):
        # leading order 1 - 4 pi^2 (1 + n_y^2) / gammaT at gammaT = 1000
        got = purity_prediction_spin32(linear_path(1, 0), (0, 0, 1), 1000.0)
        assert abs(got - (1.0 - 4 * math.pi**2 / 1000.0)) <= 2e-4
        got_y = purity_prediction_spin32(linear_path(1, 0), (0, 1, 0), 1000.0)
        assert abs(got_y - (1.0 - 8 * math.pi**2 / 1000.0)) <= 2e-4

    def test_adiabatic_limit(self):
        got = purity_prediction_spin32(linear_path(1, 0), (0, 0, 1), 1e8)
        assert abs(got - 1.0) <= 1e-5

    def test_general_matches_spin32_closed_form(self, spin32_linear, spin32_ds):
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        general = purity_prediction_general(rho0, spin32_linear, spin32_ds)
        closed = purity_prediction_spin32(linear_path(1, 0), (0, 0, 1), 200.0)
        assert abs(general - closed) <= 1e-8

    def test_constant_protocol_keeps_initial_purity(self, spin32_ds):
        rho0 = dark_state_from_bloch((0.0, 0.4, 0.3))
        got = purity_prediction_general(rho0, constant_protocol(), spin32_ds)
        assert abs(got - purity(rho0)) <= 1e-12

    def test_frozen_state_prediction_vs_integrated(self, spin32_ds):
        # the commutator-form prediction freezes the state, so it misses the
        # quadratic-in-loss saturation; the residual is a clean second-order
        # power law with a large constant (measured ~1500, frozen with 2x)
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        residuals = {}
        for gammaT in (200.0, 800.0):
            proto = spin32_protocol(linear_path(1, 0), gammaT)
            pred = purity_prediction_general(rho0, proto, spin32_ds)
            direct = purity(end_of_cycle_state(rho0, proto, spin32_ds))
            residuals[gammaT] = abs(pred - direct)
            assert residuals[gammaT] <= 3200.0 / gammaT**2
        assert 10.0 <= residuals[200.0] / residuals[800.0] <= 22.0


class TestGauge:
    def test_identity_transform(self, spin32_ds):
        omega = gauge_transform(spin32_ds, np.zeros((2, 2)))
        assert np.linalg.norm(omega - np.eye(4)) <= 1e-14

    def test_block_structure_and_unitarity(self, spin32_ds, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        dark_gen = a + dagger(a)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        omega = gauge_transform(spin32_ds, dark_gen, bright_generator=b + dagger(b))
        assert np.linalg.norm(dagger(omega) @ omega - np.eye(4)) <= 1e-12
        p0 = spin32_ds.projector
        assert np.linalg.norm(omega @ p0 - p0 @ omega) <= 1e-12

    def test_dark_block_phase(self, spin32_ds):
        chi = 0.37
        omega = gauge_transform(spin32_ds, chi * SZ)
        block = dagger(spin32_ds.basis) @ omega @ spin32_ds.basis
        assert np.linalg.norm(block - matrix_exp(1j * chi * SZ)) <= 1e-12

    def test_rejects_non_hermitian_generator(self, spin32_linear, spin32_ds):
        with pytest.raises(ValueError, match="Hermitian"):
            gauge_transform(spin32_ds, np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            gauge_covariance_check(spin32_linear, spin32_ds, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_identity_gauge_has_no_defect(self, spin32_linear, spin32_ds):
        report = gauge_covariance_check(
            spin32_linear, spin32_ds, np.zeros((2, 2)),
            tau_fractions=(0.5,), gammaT_pair=(60.0, 120.0),
        )
        assert max(report.defects) <= 1e-12
        assert max(report.purity_differences) <= 1e-12

    def test_constant_protocol_is_exactly_covariant(self, spin32_ds):
        report = gauge_covariance_check(
            constant_protocol(), spin32_ds, (math.pi / 7.0) * SZ,
            tau_fractions=(0.5,), gammaT_pair=(60.0, 120.0),
        )
        assert max(report.defects) <= 1e-12

    def test_defect_halves_with_gammaT(self, spin32_linear, spin32_ds):
        report = gauge_covariance_check(
            spin32_linear, spin32_ds, (math.pi / 7.0) * SZ,
            tau_fractions=(0.4, 0.6), gammaT_pair=(60.0, 120.0),
        )
        assert 0.35 <= report.defect_ratio <= 0.7
        # the quadrature defects, pinned to their values before the purities
        # moved onto the frozen-state recurrence
        for got, pinned in zip(report.defects, (0.08924371860716582, 0.042824051667802836)):
            assert abs(got - pinned) <= 1e-12 * pinned
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        for plain, diff, gammaT in zip(
            report.purity_plain, report.purity_differences, report.gammaT_values
        ):
            proto = spin32_linear.with_gammaT(gammaT)
            assert plain == purity_prediction_general(rho0, proto, spin32_ds)
            assert diff <= 10.0 / gammaT**2

    def test_bloch_start_gives_the_matrix_report(self, spin32_linear, spin32_ds):
        n0 = (0.6, 0.0, 0.8)
        reports = [
            gauge_covariance_check(
                spin32_linear, spin32_ds, (math.pi / 7.0) * SZ, tau_fractions=(0.5,),
                gammaT_pair=(60.0, 120.0), rho_init=rho_init,
            )
            for rho_init in (n0, dark_state_from_bloch(n0))
        ]
        assert reports[0] == reports[1]

    def test_gauged_recurrence_matches_quadrature(self):
        # spin-3/2 lowering jump (bright rates 3, 3, 4) with a bright gauge
        # block that does not commute with L^dag L: the per-pair recurrence
        # must reproduce the tilted kernel, int_0^tau expm(L^dag L (s - tau)/2)
        # P_perp omega(tau)^dag H^omega(s) omega(tau) P0 ds, here a full-space
        # quadrature with matrix exponentials
        sx, sy, sz = spin_operators(3)
        jump = dagger(sx + 1j * sy)
        theta, dtheta = ramp_angle("linear", 1.0)
        phi, dphi = ramp_angle("smoothstep", 1.0)
        proto = custom_protocol([sy, sz], [theta, phi], jump, 30.0, dangles=[dtheta, dphi])
        ds = dark_space(proto.L_rot)
        rng = np.random.default_rng(3)
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gen = analysis._block_generator(ds, np.array([[0.4]]), b + dagger(b))
        rates = dagger(jump) @ jump
        assert np.linalg.norm(gen @ rates - rates @ gen) >= 1.0
        gauge = analysis._sin2_gauge(gen)
        taus = np.linspace(0.0, 30.0, 513)
        ells = eff._effective_jump_grid(proto, ds, taus, gauge)
        p_perp = np.eye(4) - ds.projector

        def tilted_hamiltonian(s):
            omega, potential = gauge(np.array([s / 30.0]))
            h = adiabatic_hamiltonian(proto, s / 30.0)
            return omega[0] @ h @ dagger(omega[0]) + potential[0]

        for k in (64, 300, 512):
            tau = taus[k]
            omega_tau = gauge(np.array([tau / 30.0]))[0][0]

            def integrand(s):
                x = (scipy.linalg.expm(0.5 * rates * (s - tau)) @ p_perp @ dagger(omega_tau)
                     @ tilted_hamiltonian(s) @ omega_tau @ ds.projector)
                return np.stack([x.real, x.imag])

            re, im = scipy.integrate.quad_vec(integrand, 0.0, tau, epsabs=1e-12, epsrel=1e-12)[0]
            oracle = dagger(ds.basis) @ jump @ (re + 1j * im) @ ds.basis
            assert np.linalg.norm(ells[k] - oracle) <= 1e-9 * np.linalg.norm(oracle)


class TestFits:
    def test_recovers_power_law(self):
        x = np.array([10.0, 20.0, 40.0, 80.0])
        y = 3.0 * x**-1.7
        slope, intercept, r2 = fit_loglog(x, y)
        assert abs(slope + 1.7) <= 1e-12
        assert abs(math.exp(intercept) - 3.0) <= 1e-12
        assert r2 >= 1.0 - 1e-12

    def test_flags_degenerate_data(self):
        slope, _, r2 = fit_loglog([10.0, 20.0], [1e-16, 1e-16])
        assert math.isnan(slope) and math.isnan(r2)


def _unchanged(gen_of_t, rho0, span, **kwargs):
    """An ``integrate`` stand-in that leaves the state where it started."""
    return Trajectory(times=np.array([span[1]]), states=[rho0], step_stats=None)


class TestSweep:
    def test_small_grid_mechanics(self):
        result = convergence_sweep(
            spin32_protocol(linear_path(1, 0), 50.0),
            [50.0, 100.0],
            (0.0, 0.0, 1.0),
        )
        assert result.gammaT_values == (50.0, 100.0)
        assert result.losses[0] > result.losses[1] > 0.0
        assert not math.isnan(result.fitted_slope)
        assert all(l > 0 for l in result.losses_eq12)
        assert all(not math.isnan(l) for l in result.losses_eq21)
        assert result.errors[0] > result.errors[1] > 0.0
        assert not result.failures

    def test_density_matrix_start_matches_bloch_start(self):
        # one resolver for both forms of the initial state, so the closed form
        # runs from a matrix start as well
        results = [
            dataclasses.asdict(convergence_sweep(
                spin32_protocol(linear_path(1, 0), 20.0), [20.0, 40.0], rho_init
            ))
            for rho_init in ((0.0, 0.0, 1.0), np.diag([1.0, 0.0]))
        ]
        assert results[0] == results[1]
        assert not any(math.isnan(loss) for loss in results[1]["losses_eq21"])

    def test_constant_protocol_flagged(self):
        result = convergence_sweep(
            constant_protocol(50.0), [50.0, 100.0], (0.0, 0.6, 0.8)
        )
        assert all(loss <= 1e-10 for loss in result.losses)
        assert math.isnan(result.fitted_slope)

    def test_integration_failure_recorded_with_tau(self, monkeypatch):
        def failing_at_150(gen_of_t, rho0, span, **kwargs):
            if span[1] == 150.0:
                raise StepSizeUnderflowError(12.5, 1e-16)
            return Trajectory(times=np.array([span[1]]), states=[rho0], step_stats=None)

        monkeypatch.setattr(analysis, "integrate", failing_at_150)
        result = convergence_sweep(
            constant_protocol(50.0), [50.0, 100.0, 150.0], (0.0, 0.0, 1.0)
        )
        assert result.gammaT_values == (50.0, 100.0)
        assert len(result.failures) == 1
        assert "gammaT=150.0, tau=12.5" in result.failures[0]
        # fewer than two survivors: no fit to report, the failure is raised
        with pytest.raises(StepSizeUnderflowError) as caught:
            convergence_sweep(constant_protocol(50.0), [100.0, 150.0], (0.0, 0.0, 1.0))
        assert caught.value.tau == 12.5

    def test_other_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a numerical failure")

        monkeypatch.setattr(analysis, "integrate", broken)
        with pytest.raises(ValueError, match="not a numerical failure"):
            convergence_sweep(
                spin32_protocol(linear_path(1, 0), 50.0), [50.0], (0.0, 0.0, 1.0)
            )

    def test_hand_built_path_has_no_closed_form(self, monkeypatch):
        # a PathSpec built by hand carries no descriptor, so the spin-3/2
        # closed form cannot be rebuilt for it: NaN, not a linear-path value
        path = PathSpec(
            theta=lambda s: 2 * math.pi * s,
            phi=lambda s: 0.0,
            dtheta=lambda s: 2 * math.pi,
            dphi=lambda s: 0.0,
            winding=(1, 0),
        )
        assert path.descriptor == {}

        monkeypatch.setattr(analysis, "integrate", _unchanged)
        result = convergence_sweep(spin32_protocol(path, 50.0), [50.0], (0.0, 0.0, 1.0))
        assert math.isnan(result.losses_eq21[0])
        assert not math.isnan(result.losses_eq12[0])

    def test_losses_reduced_is_the_reduced_end_state_loss(self, monkeypatch):
        monkeypatch.setattr(analysis, "integrate", _unchanged)  # the exact run plays no part
        proto = spin32_protocol(linear_path(1, 0), 20.0)
        result = convergence_sweep(proto, [20.0, 40.0], (0.0, 1.0, 0.0))
        ds, rho_d = dark_space(proto.L_rot), dark_state_from_bloch((0.0, 1.0, 0.0))
        assert result.losses_reduced == tuple(
            1.0 - purity(eff.evolve_effective(rho_d, proto.with_gammaT(g), ds, [g])[-1])
            for g in (20.0, 40.0)
        )


class TestEffectiveVsFull:
    def test_constant_protocol_is_exact(self):
        proto = constant_protocol(80.0)
        comparison = compare_effective_vs_full(proto, (0.2, 0.4, 0.5), n_checkpoints=5)
        assert comparison.max_distance <= 1e-10

    def test_spin32_bounded_and_shrinking(self, spin32_linear):
        c200 = compare_effective_vs_full(spin32_linear, (0, 0, 1), n_checkpoints=6)
        # frozen order-of-accuracy constant (measured 67, 2x headroom)
        assert c200.max_distance <= 140.0 / 200.0**2
        c400 = compare_effective_vs_full(
            spin32_linear.with_gammaT(400.0), (0, 0, 1), n_checkpoints=6
        )
        assert 2.5 <= c200.final_distance / c400.final_distance <= 5.5
