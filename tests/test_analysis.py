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
from darklind.effective import (
    adiabatic_hamiltonian, berry_holonomy, dark_space, end_of_cycle_state, project_dark,
)
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

    @pytest.mark.parametrize("n", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf)])
    def test_rejects_non_finite_bloch_vector(self, n):
        # a NaN norm passes the norm test, so unchecked this gives an all-NaN state
        bad = next(c for c in n if not math.isfinite(c))
        with pytest.raises(ValueError, match=f"Bloch vector component {bad} is not finite"):
            dark_state_from_bloch(n)


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

    def test_spin32_rejects_non_finite_bloch_vector(self):
        with pytest.raises(ValueError, match="Bloch vector component nan is not finite"):
            purity_prediction_spin32(linear_path(1, 0), (np.nan, 0.0, 0.0), 20.0)

    @pytest.mark.parametrize("gammaT", [-200.0, 0.0, np.nan, np.inf])
    def test_spin32_rejects_gammaT_that_is_not_finite_and_positive(self, gammaT):
        # unchecked, gammaT -200 gives a purity of 2.17e254 and NaN a NaN; the
        # message is the one Protocol gives
        with pytest.raises(ValueError, match=f"gammaT must be finite and positive, got {gammaT}"):
            purity_prediction_spin32(linear_path(1, 0), (0.0, 0.0, 1.0), gammaT)

    def test_adiabatic_limit(self):
        got = purity_prediction_spin32(linear_path(1, 0), (0, 0, 1), 1e8)
        assert abs(got - 1.0) <= 1e-5

    def test_general_matches_spin32_closed_form(self, spin32_linear, spin32_ds):
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        general = purity_prediction_general(rho0, spin32_linear, spin32_ds)
        closed = purity_prediction_spin32(linear_path(1, 0), (0, 0, 1), 200.0)
        assert abs(general - closed) <= 1e-8

    @pytest.mark.parametrize("path, gammaT", [
        (linear_path(1, 0), 50.0),
        (linear_path(1, 0), 200.0),
        (linear_path(1, 0), 800.0),
        (smoothstep_path(1, 1), 200.0),
        (fourier_path(1, 0, theta_knots=(0.17,), phi_knots=(-0.2,)), 200.0),
    ])
    def test_general_and_closed_form_agree_on_one_grid(self, monkeypatch, spin32_ds, path, gammaT):
        # eq. 12 and eq. 21 on the same uniform grid differ only by roundoff
        # (measured at most 6.3e-13, linear gammaT 50 from y); on their own
        # grids they differ by the discretization, up to 3.3e-7 on these cases
        monkeypatch.setattr(analysis, "_SPIN32_GRID", eff._FROZEN_GRID)
        proto = spin32_protocol(path, gammaT)
        for n0 in ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.6, 0.0, 0.8)):
            general = purity_prediction_general(dark_state_from_bloch(n0), proto, spin32_ds)
            assert abs(general - purity_prediction_spin32(path, n0, gammaT)) <= 1e-12, n0

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

    def test_pair_order_gives_the_same_report(self, spin32_linear, spin32_ds):
        # the defect ratio compares the larger gammaT with the smaller, in either order
        reports = [
            gauge_covariance_check(spin32_linear, spin32_ds, (math.pi / 7.0) * SZ,
                                   gammaT_pair=pair)
            for pair in ((100.0, 200.0), (200.0, 100.0))
        ]
        assert reports[1] == reports[0]
        assert reports[0].gammaT_values == (100.0, 200.0)
        assert reports[0].defect_ratio < 1.0

    @pytest.mark.parametrize("pair, message", [
        ((100.0, 100.0), "gammaT 100.0 is repeated"),
        ((100.0,), r"gammaT_pair must be two values, got \(100.0,\)"),
        ((), r"gammaT_pair must be two values, got \(\)"),
        ((100.0, math.inf), "gammaT inf is not finite and positive"),
        ((0.0, 100.0), "gammaT 0.0 is not finite and positive"),
    ], ids=["repeated", "one", "none", "infinite", "zero"])
    def test_rejects_a_pair_that_is_not_two_distinct_durations(
        self, monkeypatch, spin32_linear, spin32_ds, pair, message
    ):
        # named before any kernel work: no cycle record is asked for
        monkeypatch.setattr(eff, "_cycle_record", None)
        with pytest.raises(ValueError, match=message):
            gauge_covariance_check(spin32_linear, spin32_ds, (math.pi / 7.0) * SZ,
                                   gammaT_pair=pair)

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
        ells = eff._cycle_record(proto, ds, gauge).jumps(taus)
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


def spin2_protocol(gammaT):
    """smoothstep(1, 1) on spin 2 with the jump S_x S_z (S_z^2 - 1) / 6: a dark space of d = 3."""
    sx, sy, sz = spin_operators(4)
    path = smoothstep_path(1, 1)
    return custom_protocol([sy, sz], [path.theta, path.phi], sx @ sz @ (sz @ sz - np.eye(5)) / 6.0,
                           gammaT, dangles=[path.dtheta, path.dphi])


#: the frozen-state readers' cases: (protocol at gammaT, start) by id
FROZEN_CASES = {
    "linear": (lambda g: spin32_protocol(linear_path(1, 0), g),
               dark_state_from_bloch((0.0, 1.0, 0.0))),
    "smoothstep": (lambda g: spin32_protocol(smoothstep_path(1, 1), g),
                   dark_state_from_bloch((0.6, 0.5, 0.3))),
    "fourier": (lambda g: spin32_protocol(
                    fourier_path(1, 0, theta_knots=(0.17,), phi_knots=(-0.2,)), g),
                dark_state_from_bloch((0.0, 0.6, 0.8))),
    "spin2-d3": (spin2_protocol, np.array([[0.5, 0.1 - 0.2j, 0.05j],
                                           [0.1 + 0.2j, 0.3, 0.1],
                                           [-0.05j, 0.1, 0.2]])),
}


def simpson_dissipator(l, rho, gammaT):
    """int D_l(rho) dtau by Simpson's rule over the frame jumps l at the cycle nodes.

    Summed in extended precision from the float64 l and rho, so that it is a
    reference for the roundoff of either order of the float64 sum.
    """
    l, rho = l.astype(np.clongdouble), rho.astype(np.clongdouble)
    ld = l.conj().swapaxes(-1, -2)
    values = l @ rho @ ld - 0.5 * (ld @ l @ rho + rho @ ld @ l)
    nodes = gammaT * np.linspace(0.0, 1.0, eff._FROZEN_GRID + 1)
    return scipy.integrate.simpson(values, x=nodes.astype(np.longdouble), axis=0)


def simpson_purity(l, rho, gammaT):
    """eq. 12 from the test-local Simpson sum: Tr rho^2 + (2 / gammaT^2) Re Tr(rho int D_l(rho))."""
    total = np.trace(rho.astype(np.clongdouble) @ simpson_dissipator(l, rho, gammaT)).real
    return float(purity(rho) + 2.0 / gammaT**2 * total)


class TestFrozenStateSuperoperator:
    """eq. 12, the end-of-cycle formula and the gauge purities apply M = int D_l dtau to rho."""

    @pytest.mark.parametrize("gammaT", [200.0, 800.0])
    @pytest.mark.parametrize("case", list(FROZEN_CASES))
    def test_readers_match_a_simpson_sum_of_the_dissipator(self, case, gammaT):
        make, rho = FROZEN_CASES[case]
        proto = make(gammaT)
        ds = dark_space(proto.L_rot)
        predicted = purity_prediction_general(rho, proto, ds)
        end = end_of_cycle_state(rho, proto, ds, method="formula")
        l, v_end = eff._cycle_record(proto, ds).frame
        expected = simpson_purity(l, rho, gammaT)
        assert abs(predicted - expected) <= 1e-15 * abs(expected)
        frozen = (rho + simpson_dissipator(l, rho, gammaT) / gammaT**2).astype(complex)
        expected_end = v_end @ frozen @ dagger(v_end)
        assert np.linalg.norm(end - expected_end) <= 1e-15 * np.linalg.norm(expected_end)

    @pytest.mark.parametrize("case", list(FROZEN_CASES))
    def test_gauge_purities_match_a_simpson_sum_of_the_dissipator(self, monkeypatch, case):
        make, rho = FROZEN_CASES[case]
        proto = make(200.0)
        ds = dark_space(proto.L_rot)
        seen = []
        cycle_record = eff._cycle_record

        def spied(protocol, ds, gauge=None):
            record = cycle_record(protocol, ds, gauge)
            seen.append((protocol.gammaT, gauge is not None, record))
            return record

        monkeypatch.setattr(eff, "_cycle_record", spied)
        generator = np.diag(np.linspace(-1.0, 1.0, ds.d)) + 0.3 * (np.eye(ds.d, k=1) + np.eye(ds.d, k=-1))
        report = gauge_covariance_check(proto, ds, (math.pi / 7.0) * generator,
                                        gammaT_pair=(200.0, 800.0), rho_init=rho)
        assert [(g, gauged) for g, gauged, _ in seen] == [(200.0, False), (200.0, True),
                                                          (800.0, False), (800.0, True)]
        got = [p for pair in zip(report.purity_plain, report.purity_tilted) for p in pair]
        for value, (gammaT, _, record) in zip(got, seen, strict=True):
            l, _ = record.frame
            expected = simpson_purity(l, rho, gammaT)
            assert abs(value - expected) <= 1e-15 * abs(expected)


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

    @pytest.mark.parametrize("x, y, named", [
        ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0], "x value nan is not finite"),
        ([1.0, 2.0, 3.0], [1.0, math.inf, 3.0], "y value inf is not finite"),
        ([1.0, 2.0, 3.0], [1e-16, math.nan, 3.0], "y value nan is not finite"),
    ])
    def test_rejects_non_finite_data(self, x, y, named):
        # unchecked, a NaN x ends in an SVD failure and an infinite y reports r^2 = 1
        with pytest.raises(ValueError, match=named):
            fit_loglog(x, y)


    @pytest.mark.parametrize("x, named", [
        ([0.0, 1.0, 2.0], "x value 0.0 is not positive"),
        ([1.0, -1.0, 2.0], "x value -1.0 is not positive"),
        ([1.0, 2.0, -0.0, -3.0], "x value -0.0 is not positive"),
    ])
    def test_rejects_non_positive_x(self, x, named):
        # unchecked, a zero x divides by zero in the log and a negative one
        # ends in LAPACK errors; a y below the flag threshold is no excuse
        with pytest.raises(ValueError, match=named):
            fit_loglog(x, [1e-16] + [1.0] * (len(x) - 1))

    @pytest.mark.parametrize("x, y, shapes", [
        ([1.0, 2.0, 3.0], [1.0, 2.0], r"\(3,\) and \(2,\)"),
        ([[1.0, 2.0]], [[1.0, 2.0]], r"\(1, 2\) and \(1, 2\)"),
    ])
    def test_rejects_data_not_1d_of_one_length(self, x, y, shapes):
        # unchecked, unequal lengths end in a TypeError from np.polyfit
        with pytest.raises(ValueError, match=rf"1-D of one length, got shapes {shapes}"):
            fit_loglog(x, y)


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

    @pytest.mark.parametrize("gammaTs, named", [
        ([20.0, 20.0, 40.0], "gammaT 20.0 is repeated"),
        ([40.0, 20.0, 40.0], "gammaT 40.0 is repeated"),
        ([20.0, math.nan], "gammaT nan is not finite and positive"),
        ([20.0, math.inf], "gammaT inf is not finite and positive"),
        ([20.0, 0.0], "gammaT 0.0 is not finite and positive"),
        ([-5.0, 20.0], "gammaT -5.0 is not finite and positive"),
    ])
    def test_rejects_bad_gammaT_before_integrating(self, monkeypatch, gammaTs, named):
        def never(*args, **kwargs):
            raise AssertionError("integrated before the gammaT list was checked")

        monkeypatch.setattr(analysis, "integrate", never)
        with pytest.raises(ValueError, match=named):
            convergence_sweep(spin32_protocol(linear_path(1, 0), 20.0), gammaTs, (0.0, 0.0, 1.0))

    def test_brute_force_runs_in_the_rotating_frame(self, monkeypatch):
        # one run per gammaT, landing on 0 and gammaT, of the rotating-frame
        # equation: its Hamiltonian is weighted by 1/gammaT and its jump is fixed
        proto = spin32_protocol(linear_path(1, 0), 20.0)
        runs = []

        def recording(gen_of_t, rho0, span, **kwargs):
            gen = gen_of_t(np.array([0.3 * span[1]]))
            runs.append((span, list(kwargs["checkpoints"]), gen.hamiltonian_prefactor, gen.jumps))
            return Trajectory(times=np.array([0.0, span[1]]), states=[rho0, rho0], step_stats=None)

        monkeypatch.setattr(analysis, "integrate", recording)
        result = convergence_sweep(proto, [40.0, 20.0], (0.0, 0.0, 1.0))
        assert [(span, cps, pref) for span, cps, pref, _ in runs] == [
            ((0.0, 20.0), [0.0, 20.0], 1.0 / 20.0), ((0.0, 40.0), [0.0, 40.0], 1.0 / 40.0),
        ]
        assert all(np.array_equal(jumps[0], proto.L_rot) for *_, jumps in runs)
        start = eff.embed_dark(dark_space(proto.L_rot), dark_state_from_bloch((0.0, 0.0, 1.0)))
        assert all(np.array_equal(np.array(final), start) for final in result.final_states)

    def test_one_kernel_pass_per_gammaT(self, monkeypatch):
        # the reduced run grows the cycle record of each gammaT's protocol over
        # the whole cycle, block by block of its CF4 steps, and eq. 12 reads
        # it: one pass over the 2,049 cycle nodes per gammaT, each span grown
        # once and from where the last one ended
        grown = []
        grow = eff._CycleRecord.grow

        def spied(record, k):
            first = record.extent
            grow(record, k)
            if record.extent > first:
                grown.append((record.protocol.gammaT, first, record.extent))

        monkeypatch.setattr(eff._CycleRecord, "grow", spied)
        convergence_sweep(spin32_protocol(linear_path(1, 0), 200.0), [100.0, 200.0], (0.0, 0.0, 1.0))
        for gammaT in (100.0, 200.0):
            spans = [(lo, hi) for g, lo, hi in grown if g == gammaT]
            assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
            assert spans[-1][1] == 2048
        assert [g for g, _, _ in grown] == sorted(g for g, _, _ in grown)

    def test_one_drive_pass_per_gammaT(self, monkeypatch):
        # with the brute force stubbed out, U is asked per gammaT for the 64
        # phases with_gammaT samples and the cycle record's 6,144 alone: the
        # reduced run reads H0 and ell at its CF4 Gauss points off the record,
        # and eq. 12 and the first-order distance read it too, so no phase is
        # asked twice (a second holonomy pass along the 2,048 step midpoints
        # gave (92, 22912), H0 evaluated at the Gauss points (60, 14016), and
        # a partial kernel step per Gauss point on top (76, 18816))
        phases = []
        proto = spin32_protocol(linear_path(1, 0), 200.0)

        def counted(s, u_of=proto.U):
            phases.append(np.size(s))
            return u_of(s)

        proto = dataclasses.replace(proto, U=counted)
        phases.clear()  # construction samples the path
        monkeypatch.setattr(analysis, "integrate", _unchanged)
        convergence_sweep(proto, [100.0, 200.0], (0.0, 0.0, 1.0))
        assert (len(phases), sum(phases)) == (50, 12416)

    @pytest.mark.parametrize("path", [linear_path(1, 0), smoothstep_path(1, 1)],
                             ids=["linear", "smoothstep"])
    def test_first_order_distance_takes_the_cycle_holonomy(self, monkeypatch, path):
        # V_end off the cycle record is the whole-cycle holonomy of
        # ``berry_holonomy`` to roundoff (measured 4.0e-14 on linear, 3.6e-16
        # on smoothstep)
        monkeypatch.setattr(analysis, "integrate", _unchanged)
        proto = spin32_protocol(path, 200.0)
        result = convergence_sweep(proto, [100.0, 200.0], (0.0, 0.0, 1.0))
        ds = dark_space(proto.L_rot)
        rho = dark_state_from_bloch((0.0, 0.0, 1.0))
        for gammaT, final, distance in zip(result.gammaT_values, result.final_states,
                                           result.first_order_errors):
            v = berry_holonomy(proto.with_gammaT(gammaT), ds, gammaT)
            expected = trace_distance(project_dark(ds, np.array(final)), v @ rho @ dagger(v))
            assert abs(distance - expected) <= 1e-12

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

    @pytest.mark.parametrize("n_checkpoints", [0, -3])
    def test_rejects_fewer_than_one_checkpoint(self, spin32_linear, n_checkpoints):
        # with none the end state goes unmeasured and the distance reads 0
        with pytest.raises(ValueError, match="n_checkpoints must be a positive integer"):
            compare_effective_vs_full(spin32_linear, (0, 0, 1), n_checkpoints=n_checkpoints)

    @pytest.mark.parametrize("n_checkpoints", [2.5, 4.0, True])
    def test_rejects_a_checkpoint_count_that_is_no_integer(self, spin32_linear, n_checkpoints):
        # unchecked, a float ends in a TypeError from np.linspace and True runs as 1
        with pytest.raises(ValueError, match=f"positive integer, got {n_checkpoints}"):
            compare_effective_vs_full(spin32_linear, (0, 0, 1), n_checkpoints=n_checkpoints)

    def test_spin32_bounded_and_shrinking(self, spin32_linear):
        c200 = compare_effective_vs_full(spin32_linear, (0, 0, 1), n_checkpoints=6)
        # frozen order-of-accuracy constant (measured 67, 2x headroom)
        assert c200.max_distance <= 140.0 / 200.0**2
        c400 = compare_effective_vs_full(
            spin32_linear.with_gammaT(400.0), (0, 0, 1), n_checkpoints=6
        )
        assert 2.5 <= c200.final_distance / c400.final_distance <= 5.5
