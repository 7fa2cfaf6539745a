import dataclasses
import math
import types

import numpy as np
import pytest
import scipy.integrate

import darklind.effective as eff
from darklind.analysis import dark_state_from_bloch, purity, trace_distance
from darklind.effective import (
    NoDarkSpaceError,
    adiabatic_hamiltonian,
    berry_holonomy,
    c_tau,
    c_tau_ode_residual,
    dark_space,
    effective_jump,
    effective_rhs,
    embed_dark,
    end_of_cycle_state,
    evolve_effective,
    lab_generator,
    project_dark,
    reconstruct_full_state,
    rotating_generator,
    x_tau_adiabatic,
    x_tau_integral,
)
from darklind.engine import integrate
from darklind.linalg import dagger, matrix_exp
from darklind.protocols import (
    custom_protocol,
    fourier_path,
    linear_path,
    smoothstep_path,
    spin32_jump,
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


def phi_only_protocol(gammaT=200.0, tilt=math.pi / 2.0):
    """theta pinned at a constant tilt with one phi winding and U(0) = 1.

    The lab jump e^{-i phi S_z} e^{-i tilt S_y} L e^{i tilt S_y} e^{i phi S_z}
    is realized by folding the constant tilt into the rotating-frame jump and
    letting U carry only the phi rotation.
    """
    sx, sy, sz = spin_operators(3)
    jump = sx @ (sz @ sz - 0.25 * np.eye(4))
    rot = matrix_exp(-1j * tilt * sy)
    tilted_jump = rot @ jump @ dagger(rot)
    two_pi = 2.0 * math.pi
    return custom_protocol(
        [sz],
        [lambda s: two_pi * s],
        tilted_jump,
        gammaT,
        dangles=[lambda s: two_pi],
    )


class TestDarkSpace:
    def test_spin32(self, spin32_linear):
        ds = dark_space(spin32_linear.L_rot)
        assert ds.d == 2
        assert np.linalg.norm(ds.projector - np.diag([0.0, 1.0, 1.0, 0.0])) <= 1e-12
        assert np.linalg.norm(spin32_linear.L_rot @ ds.basis) <= 1e-10
        # deterministic gauge: basis vectors are the +1/2 and -1/2 states
        expected = np.zeros((4, 2))
        expected[1, 0] = expected[2, 1] = 1.0
        assert np.linalg.norm(ds.basis - expected) <= 1e-12

    def test_projector_properties(self, spin32_ds):
        p0 = spin32_ds.projector
        assert np.linalg.norm(p0 @ p0 - p0) <= 1e-12
        assert np.linalg.norm(p0 - dagger(p0)) <= 1e-12
        recon = sum(
            np.outer(spin32_ds.basis[:, k], spin32_ds.basis[:, k].conj())
            for k in range(spin32_ds.d)
        )
        assert np.linalg.norm(p0 - recon) <= 1e-12

    def test_lowering_operator(self):
        sigma_minus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        ds = dark_space(sigma_minus)
        assert ds.d == 1
        assert abs(abs(ds.basis[1, 0]) - 1.0) <= 1e-12

    def test_no_dark_space(self):
        with pytest.raises(NoDarkSpaceError):
            dark_space(np.eye(3, dtype=complex))

    def test_gauge_is_reproducible(self, spin32_linear):
        a = dark_space(spin32_linear.L_rot)
        b = dark_space(spin32_linear.L_rot)
        assert np.array_equal(a.basis, b.basis)


class TestAdiabaticHamiltonian:
    def test_constant_path_gives_zero(self):
        proto = constant_protocol()
        for s in (0.0, 0.5, 1.0):
            assert np.linalg.norm(adiabatic_hamiltonian(proto, s)) <= 1e-10

    def test_spin32_closed_form(self, spin32_linear):
        sx, sy, sz = spin_operators(3)
        path = linear_path(1, 0)
        for s in np.linspace(0.0, 1.0, 9):
            h = adiabatic_hamiltonian(spin32_linear, float(s))
            theta = path.theta(float(s))
            expected = -path.dtheta(s) * sy - path.dphi(s) * (
                math.cos(theta) * sz - math.sin(theta) * sx
            )
            assert np.linalg.norm(h - expected) <= 1e-12

    def test_hermitian_at_sampled_phases(self):
        proto = spin32_protocol(
            smoothstep_path(1, 1), 150.0
        )
        for s in np.linspace(0.0, 1.0, 64):
            h = adiabatic_hamiltonian(proto, float(s))
            assert np.linalg.norm(h - dagger(h)) <= 1e-10

    def test_rejects_non_unitary_path(self, spin32_linear):
        broken = types.SimpleNamespace(
            dim=4,
            U=lambda s: (1.0 + s) * np.eye(4),
            dU=lambda s: np.eye(4),
            gammaT=100.0,
        )
        with pytest.raises(ValueError, match="unitary"):
            adiabatic_hamiltonian(broken, 0.5)


_, _SY32, _SZ32 = spin_operators(3)
_TURN = 2.0 * math.pi

#: protocols of every array route: spin-3/2 paths and a custom protocol with
#: a constant angle
GRID_PROTOCOLS = {
    "linear": lambda: spin32_protocol(linear_path(1, 0), 200.0),
    "smoothstep": lambda: spin32_protocol(smoothstep_path(1, 1), 200.0),
    "fourier": lambda: spin32_protocol(
        fourier_path(1, 1, theta_knots=(0.2, -0.1), phi_knots=(0.15,)), 200.0
    ),
    "constant-angle": lambda: custom_protocol(
        [_SY32, _SZ32], [lambda s: _TURN * s, lambda s: 0.0], spin32_jump(), 200.0,
        dangles=[lambda s: _TURN, lambda s: 0.0],
    ),
}


class TestHamiltonianOnGrid:
    @pytest.mark.parametrize("name", list(GRID_PROTOCOLS))
    def test_matches_scalar_phases(self, name):
        proto = GRID_PROTOCOLS[name]()
        s = np.linspace(0.0, 1.0, 37)
        hs = adiabatic_hamiltonian(proto, s)
        assert hs.shape == (37, 4, 4)
        for k in range(s.size):
            assert np.linalg.norm(hs[k] - adiabatic_hamiltonian(proto, float(s[k]))) <= 1e-14

    def test_names_first_non_unitary_phase(self):
        broken = types.SimpleNamespace(
            dim=4,
            U=lambda s: np.where(np.reshape(s, (-1, 1, 1)) == 0.5, 1.1, 1.0) * np.eye(4),
            dU=lambda s: np.zeros((np.size(s), 4, 4)),
            gammaT=100.0,
        )
        with pytest.raises(ValueError, match=r"U\(0\.5\) is not unitary"):
            adiabatic_hamiltonian(broken, np.linspace(0.0, 1.0, 5))

    def test_rejects_wrong_shape(self):
        scalar_only = types.SimpleNamespace(
            dim=4, U=lambda s: np.eye(4), dU=lambda s: np.zeros((4, 4)), gammaT=100.0
        )
        with pytest.raises(ValueError, match="shape"):
            adiabatic_hamiltonian(scalar_only, np.linspace(0.0, 1.0, 5))

    def test_reduced_equation_calls_u_on_phase_blocks(self):
        proto = spin32_protocol(smoothstep_path(1, 1), 200.0)
        calls = []

        def counted(s, u_of=proto.U):
            calls.append(s)
            return u_of(s)

        proto = dataclasses.replace(proto, U=counted)
        ds = dark_space(proto.L_rot)
        calls.clear()  # construction samples the path
        evolve_effective(dark_state_from_bloch((0.0, 0.0, 1.0)), proto, ds, [0.0, 50.0, 200.0])
        assert calls
        for s in calls:
            assert isinstance(s, np.ndarray) and s.ndim == 1 and 0 < s.size <= eff._PHASE_BLOCK


class TestProjectedHamiltonian:
    def test_theta_drive(self, spin32_linear, spin32_ds):
        from darklind.effective import projected_hamiltonian

        h0 = projected_hamiltonian(adiabatic_hamiltonian(spin32_linear, 0.25), spin32_ds)
        assert np.linalg.norm(h0 + 2 * math.pi * SY) <= 1e-12

    def test_zero(self, spin32_ds):
        from darklind.effective import projected_hamiltonian

        assert np.linalg.norm(projected_hamiltonian(np.zeros((4, 4)), spin32_ds)) == 0.0

    def test_phi_drive_at_theta_zero(self, spin32_ds):
        from darklind.effective import projected_hamiltonian

        _, _, sz = spin_operators(3)
        h = -1.0 * sz  # phi' = 1, theta = 0, theta' = 0
        h0 = projected_hamiltonian(h, spin32_ds)
        assert np.linalg.norm(h0 + 0.5 * SZ) <= 1e-12


class TestMemoryKernel:
    def test_zero_at_start(self, spin32_linear, spin32_ds):
        assert np.linalg.norm(x_tau_integral(spin32_linear, spin32_ds, 0.0)) == 0.0

    def test_closed_form_dark_block(self, spin32_linear, spin32_ds):
        for tau in (0.5, 2.0, 10.0, 50.0):
            x = x_tau_integral(spin32_linear, spin32_ds, tau)
            block = spin32_ds.projector @ spin32_linear.L_rot @ x @ spin32_ds.projector
            b = 2 * math.pi * (1.0 - math.exp(-1.5 * tau))
            expected = embed_dark(spin32_ds, 1j * b * SZ)
            assert np.linalg.norm(block - expected) <= 1e-9

    def test_constant_protocol_kernel_vanishes(self, spin32_ds):
        proto = constant_protocol()
        for tau in (0.0, 1.0, 20.0):
            assert np.linalg.norm(x_tau_integral(proto, spin32_ds, tau)) <= 1e-12

    def test_ode_residual(self, spin32_linear, spin32_ds):
        residual = c_tau_ode_residual(
            spin32_linear, spin32_ds, [0.3, 1.0, 4.0, 17.0]
        )
        assert residual <= 1e-7

    def test_adiabatic_limit_value(self, spin32_linear, spin32_ds):
        x = x_tau_adiabatic(spin32_linear, spin32_ds, 120.0)
        block = spin32_ds.projector @ spin32_linear.L_rot @ x @ spin32_ds.projector
        expected = embed_dark(spin32_ds, 2j * math.pi * SZ)
        assert np.linalg.norm(block - expected) <= 1e-10

    def test_adiabatic_limit_linear_in_drive(self, spin32_ds):
        forward = spin32_protocol(linear_path(1, 0), 100.0)
        backward = spin32_protocol(linear_path(-1, 0), 100.0)
        xf = x_tau_adiabatic(forward, spin32_ds, 40.0)
        xb = x_tau_adiabatic(backward, spin32_ds, 40.0)
        assert np.linalg.norm(xf + xb) <= 1e-12

    def test_integral_approaches_adiabatic(self, spin32_ds):
        # O(1/gammaT) gap for a genuinely time-dependent drive
        diffs = []
        for gammaT in (100.0, 200.0, 400.0):
            proto = spin32_protocol(smoothstep_path(1, 0), gammaT)
            tau = 0.37 * gammaT
            diff = np.linalg.norm(
                x_tau_integral(proto, spin32_ds, tau) - x_tau_adiabatic(proto, spin32_ds, tau)
            )
            diffs.append(diff)
            assert diff <= 12.0 / gammaT
        for a, b in zip(diffs, diffs[1:]):
            assert 1.6 <= a / b <= 2.6

    def test_c_tau_is_hermitian(self, spin32_linear, spin32_ds):
        c = c_tau(spin32_linear, spin32_ds, 3.0)
        assert np.linalg.norm(c - dagger(c)) <= 1e-12


class TestEffectiveJump:
    def test_theta_drive_long_time(self, spin32_linear, spin32_ds):
        ell = effective_jump(spin32_linear, spin32_ds, 150.0)
        assert np.linalg.norm(ell - 2j * math.pi * SZ) <= 1e-8

    def test_constant_protocol(self, spin32_ds):
        ell = effective_jump(constant_protocol(), spin32_ds, 10.0)
        assert np.linalg.norm(ell) <= 1e-12

    def test_phi_drive_gives_scalar_jump(self):
        # theta = pi/2 fixed, phi' = 2 pi: steady jump is (phi' sin theta) * identity
        proto = phi_only_protocol()
        ds = dark_space(proto.L_rot)
        ell = effective_jump(proto, ds, 100.0)
        assert np.linalg.norm(ell - 2 * math.pi * np.eye(2)) <= 1e-8

    def test_general_path_matches_scalar_quadrature(self, spin32_ds):
        # independent oracle: direct quadrature of the two kernel coefficients
        path = smoothstep_path(1, 1)
        proto = spin32_protocol(path, 150.0)
        tau = 37.0

        def a_int(s):
            ph = s / proto.gammaT
            return 1.5 * math.exp(1.5 * (s - tau)) * path.dphi(ph) * math.sin(path.theta(ph))

        def b_int(s):
            ph = s / proto.gammaT
            return 1.5 * math.exp(1.5 * (s - tau)) * path.dtheta(ph)

        a_val = scipy.integrate.quad(a_int, 0.0, tau, epsabs=1e-12, limit=400)[0]
        b_val = scipy.integrate.quad(b_int, 0.0, tau, epsabs=1e-12, limit=400)[0]
        ell = effective_jump(proto, spin32_ds, tau)
        assert np.linalg.norm(ell - (a_val * np.eye(2) + 1j * b_val * SZ)) <= 1e-8

    def test_adiabatic_source(self, spin32_linear, spin32_ds):
        ell = effective_jump(spin32_linear, spin32_ds, 100.0, source="adiabatic")
        assert np.linalg.norm(ell - 2j * math.pi * SZ) <= 1e-10

    def test_grid_recurrence_matches_quadrature(self, spin32_ds):
        # the exact-decay recurrence against the adaptive-quadrature kernel
        # (measured 7.1e-14 at 2049 points, 1.2e-8 at 257)
        proto = spin32_protocol(smoothstep_path(1, 1), 200.0)
        taus = np.linspace(0.0, 200.0, 2049)
        ells = eff._effective_jump_grid(proto, spin32_ds, taus)
        for k in (3, 512, 1100, 2048):
            x = x_tau_integral(proto, spin32_ds, taus[k])
            oracle = dagger(spin32_ds.basis) @ proto.L_rot @ x @ spin32_ds.basis
            assert np.linalg.norm(ells[k] - oracle) <= 1e-9

    @pytest.mark.parametrize("path", [
        smoothstep_path(1, 1),
        fourier_path(1, 1, theta_knots=(0.2, -0.1), phi_knots=(0.15,)),
    ], ids=["smoothstep", "fourier"])
    @pytest.mark.parametrize("tau", [0.5, 37.0, 150.0])
    def test_per_tau_queries_match_quadrature(self, spin32_ds, path, tau):
        # the recurrence behind effective_jump and c_tau against the quadrature oracle
        proto = spin32_protocol(path, 150.0)
        x = x_tau_integral(proto, spin32_ds, tau)
        jump = dagger(spin32_ds.basis) @ proto.L_rot @ x @ spin32_ds.basis
        assert np.linalg.norm(effective_jump(proto, spin32_ds, tau) - jump) <= 1e-10
        assert np.linalg.norm(c_tau(proto, spin32_ds, tau) - (x + dagger(x))) <= 1e-10


class TestOneKernelAlgorithm:
    def test_quadrature_only_behind_the_ode_residual(self, monkeypatch, spin32_linear, spin32_ds):
        import darklind.analysis
        import darklind.checks

        calls = []
        quadrature = eff.x_tau_integral

        def counted(*args, **kwargs):
            calls.append(args[2])
            return quadrature(*args, **kwargs)

        monkeypatch.setattr(eff, "x_tau_integral", counted)
        monkeypatch.setattr(darklind.analysis, "x_tau_integral", counted, raising=False)
        rho_d = dark_state_from_bloch((0.0, 0.0, 1.0))
        effective_jump(spin32_linear, spin32_ds, 12.0)
        c_tau(spin32_linear, spin32_ds, 12.0)
        reconstruct_full_state(rho_d, spin32_linear, spin32_ds, 12.0)
        darklind.analysis.gauge_covariance_check(
            spin32_linear, spin32_ds, 0.3 * SZ, tau_fractions=(0.5,), gammaT_pair=(60.0, 120.0)
        )
        darklind.checks.check_jump_closed_form(darklind.checks.AcceptanceContext())
        assert calls == []
        c_tau_ode_residual(spin32_linear, spin32_ds, [1.0, 4.0])
        assert len(calls) == 14


@pytest.mark.parametrize("query", [
    lambda p, ds, tau: effective_jump(p, ds, tau),
    lambda p, ds, tau: effective_jump(p, ds, tau, source="adiabatic"),
    lambda p, ds, tau: c_tau(p, ds, tau),
    lambda p, ds, tau: c_tau(p, ds, tau, source="adiabatic"),
    lambda p, ds, tau: effective_rhs(np.eye(2) / 2, p, ds, tau),
    lambda p, ds, tau: effective_rhs(np.eye(2) / 2, p, ds, tau, source="adiabatic"),
    lambda p, ds, tau: reconstruct_full_state(np.eye(2) / 2, p, ds, tau),
    lambda p, ds, tau: reconstruct_full_state(np.eye(2) / 2, p, ds, tau, source="adiabatic"),
    lambda p, ds, tau: x_tau_integral(p, ds, tau),
    lambda p, ds, tau: berry_holonomy(p, ds, tau),
], ids=["jump", "jump-adiabatic", "c_tau", "c_tau-adiabatic", "rhs", "rhs-adiabatic",
        "reconstruct", "reconstruct-adiabatic", "x_tau_integral", "holonomy"])
@pytest.mark.parametrize("tau", [300.0, -50.0, 200.0 + 1e-6, math.nan, math.inf, -math.inf])
def test_per_tau_queries_reject_tau_outside_the_cycle(spin32_linear, spin32_ds, query, tau):
    with pytest.raises(ValueError, match=r"outside \[0, gammaT\]"):
        query(spin32_linear, spin32_ds, tau)


def lagrange_decay_weight(z, i):
    """int_0^1 e^{-z (1 - u)} l_i(u) du by adaptive quadrature, l_i the Gauss-node Lagrange basis."""
    nodes = 0.5 + 0.5 * math.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])
    others = np.delete(nodes, i)

    def integrand(u):
        return math.exp(-z * (1.0 - u)) * float(np.prod((u - others) / (nodes[i] - others)))

    points = [1.0 - 1.0 / z] if z > 1.0 else None  # where the exponential rises
    return scipy.integrate.quad(integrand, 0.0, 1.0, points=points, epsabs=0.0,
                                epsrel=1e-13, limit=200)[0]


class TestDecayWeights:
    @pytest.mark.parametrize("weights", [
        lambda z: eff._decay_weights(np.array([z]))[0],
        eff._decay_weights,
    ], ids=["kernel-recurrence", "spin32-closed-form"])
    @pytest.mark.parametrize("z", [0.0, 1e-6, 0.3, 0.5, 5.0, 1e4])
    def test_match_quadrature(self, weights, z):
        # the one step rule, called with an array of z as the kernel recurrence
        # calls it and with one float z as the spin-3/2 closed form calls it;
        # both sides of the series switch at 0.5, and no underflow at rate h >> 1
        got = weights(z)
        for i in range(3):
            ref = lagrange_decay_weight(z, i)
            assert abs(got[i] - ref) <= 1e-12 * abs(ref)

    def test_kernel_weights_broadcast(self):
        z = np.array([[0.0, 0.2], [0.7, 300.0]])
        got = eff._decay_weights(z)
        assert got.shape == (2, 2, 3)
        for idx in np.ndindex(z.shape):
            assert np.array_equal(got[idx], eff._decay_weights(np.array([z[idx]]))[0])


class TestEffectiveRhs:
    def test_scalar_jump_and_commuting_state(self):
        proto = phi_only_protocol()
        ds = dark_space(proto.L_rot)
        rho = 0.5 * np.eye(2, dtype=complex)  # commutes with any dark-block H0
        out = effective_rhs(rho, proto, ds, 120.0)
        assert np.linalg.norm(out) <= 1e-10

    def test_pure_dephasing_dissipator(self, spin32_linear, spin32_ds):
        rho = dark_state_from_bloch((1.0, 0.0, 0.0))
        tau = 150.0
        eps = 1.0 / spin32_linear.gammaT
        out = effective_rhs(rho, spin32_linear, spin32_ds, tau)
        from darklind.effective import projected_hamiltonian

        h0 = projected_hamiltonian(
            adiabatic_hamiltonian(spin32_linear, tau / spin32_linear.gammaT), spin32_ds
        )
        dissipator = out + 1j * eps * (h0 @ rho - rho @ h0)
        expected = -((2 * math.pi * eps) ** 2) * SX
        assert np.linalg.norm(dissipator - expected) <= 1e-8

    def test_is_berry_commutator_plus_dissipator(self, spin32_linear, spin32_ds):
        from darklind.effective import projected_hamiltonian

        rho = dark_state_from_bloch((0.6, -0.3, 0.5))
        tau = 37.0
        eps = 1.0 / spin32_linear.gammaT
        h0 = projected_hamiltonian(
            adiabatic_hamiltonian(spin32_linear, tau / spin32_linear.gammaT), spin32_ds
        )
        ell = effective_jump(spin32_linear, spin32_ds, tau)
        ld_l = dagger(ell) @ ell
        expected = -1j * eps * (h0 @ rho - rho @ h0) + eps**2 * (
            ell @ rho @ dagger(ell) - 0.5 * (ld_l @ rho + rho @ ld_l)
        )
        out = effective_rhs(rho, spin32_linear, spin32_ds, tau)
        assert np.linalg.norm(out - expected) <= 1e-15 * np.linalg.norm(expected)

    def test_traceless(self, rng, spin32_linear, spin32_ds):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ dagger(a)
        rho /= np.trace(rho).real
        out = effective_rhs(rho, spin32_linear, spin32_ds, 42.0)
        assert abs(np.trace(out)) <= 1e-12
        assert np.linalg.norm(out - dagger(out)) <= 1e-12


class TestBerryHolonomy:
    def test_identity_at_start(self, spin32_linear, spin32_ds):
        v = berry_holonomy(spin32_linear, spin32_ds, 0.0)
        assert np.array_equal(v, np.eye(2))

    def test_trivial_over_theta_cycle(self, spin32_linear, spin32_ds):
        v = berry_holonomy(spin32_linear, spin32_ds, spin32_linear.gammaT)
        assert np.linalg.norm(v - np.eye(2)) <= 1e-8

    def test_unitary_generic_loop(self, spin32_ds):
        proto = spin32_protocol(smoothstep_path(1, 1), 130.0)
        v = berry_holonomy(proto, spin32_ds, 130.0 * 0.8)
        assert np.linalg.norm(dagger(v) @ v - np.eye(2)) <= 1e-9

    def test_spectrum_invariant_under_basis_gauge(self, spin32_ds):
        from darklind.effective import DarkSpace

        proto = spin32_protocol(smoothstep_path(1, 1), 130.0)
        omega_dark = matrix_exp(1j * 0.7 * (SZ + 0.3 * SX))
        basis2 = spin32_ds.basis @ omega_dark
        ds2 = DarkSpace(basis=basis2, projector=spin32_ds.projector, d=2)
        v1 = berry_holonomy(proto, spin32_ds, 130.0)
        v2 = berry_holonomy(proto, ds2, 130.0)
        # the conjugated basis transports the holonomy exactly
        assert np.linalg.norm(v2 - dagger(omega_dark) @ v1 @ omega_dark) <= 1e-10
        e1 = sorted(np.linalg.eigvals(v1), key=np.angle)
        e2 = sorted(np.linalg.eigvals(v2), key=np.angle)
        assert np.linalg.norm(np.array(e1) - np.array(e2)) <= 1e-8


class TestEffectiveEvolution:
    def test_dissipator_only_purity_monotone(self, spin32_linear, spin32_ds):
        rho0 = dark_state_from_bloch((0.6, 0.5, 0.3))
        taus = np.linspace(0.0, 200.0, 21)
        states = evolve_effective(rho0, spin32_linear, spin32_ds, taus, mode="dissipator")
        purities = [purity(s) for s in states]
        for a, b in zip(purities, purities[1:]):
            assert b <= a + 1e-10

    def test_dissipator_preserves_z_shrinks_xy(self, spin32_linear, spin32_ds):
        from darklind.analysis import bloch_of

        rho0 = dark_state_from_bloch((0.5, 0.4, 0.6))
        final = evolve_effective(rho0, spin32_linear, spin32_ds, [200.0], mode="dissipator")[-1]
        n = bloch_of(final)
        assert abs(n[2] - 0.6) <= 1e-9
        assert abs(n[0]) < 0.5
        assert abs(n[1]) < 0.4

    @pytest.mark.parametrize("gammaT", [6400.0, 12800.0])
    def test_large_gammaT_loss_is_the_resummed_law(self, spin32_ds, gammaT):
        # rate h >> 1 on most steps, where Gauss-node decay weights underflow
        # and the loss came out near 1e-10: it must be (1 - e^{-2P})/2 with
        # P = 4 pi^2 / gammaT (measured within 0.03 / gammaT^2)
        proto = spin32_protocol(linear_path(1, 0), gammaT)
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        final = evolve_effective(rho0, proto, spin32_ds, [gammaT])[-1]
        p = 4.0 * math.pi**2 / gammaT
        assert abs(1.0 - purity(final) - 0.5 * (1.0 - math.exp(-2.0 * p))) <= 1.0 / gammaT**2

    def test_unitary_mode_keeps_purity(self, spin32_ds):
        proto = spin32_protocol(smoothstep_path(1, 1), 150.0)
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        final = evolve_effective(rho0, proto, spin32_ds, [150.0], mode="unitary")[-1]
        assert abs(purity(final) - 1.0) <= 1e-9


class TestEndOfCycle:
    def test_constant_protocol_identity(self, spin32_ds):
        rho0 = dark_state_from_bloch((0.3, 0.2, 0.8))
        out = end_of_cycle_state(rho0, constant_protocol(), spin32_ds)
        assert trace_distance(out, rho0) <= 1e-10

    def test_matches_exact_lab_integration(self, spin32_linear, spin32_ds):
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        out = end_of_cycle_state(rho0, spin32_linear, spin32_ds)
        traj = integrate(
            lab_generator(spin32_linear), embed_dark(spin32_ds, rho0), (0.0, 200.0)
        )
        assert abs(purity(out) - purity(traj.final)) <= 1e-3
        # frozen order-of-accuracy bound, 140 / gammaT^2 (measured 67, 2x headroom)
        assert trace_distance(out, project_dark(spin32_ds, traj.final)) <= 140.0 / 200.0**2

    def test_dual_route_agreement(self, spin32_ds):
        # the closed formula freezes the state under the integral; the two
        # routes agree to second order with a measured, frozen constant
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        for gammaT in (200.0, 800.0):
            proto = spin32_protocol(linear_path(1, 0), gammaT)
            a = end_of_cycle_state(rho0, proto, spin32_ds, method="integrate")
            b = end_of_cycle_state(rho0, proto, spin32_ds, method="formula")
            assert trace_distance(a, b) <= 800.0 / gammaT**2

    def test_rejects_leaky_state(self, spin32_linear, spin32_ds):
        rho = np.diag([0.1, 0.45, 0.45, 0.0]).astype(complex)  # bright support
        with pytest.raises(ValueError, match="leak"):
            end_of_cycle_state(rho, spin32_linear, spin32_ds)

    def test_rejects_nan_full_space_state(self, spin32_linear, spin32_ds):
        rho = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
        rho[0, 3] = rho[3, 0] = np.nan  # outside the dark block, where projection would drop it
        with pytest.raises(ValueError, match="NaN"):
            end_of_cycle_state(rho, spin32_linear, spin32_ds)

    def test_accepts_full_dimensional_dark_state(self, spin32_linear, spin32_ds):
        rho_d = dark_state_from_bloch((0.0, 1.0, 0.0))
        out_full = end_of_cycle_state(embed_dark(spin32_ds, rho_d), spin32_linear, spin32_ds)
        out_reduced = end_of_cycle_state(rho_d, spin32_linear, spin32_ds)
        assert trace_distance(out_full, out_reduced) <= 1e-12


class TestCoerceDarkState:
    def test_dark_state_is_taken_as_it_is(self, spin32_ds):
        rho_d = dark_state_from_bloch((0.6, 0.0, 0.8))
        assert np.array_equal(eff._coerce_dark_state(rho_d, spin32_ds), rho_d)

    def test_full_space_dark_state_is_projected(self, spin32_ds):
        rho_d = dark_state_from_bloch((0.0, 0.6, 0.8))
        out = eff._coerce_dark_state(embed_dark(spin32_ds, rho_d), spin32_ds)
        assert out.shape == (2, 2)
        assert np.linalg.norm(out - rho_d) <= 1e-15

    def test_leaking_state_is_rejected_with_its_leak(self, spin32_ds):
        rho = np.diag([0.1, 0.45, 0.45, 0.0]).astype(complex)
        with pytest.raises(ValueError, match=r"leaks outside the dark space \(0\.1\)"):
            eff._coerce_dark_state(rho, spin32_ds)

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4,)])
    def test_other_shapes_are_rejected(self, spin32_ds, shape):
        with pytest.raises(ValueError, match="incompatible shape"):
            eff._coerce_dark_state(np.zeros(shape), spin32_ds)


class TestReconstruction:
    def test_constant_protocol_is_exact_embedding(self, spin32_ds):
        proto = constant_protocol()
        rho0 = dark_state_from_bloch((0.2, 0.1, 0.9))
        rec, correction = reconstruct_full_state(rho0, proto, spin32_ds, 30.0)
        assert np.linalg.norm(rec - embed_dark(spin32_ds, rho0)) <= 1e-12
        assert correction <= 1e-12

    def test_large_gammaT_reduces_to_embedding(self, spin32_ds):
        proto = spin32_protocol(linear_path(1, 0), 1e9)
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        rec, _ = reconstruct_full_state(rho0, proto, spin32_ds, 5.0)
        assert np.linalg.norm(rec - embed_dark(spin32_ds, rho0)) <= 1e-8

    def test_second_order_accuracy(self, spin32_ds):
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        errs = {}
        for gammaT in (100.0, 400.0):
            proto = spin32_protocol(linear_path(1, 0), gammaT)
            tau = 0.37 * gammaT
            traj = integrate(
                rotating_generator(proto), embed_dark(spin32_ds, rho0), (0.0, tau),
                rtol=1e-10, atol=1e-13,
            )
            rho_eff = evolve_effective(rho0, proto, spin32_ds, [tau])[-1]
            rec, correction = reconstruct_full_state(rho_eff, proto, spin32_ds, tau)
            errs[gammaT] = trace_distance(traj.final, rec)
            assert errs[gammaT] <= 80.0 / gammaT**2
            assert correction <= 1e-10
        # quadratic order: a factor-4 duration gain buys ~16x accuracy
        assert errs[100.0] / errs[400.0] >= 9.0
