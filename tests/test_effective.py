import dataclasses
import gc
import math
import re
import types
import weakref

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import darklind.analysis
import darklind.effective as eff
from darklind.analysis import (
    dark_state_from_bloch,
    gauge_covariance_check,
    purity,
    purity_prediction_general,
    trace_distance,
)
from darklind.effective import (
    NoDarkSpaceError,
    adiabatic_hamiltonian,
    berry_holonomy,
    c_tau,
    c_tau_ode_residual,
    dark_space,
    effective_jump,
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
from darklind.engine import ConvergenceError, integrate
from darklind.linalg import _pivot_columns, dagger, kernel_basis, matrix_exp
from darklind.protocols import (
    custom_protocol,
    fourier_path,
    lab_jump,
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


def lapack_gauge(L):
    """The dark basis in the gauge of SciPy's pivoted QR and polar factor, with LAPACK's pivots."""
    raw = kernel_basis(L)
    d = raw.shape[1]
    _, r, piv = scipy.linalg.qr(dagger(raw), pivoting=True)
    u, _ = scipy.linalg.polar(raw[np.sort(piv[:d])])
    return raw @ dagger(u), r


def spin52_lowering():
    """The spin-5/2 lowering operator S_x - i S_y: only m = -5/2 is dark."""
    sx, sy, _ = spin_operators(5)
    return sx - 1j * sy


def spin2_jump():
    """S_x S_z (S_z^2 - 1) / 6 for spin 2: the m = 1, 0, -1 states are dark, d = 3."""
    sx, _, sz = spin_operators(4)
    return sx @ sz @ (sz @ sz - np.eye(5)) / 6.0


def near_tie(r, d):
    """Whether some pick of the first d has a residual norm within 1e-9 relative of the next best.

    ``r`` is the R factor of the pivoted QR: after k picks, column j >= k of
    the pivoted order has residual norm |R[k:, j]|, and the pick is column k.
    """
    for k in range(d):
        norms = np.linalg.norm(r[k:, k:], axis=0)
        if norms.size > 1 and norms[0] - norms[1:].max() <= 1e-9 * norms[0]:
            return True
    return False


class TestDarkSpaceGauge:
    """``dark_space`` fixes the gauge on NumPy alone, bit for bit as SciPy's pivoted QR and polar."""

    @pytest.mark.parametrize("jump", [spin32_jump, spin52_lowering, spin2_jump],
                             ids=["spin32", "spin52-lowering", "spin2-d3"])
    def test_named_jumps(self, jump):
        expected, _ = lapack_gauge(jump())
        assert np.array_equal(dark_space(jump()).basis, expected)

    @settings(max_examples=60)
    @given(shape=st.integers(1, 4).flatmap(lambda d: st.tuples(st.just(d), st.integers(d + 1, 6))),
           seed=st.integers(0, 2**32 - 1), integer=st.booleans())
    def test_random_jumps(self, shape, seed, integer):
        # a jump of rank dim - d, from Gaussian or from small-integer factors
        # (the latter with exact ties); near ties are skipped: there either
        # gauge is valid and the two norms' rounding decides
        d, dim = shape
        rng = np.random.default_rng(seed)

        def factor(rows, cols):
            size = (2, rows, cols)
            parts = rng.integers(-1, 2, size=size) if integer else rng.normal(size=size)
            return parts[0] + 1j * parts[1]

        jump = factor(dim, dim - d) @ factor(dim - d, dim)
        expected, r = lapack_gauge(jump)
        assume(not near_tie(r, expected.shape[1]))
        assert np.array_equal(dark_space(jump).basis, expected)

    @pytest.mark.parametrize("a", [
        [[1, 1, 0], [0, 0, 1]],
        [[1, 1, 1, 1], [1, -1, 1, -1]],
        [[0, 1, 1, 0, 1], [1, 0, 0, 1, 1], [1, 1, 0, 0, 0]],
    ])
    def test_exact_ties_take_the_first_column(self, a):
        # geqp3's rule on exact ties: the first column in the current order,
        # after the residual of each pick is projected out
        a = np.asarray(a, dtype=complex)
        _, _, piv = scipy.linalg.qr(a, pivoting=True)
        assert np.array_equal(_pivot_columns(a, a.shape[0]), piv[:a.shape[0]])


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
        # the array contract of ``Protocol``: U and dU take a 1-D phase array
        broken = types.SimpleNamespace(
            dim=4,
            U=lambda s: (1.0 + s)[:, None, None] * np.eye(4),
            dU=lambda s: np.zeros((s.size, 4, 4)),
            gammaT=100.0,
        )
        with pytest.raises(ValueError, match=r"U\(0\.5\) is not unitary"):
            adiabatic_hamiltonian(broken, 0.5)

    def test_rejects_nan_phase(self, spin32_linear):
        with pytest.raises(ValueError, match=r"U\(nan\) is not unitary"):
            adiabatic_hamiltonian(spin32_linear, math.nan)


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
        # one phase, as a float, a NumPy scalar or a 0-d array, is the
        # one-element array: bit-equal to its element of the stack
        proto = GRID_PROTOCOLS[name]()
        s = np.linspace(0.0, 1.0, 37)
        evaluations = {
            "H": lambda phase: adiabatic_hamiltonian(proto, phase),
            "U": proto.U,
            "dU": proto.dU,
            "lab_jump": lambda phase: lab_jump(proto, phase),
        }
        for what, evaluate in evaluations.items():
            stack = evaluate(s)
            assert stack.shape == (37, 4, 4), what
            for k in range(s.size):
                for phase in (float(s[k]), s[k], np.array(s[k])):
                    assert np.array_equal(evaluate(phase), stack[k]), (what, k, type(phase))

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

    @pytest.mark.parametrize("evaluate", [adiabatic_hamiltonian, lab_jump],
                             ids=["H", "lab_jump"])
    def test_rejects_a_two_dimensional_phase_array(self, spin32_linear, evaluate):
        # not flattened into a (6, 4, 4) stack
        with pytest.raises(ValueError,
                           match=r"phases must be one phase or a 1-D array, got shape \(2, 3\)"):
            evaluate(spin32_linear, np.full((2, 3), 0.3))

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


def array_only(proto):
    """``proto`` with U and dU that raise on anything but a 1-D phase array."""

    def strict(fn):
        def call(s):
            if not (isinstance(s, np.ndarray) and s.ndim == 1):
                raise TypeError(f"phases must be a 1-D array, got {s!r}")
            return fn(s)

        return call

    return dataclasses.replace(proto, U=strict(proto.U), dU=strict(proto.dU))


def test_package_calls_u_and_du_on_phase_arrays_only(spin32_linear, spin32_ds):
    strict = array_only(spin32_linear)
    queries = {
        "H": lambda p: adiabatic_hamiltonian(p, 0.3),
        "lab_jump": lambda p: lab_jump(p, 0.3),
        "x_tau_adiabatic": lambda p: x_tau_adiabatic(p, spin32_ds, 60.0),
        "jump": lambda p: effective_jump(p, spin32_ds, 60.0),
        "jump-adiabatic": lambda p: effective_jump(p, spin32_ds, 60.0, source="adiabatic"),
    }
    for what, query in queries.items():
        assert np.array_equal(query(strict), query(spin32_linear)), what
    rho0 = embed_dark(spin32_ds, dark_state_from_bloch((0.0, 1.0, 0.0)))
    runs = [integrate(lab_generator(p), rho0, (0.0, 5.0)) for p in (strict, spin32_linear)]
    assert np.array_equal(runs[0].final, runs[1].final)


def counting_u(proto) -> tuple:
    """The protocol with U wrapped to record the phases of every call, and that record."""
    calls = []

    def counted(s, u_of=proto.U):
        calls.append(np.size(s))
        return u_of(s)

    proto = dataclasses.replace(proto, U=counted)
    calls.clear()  # construction samples the path
    return proto, calls


class TestHamiltonianCalls:
    def test_propagator_evaluates_the_cycle_pass_alone(self):
        # the cycle pass alone, 6,144 phases in 24 calls: H0 and ell at every
        # CF4 Gauss point of the graded grid, and of the partial steps to the
        # checkpoints inside the onset, come off the record's samples (2
        # phases per step, 32 calls and 7,872 phases, when H0 was evaluated
        # there; 8 per step, 51 calls and 13,056 phases, when each Gauss point
        # also took a partial kernel step on evaluated H)
        proto, calls = counting_u(spin32_protocol(linear_path(1, 0), 200.0))
        ds = dark_space(proto.L_rot)
        evolve_effective(dark_state_from_bloch((0.0, 0.0, 1.0)), proto, ds,
                         np.linspace(0.0, 200.0, 33))
        assert (len(calls), sum(calls)) == (24, 6144)

    @pytest.mark.parametrize("query", [
        lambda p, ds, rho: end_of_cycle_state(rho, p, ds, method="formula"),
        lambda p, ds, rho: purity_prediction_general(rho, p, ds),
    ], ids=["end-of-cycle", "prediction"])
    def test_frozen_state_integral_evaluates_each_node_once(self, query):
        # three kernel nodes per step of 2048, the middle one the holonomy's
        # midpoint: 6,144 phases in 24 calls (8,192 in 32 with the midpoint twice)
        proto, calls = counting_u(spin32_protocol(smoothstep_path(1, 1), 200.0))
        query(proto, dark_space(proto.L_rot), dark_state_from_bloch((0.0, 1.0, 0.0)))
        assert (len(calls), sum(calls)) == (24, 6144)

    def test_gauge_check_runs_one_kernel_pass_per_gammaT(self, monkeypatch):
        # criterion 6's arguments: per gammaT the protocol's plain record and a
        # fresh gauged one, each grown along the cycle grid's 6,144 kernel
        # nodes in 24 calls, plus 64 phases that with_gammaT samples; the 0.3
        # and 0.7 fractions' partial steps (0.5 is a node) read the records'
        # samples (their own 6 phases in one more call each gave (102, 24728))
        proto, calls = counting_u(spin32_protocol(linear_path(1, 0), 200.0))
        records = []
        init = eff._CycleRecord.__init__

        def counted(record, protocol, ds, gauge=None):
            init(record, protocol, ds, gauge)
            records.append((protocol.gammaT, gauge is not None, record))

        monkeypatch.setattr(eff._CycleRecord, "__init__", counted)
        gauge_covariance_check(proto, dark_space(proto.L_rot), (math.pi / 7.0) * SZ,
                               gammaT_pair=(100.0, 200.0))
        assert [(g, gauged, r.extent) for g, gauged, r in records] == [
            (100.0, False, 2048), (100.0, True, 2048), (200.0, False, 2048), (200.0, True, 2048),
        ]
        assert (len(calls), sum(calls)) == (98, 24704)


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

    @pytest.mark.parametrize("tau", [0.1, 199.9, math.nan])
    def test_ode_residual_rejects_a_stencil_outside_the_cycle(self, spin32_linear, spin32_ds, tau):
        with pytest.raises(ValueError, match=f"tau={tau} too close to the cycle boundary"):
            c_tau_ode_residual(spin32_linear, spin32_ds, [1.0, tau])

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
        ells = eff._cycle_record(proto, spin32_ds).jumps(taus)
        for k in (3, 512, 1100, 2048):
            x = x_tau_integral(proto, spin32_ds, taus[k])
            oracle = dagger(spin32_ds.basis) @ proto.L_rot @ x @ spin32_ds.basis
            assert np.linalg.norm(ells[k] - oracle) <= 1e-9

    @pytest.mark.parametrize("path", [
        smoothstep_path(1, 1),
        fourier_path(1, 1, theta_knots=(0.2, -0.1), phi_knots=(0.15,)),
    ], ids=["smoothstep", "fourier"])
    @pytest.mark.parametrize("tau", [0.5, 37.0, 90.0, 150.0])
    def test_per_tau_queries_match_quadrature(self, spin32_ds, path, tau):
        # the recurrence behind effective_jump and c_tau against the quadrature oracle;
        # past tau = 60 (= 2 * 90 / 3) both start at the kernel window, not at 0
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
        assert len(calls) == 1 and np.shape(calls[0]) == (14,)

    def test_ode_residual_integrand_evaluations(self, monkeypatch, spin32_linear, spin32_ds):
        # one drive evaluation per quadrature node shared by every stencil time
        # (1,260 phases measured, 1,218 of them in the one call on the recorded
        # nodes; 3,528 with one quadrature per stencil time)
        phases = []
        drive = eff._CycleRecord.drive

        def counted(self, taus):
            phases.append(np.size(taus))
            return drive(self, taus)

        monkeypatch.setattr(eff._CycleRecord, "drive", counted)
        c_tau_ode_residual(spin32_linear, spin32_ds, np.linspace(0.2, 20.0, 64)[:8])
        assert 0 < sum(phases) <= 1500
        assert max(phases) >= 0.95 * sum(phases)


PATHS = [
    linear_path(1, 0),
    smoothstep_path(1, 1),
    fourier_path(1, 1, theta_knots=(0.2, -0.1), phi_knots=(0.15,)),
]
PATH_IDS = ["linear", "smoothstep", "fourier"]


class TestBatchedOracle:
    @pytest.mark.parametrize("path", PATHS, ids=PATH_IDS)
    def test_array_matches_scalar(self, spin32_ds, path):
        # past tau = 60 (= 2 * 90 / 3) each member's window starts at its own time
        proto = spin32_protocol(path, 150.0)
        taus = np.array([0.0, 0.5, 37.0, 61.0, 90.0, 149.0])
        stack = x_tau_integral(proto, spin32_ds, taus)
        assert stack.shape == (taus.size, 4, 4)
        for tau, x in zip(taus, stack):
            single = x_tau_integral(proto, spin32_ds, float(tau))
            assert single.shape == (4, 4)
            assert np.linalg.norm(x - single) <= 1e-12

    @pytest.mark.parametrize("path", PATHS, ids=PATH_IDS)
    def test_matches_a_scalar_integrand(self, spin32_ds, path):
        # the same quad_vec calls with one scalar adiabatic_hamiltonian per node;
        # past tau = 60 (= 2 * 90 / 3) each member's window starts at its own time
        proto = spin32_protocol(path, 150.0)
        taus = np.array([0.5, 37.0, 61.0, 90.0, 149.0])
        record = eff._cycle_record(proto, spin32_ds)
        reduced = np.zeros((taus.size, record.rates.size, spin32_ds.d), dtype=complex)
        for rate in np.unique(np.round(record.rates, 12)):
            group = np.abs(record.rates - rate) < 1e-9 * max(rate, 1.0)
            t_lo = np.maximum(0.0, taus - 180.0 / rate)

            def integrand(s):
                h = adiabatic_hamiltonian(proto, s / proto.gammaT)
                drive = (dagger(record.modes) @ h @ spin32_ds.basis)[group]
                inside = (t_lo <= s) & (s <= taus)
                weight = inside * np.exp(0.5 * rate * np.minimum(s - taus, 0.0))
                return weight[:, None, None] * drive.view(float)

            points = np.unique(np.concatenate([t_lo, taus]))
            res, _, info = scipy.integrate.quad_vec(
                integrand, t_lo.min(), taus.max(), epsabs=1e-10, epsrel=1e-10, norm="max",
                limit=400 + points.size, points=points, full_output=True,
            )
            assert info.status == 0
            reduced[:, group] = res.view(complex)
        expected = record.modes @ reduced @ dagger(spin32_ds.basis)
        assert np.abs(x_tau_integral(proto, spin32_ds, taus) - expected).max() <= 1e-15

    def test_checks_every_phase(self, spin32_linear):
        # U scaled by 1.01 on phases [0.005, 0.01] (tau 1 to 2), between the
        # 64 phases construction samples
        def leaky(s, u_of=spin32_linear.U):
            inside = (0.005 <= np.asarray(s)) & (np.asarray(s) <= 0.01)
            return u_of(s) * np.where(inside, 1.01, 1.0)[..., None, None]

        proto = dataclasses.replace(spin32_linear, U=leaky)
        with pytest.raises(ValueError, match="is not unitary") as failure:
            c_tau_ode_residual(proto, dark_space(proto.L_rot), [1.0, 4.0])
        phase = re.fullmatch(r"U\((.+)\) is not unitary", str(failure.value)).group(1)
        assert 0.005 <= float(phase) <= 0.01

    def test_rejects_a_two_dimensional_tau(self, spin32_linear, spin32_ds):
        with pytest.raises(ValueError, match="1-D array"):
            x_tau_integral(spin32_linear, spin32_ds, np.ones((2, 2)))

    def test_non_convergence_raises(self, monkeypatch, spin32_linear, spin32_ds):
        # a drive switching sign 1,600 times on [0, 10] needs far more than the
        # allowed subintervals to reach 1e-10
        def rough(self, taus):
            return np.sign(np.sin(1e3 * taus))[:, None, None] * np.ones(
                (self.rates.size, self.ds.d))

        monkeypatch.setattr(eff._CycleRecord, "drive", rough)
        with pytest.raises(ConvergenceError,
                           match=r"tau in \[0, 10\]: error estimate .* quad_vec: Target precision"):
            x_tau_integral(spin32_linear, spin32_ds, 10.0)
        with pytest.raises(ConvergenceError, match=r"tau in \[0, 12\]"):
            x_tau_integral(spin32_linear, spin32_ds, np.array([3.0, 12.0]))

    @pytest.mark.parametrize("tau, last, chunks", [(150.0, 1536, 6), (100.3, 1027, 5),
                                                   (60.0, 614, 3), (12.0, 122, 1)])
    def test_recurrence_grows_by_chunks_from_node_zero(self, monkeypatch, spin32_ds,
                                                       tau, last, chunks):
        # the cycle grid 200 linspace(0, 1, 2049) from zero at node 0, in chunks
        # of 256 steps up to the one that holds the node above tau (the node
        # 150 itself), one scan per chunk from the block at its first node; the
        # partial Gauss-Legendre step to tau reads the record's samples
        proto = spin32_protocol(linear_path(1, 0), 200.0)
        phases, starts = [], []
        blocks, scan = eff._node_blocks, eff._kernel_grid

        def spied_blocks(record, s, *args, **kwargs):
            phases.append(s)
            return blocks(record, s, *args, **kwargs)

        def spied_scan(maps, start):
            starts.append((maps.shape[0], start.copy()))
            return scan(maps, start)

        monkeypatch.setattr(eff, "_node_blocks", spied_blocks)
        monkeypatch.setattr(eff, "_kernel_grid", spied_scan)
        reconstruct_full_state(np.eye(2) / 2, proto, spin32_ds, tau)
        cycle = 200.0 * np.linspace(0.0, 1.0, 2049)
        record, = proto._cycle_records.values()
        assert record.extent == 256 * chunks
        assert [steps for steps, _ in starts] == [256] * chunks
        assert not starts[0][1].any()
        for c, (_, start) in enumerate(starts):
            assert np.array_equal(start, record.xs[256 * c])
            nodes = cycle[256 * c:256 * (c + 1), None] + np.diff(
                cycle[256 * c:256 * (c + 1) + 1])[:, None] * eff._GL3_NODES
            assert np.array_equal(phases[c], nodes.ravel() / 200.0)
        assert [s.size for s in phases] == [768] * chunks
        assert record.extent >= last + (tau != cycle[last])


#: the cycle grid at gammaT 200, whose nodes the per-tau recurrence steps
CYCLE_200 = 200.0 * np.linspace(0.0, 1.0, 2049)
#: unsorted sets of times in [0, 200] with duplicates, the cycle's ends, its
#: nodes and times past the kernel window (tau > 60 = 2 * 90 / 3)
TAU_SETS = st.lists(
    st.one_of(
        st.floats(0.0, 200.0),
        st.floats(60.0, 200.0),
        st.sampled_from([0.0, 200.0]),
        st.integers(0, 2048).map(lambda k: float(CYCLE_200[k])),
    ),
    min_size=1, max_size=8,
).flatmap(lambda taus: st.lists(st.sampled_from(taus), max_size=3).map(lambda more: taus + more))


class TestPerTauBatch:
    @pytest.mark.parametrize("path", PATHS, ids=PATH_IDS)
    @settings(max_examples=10)
    @given(taus=TAU_SETS)
    @example(taus=[150.0, 0.0, 200.0, 61.5, 61.5, float(CYCLE_200[1024]), 12.3, 0.0])
    def test_batch_matches_per_tau_calls(self, spin32_ds, path, taus):
        proto = spin32_protocol(path, 200.0)
        queries = {
            "jump": lambda tau: effective_jump(proto, spin32_ds, tau),
            "c_tau": lambda tau: c_tau(proto, spin32_ds, tau),
            "jump-adiabatic": lambda tau: effective_jump(proto, spin32_ds, tau, source="adiabatic"),
            "c_tau-adiabatic": lambda tau: c_tau(proto, spin32_ds, tau, source="adiabatic"),
            "x_tau_adiabatic": lambda tau: x_tau_adiabatic(proto, spin32_ds, tau),
        }
        for what, query in queries.items():
            batch = query(np.array(taus))
            singles = [query(tau) for tau in taus]
            assert batch.shape == (len(taus),) + singles[0].shape, what
            # a list of times is the array of them, for either source
            assert np.array_equal(query(list(taus)), batch), what
            for tau, got, single in zip(taus, batch, singles):
                assert np.linalg.norm(got - single) <= 1e-13, (what, tau)

    @pytest.mark.parametrize("query, expected", [
        (lambda p, ds: [q(p, ds, np.array([])).shape for q in (effective_jump, c_tau)],
         [(0, 2, 2), (0, 4, 4)]),
        (lambda p, ds: [q(p, ds, np.array([]), source="adiabatic").shape
                        for q in (effective_jump, c_tau)],
         [(0, 2, 2), (0, 4, 4)]),
        (lambda p, ds: gauge_covariance_check(p, ds, 0.3 * SZ, tau_fractions=(),
                                              gammaT_pair=(60.0, 120.0)).defects,
         (0.0, 0.0)),
    ], ids=["integral", "adiabatic", "gauge-check"])
    def test_empty_tau_array(self, spin32_linear, spin32_ds, query, expected):
        # no times give empty (0, d, d) and (0, dim, dim) stacks, and no defect
        assert query(spin32_linear, spin32_ds) == expected

    def test_shapes(self, spin32_linear, spin32_ds):
        # one float tau gives one matrix, a one-element array a stack of one
        for query in (effective_jump, c_tau):
            one = query(spin32_linear, spin32_ds, 61.5)
            assert one.shape == ((2, 2) if query is effective_jump else (4, 4))
            stack = query(spin32_linear, spin32_ds, np.array([61.5]))
            assert stack.shape == (1,) + one.shape
            assert np.array_equal(stack[0], one)

    @settings(max_examples=20)
    @given(taus=TAU_SETS, where=st.integers(0, 10),
           bad=st.sampled_from([math.nan, -1.0, 300.0, math.inf]))
    def test_names_the_first_bad_tau(self, spin32_linear, spin32_ds, taus, where, bad):
        taus = taus[:where] + [bad] + taus[where:] + [-2.0]
        for source in ("integral", "adiabatic"):
            with pytest.raises(ValueError, match=re.escape(f"tau={bad} outside [0, gammaT]")):
                effective_jump(spin32_linear, spin32_ds, np.array(taus), source=source)

    def test_criterion_5_evaluates_each_node_once(self, monkeypatch):
        # the first chunk of the protocol's cycle record, the three
        # Gauss-Legendre nodes of each of its 256 cycle steps (tau = 20 lies
        # between nodes 204 and 205): 768 phases in one call; the partial steps
        # of the 77 times off the nodes (0, 6.25, 12.5 and 18.75 are nodes)
        # read the record's samples (231 phases more when they evaluated H,
        # 855 in one call when each query cut its own grid at the kernel
        # window, 25,002 with one uniform grid per tau)
        import darklind.checks

        phases = []
        blocks = eff._node_blocks

        def spied(record, s, *args, **kwargs):
            phases.append(np.size(s))
            return blocks(record, s, *args, **kwargs)

        monkeypatch.setattr(eff, "_node_blocks", spied)
        result = darklind.checks.check_jump_closed_form(darklind.checks.AcceptanceContext())
        assert result.passed and result.detail["max_deviation"] <= 1e-14
        assert phases == [768]


@pytest.mark.parametrize("query", [
    lambda p, ds, tau: effective_jump(p, ds, tau),
    lambda p, ds, tau: effective_jump(p, ds, tau, source="adiabatic"),
    lambda p, ds, tau: c_tau(p, ds, tau),
    lambda p, ds, tau: c_tau(p, ds, tau, source="adiabatic"),
    lambda p, ds, tau: reconstruct_full_state(np.eye(2) / 2, p, ds, tau),
    lambda p, ds, tau: reconstruct_full_state(np.eye(2) / 2, p, ds, tau, source="adiabatic"),
    lambda p, ds, tau: x_tau_integral(p, ds, tau),
    lambda p, ds, tau: x_tau_integral(p, ds, np.array([1.0, tau, 5.0])),
    lambda p, ds, tau: berry_holonomy(p, ds, tau),
    lambda p, ds, tau: x_tau_adiabatic(p, ds, tau),
], ids=["jump", "jump-adiabatic", "c_tau", "c_tau-adiabatic", "reconstruct",
        "reconstruct-adiabatic", "x_tau_integral", "x_tau_integral-array", "holonomy",
        "x_tau_adiabatic"])
@pytest.mark.parametrize("tau", [300.0, -50.0, 200.0 + 1e-6, math.nan, math.inf, -math.inf])
def test_per_tau_queries_reject_tau_outside_the_cycle(spin32_linear, spin32_ds, query, tau):
    with pytest.raises(ValueError, match=rf"tau={tau} outside \[0, gammaT\]"):
        query(spin32_linear, spin32_ds, tau)


@pytest.mark.parametrize("query", [
    lambda p, ds, tau: reconstruct_full_state(np.eye(2) / 2, p, ds, tau),
    lambda p, ds, tau: reconstruct_full_state(np.eye(2) / 2, p, ds, tau, source="adiabatic"),
], ids=["reconstruct", "reconstruct-adiabatic"])
def test_one_tau_queries_name_an_array_tau(monkeypatch, spin32_linear, spin32_ds, query):
    # the shape is named before any kernel work: no U call, no kernel pass
    proto, calls = counting_u(spin32_linear)
    monkeypatch.setattr(eff, "_cycle_record", None)
    with pytest.raises(ValueError, match=r"tau must be one time, got shape \(2,\)"):
        query(proto, spin32_ds, np.array([1.0, 2.0]))
    assert calls == []


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


def sequential_kernel(rates, taus, drives, start):
    """The kernel recurrence of ``_step_maps`` and ``_kernel_grid`` step by step, on one 1-D grid.

    ``drives`` is (steps, 3, nb, d) for one recurrence per mode, or
    (steps, 3, 1, nb, d) for one per (mode, drive row) pair.
    """
    pairs = drives.ndim == 5
    x, out = start, [start]
    for k, h in enumerate(np.diff(taus)):
        weights = h * eff._decay_weights(0.5 * h * rates)  # (nb, 3)
        if pairs:
            gain = np.einsum("in,njd->ijd", weights, drives[k, :, 0])
            decay = np.exp(-0.5 * h * rates)[:, None, None]
        else:
            gain = np.einsum("in,nid->id", weights, drives[k])
            decay = np.exp(-0.5 * h * rates)[:, None]
        x = decay * x + gain
        out.append(x)
    return np.array(out)


def identity_gauge(s):
    """The trivial dark-space gauge W = 1 on spin 3/2, at a 1-D array of phases."""
    return np.broadcast_to(np.eye(4, dtype=complex), (len(s), 4, 4)), np.zeros((len(s), 4, 4))


class TestKernelScan:
    def test_matches_the_sequential_recurrence(self, spin32_linear, spin32_ds, rng):
        # three graded, non-uniform grids, one call each, two from zero and one
        # from a carried block
        record = eff._cycle_record(spin32_linear, spin32_ds)
        nb, d, steps = record.rates.size, spin32_ds.d, 300
        u = np.linspace(0.0, 1.0, steps + 1)[:, None]
        taus = np.array([0.0, 20.0, 150.0]) + np.array([40.0, 7.0, 50.0]) * u ** [2.0, 1.5, 3.0]
        drives = rng.normal(size=(steps, 3, 3, nb, d)) + 1j * rng.normal(size=(steps, 3, 3, nb, d))
        start = np.zeros((3, nb, d), dtype=complex)
        start[1] = rng.normal(size=(nb, d)) + 1j * rng.normal(size=(nb, d))  # a carried block
        for p in range(3):
            maps = eff._step_maps(record, np.diff(taus[:, p]), drives[:, p])
            xs = eff._kernel_grid(maps, start[p])
            assert xs.shape == (steps + 1, nb, d)
            expected = sequential_kernel(record.rates, taus[:, p], drives[:, p], start[p])
            assert np.abs(xs - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_mode_row_pairs_match_the_sequential_recurrence(self, spin32_linear, spin32_ds, rng):
        # a gauge frame's record runs pair (i, j) as recurrence i nb + j, with
        # the rate of mode i and drive row j
        plain = eff._cycle_record(spin32_linear, spin32_ds)
        record = eff._cycle_record(spin32_linear, spin32_ds, identity_gauge)
        nb, d, steps = plain.rates.size, spin32_ds.d, 257
        assert np.array_equal(record.rates, np.repeat(plain.rates, nb))
        taus = 30.0 * np.linspace(0.0, 1.0, steps + 1) ** 2
        drives = rng.normal(size=(steps, 3, 1, nb, d)) + 1j * rng.normal(size=(steps, 3, 1, nb, d))
        start = np.zeros((nb * nb, d), dtype=complex)
        tiled = np.tile(drives[:, :, 0], (1, 1, nb, 1))  # row i nb + j is drive row j
        xs = eff._kernel_grid(eff._step_maps(record, np.diff(taus), tiled), start)
        expected = sequential_kernel(plain.rates, taus, drives, start.reshape(nb, nb, d))
        assert xs.shape == (steps + 1, nb * nb, d)
        assert np.abs(xs.reshape(expected.shape) - expected).max() <= 1e-13 * np.abs(expected).max()


class TestInterpolatedSamples:
    """H between the cycle nodes, read off the record's Gauss-Legendre samples (``sample``)."""

    PATHS = {
        "smoothstep": smoothstep_path(1, 1),
        "fourier": fourier_path(1, 0, theta_knots=(0.2,), phi_knots=(-0.25,)),
    }

    @staticmethod
    def grown(path, gammaT, gauged=False):
        """The protocol, which its record holds weakly, and its record over the whole cycle.

        ``gauged`` takes the record in the sin^2 frame of the gauge check
        (``gauge_covariance_check``), else the plain one.
        """
        proto = spin32_protocol(path, gammaT)
        ds = dark_space(proto.L_rot)
        gauge = None
        if gauged:
            gauge = darklind.analysis._sin2_gauge(
                darklind.analysis._block_generator(ds, (math.pi / 7.0) * SZ, None))
        record = eff._cycle_record(proto, ds, gauge)
        record.grow(2048)
        return proto, record

    @pytest.mark.parametrize("path", list(PATHS.values()), ids=list(PATHS))
    def test_a_step_s_own_nodes_read_its_samples(self, path):
        # at a sample's time the weights are 1 and 0 up to the roundoff of its
        # fraction of the step (measured 2.1e-16 and 2.4e-16 of the largest row)
        proto, record = self.grown(path, 200.0)
        nodes = record.nodes
        times = nodes[:-1, None] + np.diff(nodes)[:, None] * eff._GL3_NODES
        got = record.sample(times.ravel()).reshape(record.samples.shape)
        assert np.abs(got - record.samples).max() <= 1e-15 * np.abs(record.samples).max()

    @pytest.mark.parametrize("gauged", [False, True], ids=["plain", "sin2-gauge"])
    @pytest.mark.parametrize("gammaT", [200.0, 3200.0])
    @pytest.mark.parametrize("path", list(PATHS.values()), ids=list(PATHS))
    def test_match_the_evaluated_rows(self, monkeypatch, path, gammaT, gauged, rng):
        # the quintic through two neighbouring steps' samples against H itself
        # at random times, drives and dark block alike (measured at most 5.0e-15
        # of the largest row, gammaT 150-12800); it evaluates nothing
        proto, record = self.grown(path, gammaT, gauged)
        taus = np.append(rng.uniform(0.0, gammaT, 2000), [0.0, gammaT, gammaT + 1e-9])
        exact = eff._node_blocks(record, taus / gammaT)
        monkeypatch.setattr(eff, "_node_blocks", None)
        got = record.sample(taus)
        assert np.abs(got - exact).max() <= 2e-14 * np.abs(exact).max()

    def test_a_second_evolve_pass_evaluates_no_u(self):
        # the first pass grows the protocol's record; the second finds every
        # Gauss point's H0 and ell there
        proto, calls = counting_u(spin32_protocol(smoothstep_path(1, 1), 200.0))
        ds = dark_space(proto.L_rot)
        rho = dark_state_from_bloch((0.0, 1.0, 0.0))
        first = evolve_effective(rho, proto, ds, np.linspace(0.0, 200.0, 33))
        calls.clear()
        second = evolve_effective(rho, proto, ds, np.linspace(0.0, 200.0, 33))
        assert calls == []
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


def reduced_rhs(rho, proto, ds, tau):
    """d rho/d tau of the reduced equation at tau, by the superoperator the CF4 propagator steps."""
    s = eff._MagnusPropagator(proto, ds, 1.0, 1.0)._generators(np.array([float(tau)]))[0]
    return (s @ rho.reshape(-1)).reshape(rho.shape)


class TestEffectiveRhs:
    def test_scalar_jump_and_commuting_state(self):
        proto = phi_only_protocol()
        ds = dark_space(proto.L_rot)
        rho = 0.5 * np.eye(2, dtype=complex)  # commutes with any dark-block H0
        out = reduced_rhs(rho, proto, ds, 120.0)
        assert np.linalg.norm(out) <= 1e-10

    def test_pure_dephasing_dissipator(self, spin32_linear, spin32_ds):
        rho = dark_state_from_bloch((1.0, 0.0, 0.0))
        tau = 150.0
        eps = 1.0 / spin32_linear.gammaT
        out = reduced_rhs(rho, spin32_linear, spin32_ds, tau)
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
        out = reduced_rhs(rho, spin32_linear, spin32_ds, tau)
        assert np.linalg.norm(out - expected) <= 1e-15 * np.linalg.norm(expected)

    def test_traceless(self, rng, spin32_linear, spin32_ds):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ dagger(a)
        rho /= np.trace(rho).real
        out = reduced_rhs(rho, spin32_linear, spin32_ds, 42.0)
        assert abs(np.trace(out)) <= 1e-12
        assert np.linalg.norm(out - dagger(out)) <= 1e-12


class TestBerryHolonomy:
    def test_identity_at_start(self, spin32_linear, spin32_ds):
        v = berry_holonomy(spin32_linear, spin32_ds, 0.0)
        assert np.array_equal(v, np.eye(2))

    @pytest.mark.parametrize("fraction, midpoints", [(1.0, 2048), (0.5, 1024), (0.0, 0)])
    def test_a_tau_on_a_node_takes_no_partial_step(
        self, monkeypatch, spin32_linear, spin32_ds, fraction, midpoints
    ):
        # the cut cycle grid ends on the node itself, and tau = 0 evaluates no drive
        phases = []
        blocks = eff._node_blocks

        def spied(record, s, *args, **kwargs):
            phases.append(np.size(s))
            return blocks(record, s, *args, **kwargs)

        monkeypatch.setattr(eff, "_node_blocks", spied)
        berry_holonomy(spin32_linear, spin32_ds, fraction * spin32_linear.gammaT)
        assert sum(phases) == midpoints

    def test_rejects_a_tau_array(self, spin32_linear, spin32_ds):
        # the cut grid is one time's: an array is not stepped as one
        with pytest.raises(ValueError, match=r"tau must be one time, got shape \(2,\)"):
            berry_holonomy(spin32_linear, spin32_ds, np.array([100.0, 150.0]))

    def test_trivial_over_theta_cycle(self, spin32_linear, spin32_ds):
        v = berry_holonomy(spin32_linear, spin32_ds, spin32_linear.gammaT)
        assert np.linalg.norm(v - np.eye(2)) <= 1e-8

    def test_criterion_4_product_stays_pairwise(self):
        # criterion 4 on linear(1, 0) at gammaT 200 reads |V - 1| = 9.63e-14 with
        # the midpoint steps multiplied pairwise; the benchmark's reference error
        # ratio of the battery is this number over the bound 1e-8, and a prefix
        # scan of the same steps reads 1.53e-13, 59% more
        proto = spin32_protocol(linear_path(1, 0), 200.0)
        v = berry_holonomy(proto, dark_space(proto.L_rot), 200.0)
        assert np.linalg.norm(v - np.eye(2)) <= 1.1e-13

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

    def test_no_bright_mode(self):
        # a zero jump on a spin 1/2: the whole space is dark and no bright mode
        # drives a kernel, so the dissipator is zero, the full equation is the
        # unitary one and the state is transported by the holonomy (measured
        # 6.6e-7 from V rho V^dag at tau = 50)
        _, sy, sz = spin_operators(1)
        path = smoothstep_path(1, 1)
        proto = custom_protocol([sy, sz], [path.theta, path.phi], np.zeros((2, 2)), 50.0,
                                dangles=[path.dtheta, path.dphi])
        ds = dark_space(proto.L_rot)
        rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        taus = [10.0, 50.0]
        full, unitary, dissipator = (evolve_effective(rho0, proto, ds, taus, mode=mode)
                                     for mode in ("full", "unitary", "dissipator"))
        for tau, a, b, c in zip(taus, full, unitary, dissipator):
            assert np.array_equal(a, b)
            assert np.array_equal(c, rho0)
            v = berry_holonomy(proto, ds, tau)
            assert trace_distance(a, v @ rho0 @ dagger(v)) <= 1e-6

    def test_unitary_mode_keeps_purity(self, spin32_ds):
        proto = spin32_protocol(smoothstep_path(1, 1), 150.0)
        rho0 = dark_state_from_bloch((0.0, 0.0, 1.0))
        final = evolve_effective(rho0, proto, spin32_ds, [150.0], mode="unitary")[-1]
        assert abs(purity(final) - 1.0) <= 1e-9


class TestMetamorphicRelations:
    """Identities between runs, measured to roundoff or to the propagator's step error."""

    def test_a_double_winding_at_twice_the_duration_is_the_same_run(self, monkeypatch, spin32_ds):
        # linear(2, 0) at 2 gammaT has the rotating generator of linear(1, 0) at
        # gammaT, so both runs agree up to gammaT.  Each reduced run steps the
        # graded nodes of its own cycle record, which differ, so the two agree
        # to the step error (measured 4.2e-14 at tau 12.5, growing to 2.4e-13
        # at gammaT 100); on the once run's grid both take the same steps and
        # agree to roundoff (measured 3.3e-16), the exact runs being identical
        once = spin32_protocol(linear_path(1, 0), 100.0)
        twice = spin32_protocol(linear_path(2, 0), 200.0)
        rho_d = dark_state_from_bloch((0.6, 0.0, -0.8))
        taus = np.linspace(0.0, 100.0, 9)
        own = evolve_effective(rho_d, once, spin32_ds, taus)
        for a, b in zip(own, evolve_effective(rho_d, twice, spin32_ds, taus)):
            assert np.abs(a - b).max() <= 5e-13
        nodes = eff._cycle_record(once, spin32_ds).nodes
        graded = eff._graded_grid
        monkeypatch.setattr(eff, "_graded_grid", lambda _, rates: graded(nodes, rates))
        for a, b in zip(own, evolve_effective(rho_d, twice, spin32_ds, taus)):
            assert np.abs(a - b).max() <= 1e-15
        exact = [integrate(rotating_generator(p), embed_dark(spin32_ds, rho_d), (0.0, 100.0),
                           rtol=1e-11, atol=1e-14, checkpoints=taus) for p in (once, twice)]
        assert np.array_equal(exact[0].times, exact[1].times)
        for a, b in zip(exact[0].states, exact[1].states):
            assert np.abs(a - b).max() <= 1e-12

    def test_reduced_propagator_is_linear_in_its_start(self):
        # every start takes the same steps on the one grid, so the gap is
        # roundoff (measured 1.1e-16; 2.7e-12 when step doubling could stop
        # at another level for another start)
        proto = spin32_protocol(smoothstep_path(1, 1), 200.0)
        ds = dark_space(proto.L_rot)
        a, b = dark_state_from_bloch((0.0, 0.0, 1.0)), dark_state_from_bloch((0.6, 0.0, -0.8))
        taus = [50.0, 200.0]
        mixed = evolve_effective(0.3 * a + 0.7 * b, proto, ds, taus)
        for m, x, y in zip(mixed, evolve_effective(a, proto, ds, taus),
                           evolve_effective(b, proto, ds, taus)):
            assert np.abs(m - (0.3 * x + 0.7 * y)).max() <= 1e-14

    def test_a_unitary_conjugation_leaves_the_purities_unchanged(self):
        # Q G Q^dag for each generator and Q L Q^dag for the jump; the dark
        # basis takes its own gauge, so only basis-free numbers are compared
        # (measured: eq. 12 8.9e-16 apart, the reduced end purity 1.2e-14)
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        _, sy, sz = spin_operators(3)
        path = smoothstep_path(1, 1)
        start = embed_dark(dark_space(spin32_jump()), dark_state_from_bloch((0.6, 0.0, -0.8)))
        found = []
        for w in (np.eye(4), q):
            proto = custom_protocol([w @ g @ dagger(w) for g in (sy, sz)], [path.theta, path.phi],
                                    w @ spin32_jump() @ dagger(w), 200.0,
                                    dangles=[path.dtheta, path.dphi])
            ds = dark_space(proto.L_rot)
            rho = w @ start @ dagger(w)
            end, = evolve_effective(project_dark(ds, rho), proto, ds, [200.0])
            found.append((purity_prediction_general(rho, proto, ds), purity(end)))
        (eq12, reduced), (eq12_q, reduced_q) = found
        assert abs(eq12_q - eq12) <= 1e-14
        assert abs(reduced_q - reduced) <= 1e-13


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


class TestFrameJumps:
    @pytest.mark.parametrize("gammaT", [37.3, 200.0, 800.0])
    @pytest.mark.parametrize("path", [
        linear_path(1, 0),
        smoothstep_path(1, 1),
        fourier_path(1, 1, theta_knots=(0.17,), phi_knots=(-0.2,)),
    ], ids=["linear", "smoothstep", "fourier"])
    def test_jumps_at_taus_match_effective_jump(self, spin32_ds, path, gammaT):
        # a fresh record's partial steps to the taus read the same recurrence as
        # the per-tau query off another protocol's record (measured equal on every case)
        proto = spin32_protocol(path, gammaT)
        taus = gammaT * np.array([0.0, 0.3, 0.5, 0.77, 1.0])
        record = eff._cycle_record(proto, spin32_ds)
        ells = record.jumps(taus)
        l, v_end = record.frame
        expected = effective_jump(spin32_protocol(path, gammaT), spin32_ds, taus)
        assert ells.shape == (5, 2, 2) and l.shape == (eff._FROZEN_GRID + 1, 2, 2)
        assert np.max(np.linalg.norm(ells - expected, axis=(1, 2))) <= 1e-13
        # V_end is the whole-cycle holonomy; l at the ends is ell there, moved by V
        assert np.linalg.norm(v_end - berry_holonomy(proto, spin32_ds, gammaT)) <= 1e-12
        assert np.linalg.norm(l[0] - ells[0]) <= 1e-13
        assert np.linalg.norm(l[-1] - dagger(v_end) @ ells[-1] @ v_end) <= 1e-13

    def test_rejects_tau_outside_the_cycle(self, spin32_linear, spin32_ds):
        with pytest.raises(ValueError, match="tau=201.0 outside"):
            eff._cycle_record(spin32_linear, spin32_ds).jumps(np.array([10.0, 201.0]))


#: the three readers of a protocol's cycle record
RECORD_READERS = {
    "evolve": lambda p, ds, rho: evolve_effective(rho, p, ds, p.gammaT * np.array([0.0, 0.3, 1.0])),
    "formula": lambda p, ds, rho: end_of_cycle_state(rho, p, ds, method="formula"),
    "prediction": lambda p, ds, rho: purity_prediction_general(rho, p, ds),
}


def turned(ds: eff.DarkSpace) -> eff.DarkSpace:
    """The dark space with its basis turned by a fixed d x d unitary."""
    w = scipy.linalg.expm(0.4j * SX + 0.3j * SZ)
    return eff.DarkSpace(basis=ds.basis @ w, projector=ds.projector, d=ds.d)


class TestCycleRecord:
    PATH, GAMMA_T = smoothstep_path(1, 1), 50.0
    RHO = dark_state_from_bloch((0.0, 0.6, 0.8))

    def fresh(self):
        return spin32_protocol(self.PATH, self.GAMMA_T)

    @pytest.mark.parametrize("first", list(RECORD_READERS))
    def test_filled_record_gives_a_fresh_protocols_outputs(self, spin32_ds, first):
        filled = self.fresh()
        RECORD_READERS[first](filled, spin32_ds, self.RHO)
        assert len(filled._cycle_records) == 1
        for name, read in RECORD_READERS.items():
            expected = read(self.fresh(), spin32_ds, self.RHO)
            assert np.array_equal(read(filled, spin32_ds, self.RHO), expected), name

    def test_frame_jump_is_formed_on_first_read(self, spin32_ds):
        proto = self.fresh()
        RECORD_READERS["evolve"](proto, spin32_ds, self.RHO)
        record, = proto._cycle_records.values()
        assert "frame" not in vars(record)
        RECORD_READERS["formula"](proto, spin32_ds, self.RHO)
        assert "frame" in vars(record)

    def test_superoperator_is_formed_on_first_read(self, spin32_ds):
        # a reader of V_end alone (the sweep's first-order distance) does not
        # pay for M = int D_l dtau; the formula and eq. 12 form it once
        proto = self.fresh()
        record = eff._cycle_record(proto, spin32_ds)
        _, v_end = record.frame
        assert "dissipator" not in vars(record)
        RECORD_READERS["formula"](proto, spin32_ds, self.RHO)
        m = record.dissipator
        assert m.shape == (4, 4)
        RECORD_READERS["prediction"](proto, spin32_ds, self.RHO)
        assert record.dissipator is m

    @pytest.mark.parametrize("move", [
        lambda p: p.with_gammaT(400.0), lambda p: dataclasses.replace(p, gammaT=400.0),
    ], ids=["with_gammaT", "replace"])
    def test_new_cycle_duration_starts_with_no_record(self, spin32_ds, move):
        proto = spin32_protocol(linear_path(1, 0), 200.0)
        before = end_of_cycle_state(self.RHO, proto, spin32_ds, method="formula")
        record, = proto._cycle_records.values()
        moved = move(proto)
        assert moved._cycle_records == {}
        expected = {name: read(spin32_protocol(linear_path(1, 0), 400.0), spin32_ds, self.RHO)
                    for name, read in RECORD_READERS.items()}
        for name, read in RECORD_READERS.items():
            assert np.array_equal(read(moved, spin32_ds, self.RHO), expected[name]), name
        moved_record, = moved._cycle_records.values()
        assert moved_record is not record
        assert list(proto._cycle_records.values()) == [record]
        assert np.array_equal(end_of_cycle_state(self.RHO, proto, spin32_ds, method="formula"),
                              before)

    def test_turned_basis_gets_a_fresh_protocols_outputs(self, spin32_ds):
        proto = self.fresh()
        old = {name: read(proto, spin32_ds, self.RHO) for name, read in RECORD_READERS.items()}
        other = turned(spin32_ds)
        for name, read in RECORD_READERS.items():
            out = read(proto, other, self.RHO)
            assert np.array_equal(out, read(self.fresh(), other, self.RHO)), name
            assert not np.array_equal(out, old[name]), name

    def test_one_record_after_two_dark_spaces(self, spin32_ds):
        proto = self.fresh()
        other = turned(spin32_ds)
        for ds in (spin32_ds, other):
            end_of_cycle_state(self.RHO, proto, ds, method="formula")
        record, = proto._cycle_records.values()
        assert np.array_equal(record.ds.basis, other.basis)


def test_one_record_per_protocol_and_dark_space(monkeypatch, spin32_ds):
    # the reduced propagator (twice), the holonomy, the quadrature oracle, a
    # per-tau query and eq. 12 read the kernel modes off one record, whose
    # constructor runs the one eigendecomposition of L^dag L
    proto = spin32_protocol(linear_path(1, 0), 200.0)
    built = []
    init = eff._CycleRecord.__init__

    def counted(record, *args, **kwargs):
        built.append(record)
        init(record, *args, **kwargs)

    monkeypatch.setattr(eff._CycleRecord, "__init__", counted)
    rho = dark_state_from_bloch((0.0, 0.6, 0.8))
    for _ in range(2):
        evolve_effective(rho, proto, spin32_ds, [50.0, 200.0])
    berry_holonomy(proto, spin32_ds, 200.0)
    x_tau_integral(proto, spin32_ds, 12.0)
    effective_jump(proto, spin32_ds, 33.0)
    purity_prediction_general(rho, proto, spin32_ds)
    assert len(built) == 1
    assert list(proto._cycle_records.values()) == built


def bright_feeding_protocol(gammaT=200.0):
    """A spin-3/2 protocol whose jump G P_perp feeds the bright space: |P_perp L P_perp| / |L| = 0.88.

    G is a seeded complex Gaussian matrix; L keeps the spin-3/2 dark space
    (d = 2) and is scaled so that its slowest bright rate is 3.
    """
    rng = np.random.default_rng(3)
    perp = np.eye(4) - dark_space(spin32_jump()).projector
    jump = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) @ perp
    lam = np.linalg.eigvalsh(dagger(jump) @ jump)
    jump *= math.sqrt(3.0 / lam[lam > 1e-10 * lam[-1]].min())
    path = linear_path(1, 0)
    _, sy, sz = spin_operators(3)
    return custom_protocol([sy, sz], [path.theta, path.phi], jump, gammaT,
                           dangles=[path.dtheta, path.dphi])


class TestBrightFeedGuard:
    """The reduced theory refuses a jump that feeds the bright space back into itself (d >= 2)."""

    RHO = dark_state_from_bloch((0.0, 0.6, 0.8))

    @pytest.mark.parametrize("query", [
        lambda p, ds, rho: evolve_effective(rho, p, ds, [10.0, 200.0]),
        lambda p, ds, rho: evolve_effective(rho, p, ds, [200.0], mode="unitary"),
        lambda p, ds, rho: effective_jump(p, ds, 20.0),
        lambda p, ds, rho: effective_jump(p, ds, 20.0, source="adiabatic"),
        lambda p, ds, rho: purity_prediction_general(rho, p, ds),
        lambda p, ds, rho: end_of_cycle_state(rho, p, ds, method="integrate"),
        lambda p, ds, rho: end_of_cycle_state(rho, p, ds, method="formula"),
        lambda p, ds, rho: x_tau_integral(p, ds, 20.0),
        lambda p, ds, rho: berry_holonomy(p, ds, 200.0),
    ], ids=["evolve", "evolve-unitary", "jump", "jump-adiabatic", "prediction", "integrate",
            "formula", "x_tau_integral", "holonomy"])
    def test_refused_before_any_U_call(self, query):
        proto, calls = counting_u(bright_feeding_protocol())
        ds = dark_space(proto.L_rot)
        assert ds.d == 2
        with pytest.raises(ValueError, match=r"feeds the bright space .* = 0\.88 > 1e-10"):
            query(proto, ds, self.RHO)
        assert calls == []
        assert proto._cycle_records == {}

    @pytest.mark.parametrize("generator", [rotating_generator, lab_generator],
                             ids=["rotating", "lab"])
    def test_brute_force_still_runs(self, generator):
        proto = bright_feeding_protocol(10.0)
        rho0 = embed_dark(dark_space(proto.L_rot), self.RHO)
        traj = integrate(generator(proto), rho0, (0.0, 1.0))
        assert traj.final.shape == (4, 4)
        assert abs(np.trace(traj.final) - 1.0) <= 1e-9

    @pytest.mark.parametrize("jump", [
        lambda: dagger(spin_operators(3)[0] + 1j * spin_operators(3)[1]), spin52_lowering,
    ], ids=["spin-3/2", "spin-5/2"])
    def test_lowering_jumps_with_one_dark_state_pass(self, jump):
        # |P_perp L P_perp| / |L| is 0.84 and 0.93, but a one-state dark space
        # has no reduced dynamics to get wrong
        L = jump()
        dim = L.shape[0]
        perp = np.eye(dim) - dark_space(L).projector
        assert np.linalg.norm(perp @ L @ perp) >= 0.8 * np.linalg.norm(L)
        _, sy, sz = spin_operators(dim - 1)
        path = linear_path(1, 0)
        proto = custom_protocol([sy, sz], [path.theta, path.phi], L, 50.0,
                                dangles=[path.dtheta, path.dphi])
        ds = dark_space(L)
        assert ds.d == 1
        for source in ("integral", "adiabatic"):
            ells = effective_jump(proto, ds, np.array([5.0, 20.0]), source=source)
            assert ells.shape == (2, 1, 1) and np.isfinite(ells).all()
        state, = evolve_effective(np.eye(1), proto, ds, [50.0])
        assert np.array_equal(state, np.eye(1))


def slow_bright_mode_protocol(gammaT=50.0):
    """A spin-3/2 protocol with L = B diag(sqrt 3, 1e-6) U_b^dag: d = 2 and P_perp L P_perp = 0.

    The singular value 1e-6 is bright for ``dark_space`` (above 1e-10 of the
    largest) but its rate 1e-12 is below the record's cut, 1e-10 of
    max(largest rate, 1).
    """
    ds = dark_space(spin32_jump())
    u, _, _ = np.linalg.svd(np.eye(4) - ds.projector)
    jump = ds.basis @ np.diag([math.sqrt(3.0), 1e-6]) @ dagger(u[:, :2])
    path = linear_path(1, 0)
    _, sy, sz = spin_operators(3)
    return custom_protocol([sy, sz], [path.theta, path.phi], jump, gammaT,
                           dangles=[path.dtheta, path.dphi])


class TestBrightSplit:
    """The record's bright modes are the dim - d top eigenvectors of L^dag L, the complement of the dark space."""

    @pytest.mark.parametrize("query", [
        lambda p, ds: evolve_effective(np.eye(2) / 2, p, ds, [10.0]),
        lambda p, ds: effective_jump(p, ds, 5.0),
        lambda p, ds: effective_jump(p, ds, 5.0, source="adiabatic"),
    ], ids=["evolve", "jump", "jump-adiabatic"])
    def test_a_bright_rate_at_the_cut_is_refused_before_any_U_call(self, query):
        proto, calls = counting_u(slow_bright_mode_protocol())
        ds = dark_space(proto.L_rot)
        perp = np.eye(4) - ds.projector
        assert ds.d == 2 and np.linalg.norm(perp @ proto.L_rot @ perp) == 0.0
        with pytest.raises(ValueError, match=r"slowest bright rate 1e-12 is at or below 3e-10"):
            query(proto, ds)
        assert calls == []

    @pytest.mark.parametrize("jump", [spin32_jump, spin2_jump, spin52_lowering],
                             ids=["spin32", "spin2-d3", "spin52-lowering"])
    def test_modes_of_every_named_jump_are_those_above_the_cut(self, jump):
        L = jump()
        dim = L.shape[0]
        _, sy, sz = spin_operators(dim - 1)
        path = linear_path(1, 0)
        proto = custom_protocol([sy, sz], [path.theta, path.phi], L, 50.0,
                                dangles=[path.dtheta, path.dphi])
        record = eff._cycle_record(proto, dark_space(L))
        lam, vec = np.linalg.eigh(dagger(L) @ L)
        above = lam > 1e-10 * max(lam[-1], 1.0)
        assert np.array_equal(record.modes, vec[:, above])
        assert np.array_equal(record.rates, lam[above])


class TestRecordGrowth:
    """The protocol's cycle record grown on demand by the per-tau queries, on the gammaT 200 cycle."""

    RHO = dark_state_from_bloch((0.0, 0.6, 0.8))

    @staticmethod
    def fresh():
        return spin32_protocol(smoothstep_path(1, 1), 200.0)

    def test_blocks_do_not_depend_on_the_growth_order(self, spin32_ds):
        # tau = 20 grows one chunk, tau = 150 six, the end-of-cycle formula all eight
        orders = {
            "20 first": (20.0, 150.0, None),
            "150 first": (150.0, 20.0, None),
            "whole first": (None, 150.0, 20.0),
        }
        grown = {}
        for name, order in orders.items():
            proto = self.fresh()
            jumps = {}
            for tau in order:
                if tau is None:
                    end_of_cycle_state(self.RHO, proto, spin32_ds, method="formula")
                else:
                    jumps[tau] = effective_jump(proto, spin32_ds, np.array([tau, tau - 0.01]))
            record, = proto._cycle_records.values()
            assert record.extent == 2048
            grown[name] = record.xs, jumps
        (xs, jumps), *others = grown.values()
        for other_xs, other_jumps in others:
            assert np.array_equal(other_xs, xs)
            for tau in jumps:
                assert np.array_equal(other_jumps[tau], jumps[tau])

    @pytest.mark.parametrize("name", list(RECORD_READERS))
    def test_a_record_grown_by_a_query_gives_a_fresh_protocols_outputs(self, spin32_ds, name):
        # the reduced propagator, the end-of-cycle formula and eq. 12 grow on
        # from the chunk a per-tau query built
        grown = self.fresh()
        effective_jump(grown, spin32_ds, 20.0)
        read = RECORD_READERS[name]
        assert np.array_equal(read(grown, spin32_ds, self.RHO), read(self.fresh(), spin32_ds, self.RHO))

    @pytest.mark.parametrize("taus", [25.0, np.linspace(0.0, 25.0, 11), np.array([3.0, 24.9])],
                             ids=["node-256", "batch", "off-node"])
    def test_an_early_query_grows_one_chunk(self, spin32_ds, taus):
        # tau = 25 is node 256, the last node of the first chunk
        proto = self.fresh()
        effective_jump(proto, spin32_ds, taus)
        record, = proto._cycle_records.values()
        assert record.extent == 256

    def test_a_query_inside_the_record_evaluates_nothing(self, monkeypatch, spin32_ds):
        # after the first query's chunk, an off-node time's partial step reads
        # the record's samples, and a node time (node 100) and an empty array
        # read nothing more: no time evaluates H
        proto = self.fresh()
        effective_jump(proto, spin32_ds, 20.0)
        phases = []
        blocks = eff._node_blocks

        def spied(record, s, *args, **kwargs):
            phases.append(np.size(s))
            return blocks(record, s, *args, **kwargs)

        monkeypatch.setattr(eff, "_node_blocks", spied)
        effective_jump(proto, spin32_ds, 7.3)
        effective_jump(proto, spin32_ds, float(200.0 * np.linspace(0.0, 1.0, 2049)[100]))
        c_tau(proto, spin32_ds, np.array([]))
        assert phases == []

    def test_an_adiabatic_query_allocates_no_blocks(self, spin32_ds):
        # the adiabatic source reads the record's modes alone: no block array
        # is allocated and the record evaluates nothing (the one phase is
        # x_tau_adiabatic's own); the first growth allocates, even to node 0
        proto, calls = counting_u(self.fresh())
        c_tau(proto, spin32_ds, 60.0, source="adiabatic")
        record, = proto._cycle_records.values()
        assert (record.xs, record.samples) == (None, None)
        assert calls == [1]
        effective_jump(proto, spin32_ds, 0.0)
        assert record.extent == 0 and calls == [1]
        assert record.xs.shape == (2049, 2, 2) and not record.xs.any()
        assert record.samples.shape == (2048, 3, 4, 2)

    @pytest.mark.parametrize("tau, extent", [(25.0, 256), (25.05, 512)])
    def test_the_propagator_grows_to_the_node_above_its_last_gauss_point(
        self, spin32_ds, tau, extent
    ):
        # tau = 25 is node 256: the last Gauss point lies in step 255; past it
        # the last Gauss point lies in step 256, so the record takes a chunk more
        proto = self.fresh()
        evolve_effective(self.RHO, proto, spin32_ds, [tau])
        record, = proto._cycle_records.values()
        assert record.extent == extent

    def test_a_protocol_with_a_record_is_freed_without_the_cycle_collector(self, spin32_ds):
        # the record holds its protocol weakly: no reference cycle keeps it alive
        proto = self.fresh()
        enabled = gc.isenabled()
        gc.disable()
        try:
            effective_jump(proto, spin32_ds, 5.0)
            assert len(proto._cycle_records) == 1
            alive = weakref.ref(proto)
            del proto
            assert alive() is None
        finally:
            if enabled:
                gc.enable()


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
