import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darklind import protocols
from darklind.effective import adiabatic_hamiltonian, dark_space
from darklind.linalg import _norms, dagger, matrix_exp
from darklind.protocols import (
    PathSpec,
    Protocol,
    custom_protocol,
    fourier_path,
    lab_jump,
    linear_path,
    path_from_descriptor,
    smoothstep_path,
    spin32_protocol,
    spin_operators,
)


def counting_rotations(monkeypatch) -> list:
    """Record the angle shape of every rotation built by ``_exp_factory`` rotations."""
    builds = []
    factory = protocols._exp_factory

    def counting_factory(generator):
        rot = factory(generator)

        def counted(angle):
            builds.append(np.shape(angle))
            return rot(angle)

        return counted

    monkeypatch.setattr(protocols, "_exp_factory", counting_factory)
    return builds


class TestSpinOperators:
    def test_spin_half_is_half_pauli(self):
        sx, sy, sz = spin_operators(1)
        assert np.allclose(sx, [[0, 0.5], [0.5, 0]])
        assert np.allclose(sy, [[0, -0.5j], [0.5j, 0]])
        assert np.allclose(sz, [[0.5, 0], [0, -0.5]])

    def test_spin_three_half_sz(self):
        _, _, sz = spin_operators(3)
        assert np.allclose(np.diag(sz), [1.5, 0.5, -0.5, -1.5])

    @pytest.mark.parametrize("two_j", [1, 2, 3, 5])
    def test_algebra(self, two_j):
        sx, sy, sz = spin_operators(two_j)
        for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
            assert np.linalg.norm(a @ b - b @ a - 1j * c) <= 1e-12
        j = two_j / 2
        casimir = sx @ sx + sy @ sy + sz @ sz
        assert np.linalg.norm(casimir - j * (j + 1) * np.eye(two_j + 1)) <= 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            spin_operators(0)


class TestPaths:
    def test_linear_windings(self):
        path = linear_path(2, -1, theta0=0.3, phi0=-0.1)
        assert abs(path.theta(1.0) - path.theta(0.0) - 4 * math.pi) <= 1e-12
        assert abs(path.phi(1.0) - path.phi(0.0) + 2 * math.pi) <= 1e-12

    def test_smoothstep_endpoints_flat(self):
        path = smoothstep_path(1, 0)
        assert abs(path.dtheta(0.0)) <= 1e-12
        assert abs(path.dtheta(1.0)) <= 1e-12
        assert abs(path.theta(1.0) - 2 * math.pi) <= 1e-12

    def test_fourier_keeps_winding(self):
        path = fourier_path(1, 0, theta_knots=(0.3, -0.2), phi_knots=(0.1,))
        assert abs(path.theta(1.0) - path.theta(0.0) - 2 * math.pi) <= 1e-10
        assert abs(path.phi(1.0) - path.phi(0.0)) <= 1e-10

    def test_rejects_inconsistent_winding(self):
        with pytest.raises(ValueError, match="winding"):
            PathSpec(
                theta=lambda s: 3.0 * s,  # not 2 pi * integer
                phi=lambda s: 0.0,
                dtheta=lambda s: 3.0,
                dphi=lambda s: 0.0,
                winding=(1, 0),
            )

    @pytest.mark.parametrize("path", [
        linear_path(2, -1, theta0=0.3, phi0=-0.1),
        smoothstep_path(1, 1),
        fourier_path(1, 0, theta_knots=(0.3, -0.2), phi_knots=(0.1,)),
    ], ids=["linear", "smoothstep", "fourier"])
    def test_descriptor_round_trip(self, path):
        rebuilt = path_from_descriptor(path.descriptor)
        assert rebuilt.descriptor == path.descriptor
        for s in np.linspace(0.0, 1.0, 11):
            got = (rebuilt.theta(s), rebuilt.phi(s), rebuilt.dtheta(s), rebuilt.dphi(s))
            want = (path.theta(s), path.phi(s), path.dtheta(s), path.dphi(s))
            assert got == want

    @pytest.mark.parametrize("desc", [{}, {"family": "spiral", "m_theta": 1, "m_phi": 0,
                                           "theta0": 0.0, "phi0": 0.0}])
    def test_registry_rejects_unknown_family(self, desc):
        with pytest.raises(ValueError, match="path family"):
            path_from_descriptor(desc)


class TestSpin32Protocol:
    def test_jump_operator_form(self, spin32_linear):
        sx, _, sz = spin_operators(3)
        expected = sx @ (sz @ sz - 0.25 * np.eye(4))
        assert np.linalg.norm(spin32_linear.L_rot - expected) <= 1e-14

    def test_half_integer_winding_flips_sign(self, spin32_linear):
        # a single theta winding returns U only up to -1 for spin 3/2
        u1 = spin32_linear.U(1.0)
        assert np.linalg.norm(u1 + np.eye(4)) <= 1e-12

    def test_analytic_derivative_matches_finite_difference(self, spin32_linear):
        h = 1e-6
        for s in (0.1, 0.4, 0.77):
            fd = (spin32_linear.U(s + h) - spin32_linear.U(s - h)) / (2 * h)
            assert np.linalg.norm(spin32_linear.dU(s) - fd) <= 1e-8

    @pytest.mark.parametrize(
        "path",
        [
            linear_path(1, 0),
            linear_path(0, 1),
            smoothstep_path(1, 2),
            fourier_path(1, 0, theta_knots=(0.4,), phi_knots=(0.2, 0.1)),
        ],
    )
    def test_dark_space_dimension_two(self, path):
        proto = spin32_protocol(path, 100.0)
        assert dark_space(proto.L_rot).d == 2

    def test_strong_symmetry(self, spin32_linear, spin32_ds):
        lrot = spin32_linear.L_rot
        assert np.linalg.norm(lrot @ spin32_ds.basis) <= 1e-12
        p_perp = np.eye(4) - spin32_ds.projector
        assert np.linalg.norm(p_perp @ lrot @ p_perp) <= 1e-12

    def test_rejects_nonpositive_gammaT(self):
        with pytest.raises(ValueError):
            spin32_protocol(linear_path(1, 0), 0.0)

    def test_hamiltonian_builds_each_rotation_once(self, monkeypatch):
        builds = counting_rotations(monkeypatch)
        proto = spin32_protocol(smoothstep_path(1, 1), 100.0)
        phases = np.linspace(0.0, 1.0, 7)
        for s in (0.3, phases):
            builds.clear()
            h = adiabatic_hamiltonian(proto, s)
            assert len(builds) == 2  # exp(i theta S_y) and exp(i phi S_z)
            builds.clear()
            # a fresh U/dU pair at another phase builds both again
            adiabatic_hamiltonian(proto, 0.7 if np.ndim(s) == 0 else phases + 0.01)
            assert len(builds) == 2
        assert h.shape == (7, 4, 4)

    def test_rotation_reuse_follows_the_phase_values(self, spin32_linear):
        phases = np.linspace(0.0, 0.5, 5)
        u = spin32_linear.U(phases)
        phases *= 2.0  # the same array object, rewritten in place
        assert np.array_equal(spin32_linear.dU(phases), spin32_linear.dU(phases.copy()))
        assert np.array_equal(u, spin32_linear.U(phases / 2.0))


class TestLabJump:
    def test_cycle_endpoints_recover_rotating_jump(self, spin32_linear):
        assert np.linalg.norm(lab_jump(spin32_linear, 0.0) - spin32_linear.L_rot) <= 1e-12
        assert np.linalg.norm(lab_jump(spin32_linear, 1.0) - spin32_linear.L_rot) <= 1e-12

    def test_matches_explicit_rotation(self, spin32_linear):
        sx, sy, sz = spin_operators(3)
        s = 0.31
        theta = 2 * math.pi * s
        rot = matrix_exp(-1j * theta * sy)
        expected = rot @ sx @ (sz @ sz - 0.25 * np.eye(4)) @ dagger(rot)
        assert np.linalg.norm(lab_jump(spin32_linear, s) - expected) <= 1e-12

    def test_transports_dark_vectors(self, spin32_linear, spin32_ds):
        for s in (0.2, 0.5, 0.9):
            jump = lab_jump(spin32_linear, s)
            carried = dagger(spin32_linear.U(s)) @ spin32_ds.basis
            assert np.linalg.norm(jump @ carried) <= 1e-10

    def test_phi_rotation_leaves_dark_space_stationary(self, spin32_ds):
        # theta = 0, phi winding: the dark states are S_z eigenstates, which
        # only pick up phases under the rotation, so the lab jump keeps
        # annihilating the same vectors at every instant
        proto = spin32_protocol(linear_path(0, 1), 80.0)
        for s in (0.0, 0.3, 0.8):
            assert np.linalg.norm(lab_jump(proto, s) @ spin32_ds.basis) <= 1e-10

    def test_dark_space_transport_on_dense_grid(self, spin32_linear, spin32_ds):
        for s in np.linspace(0.0, 1.0, 64):
            carried = dagger(spin32_linear.U(float(s))) @ spin32_ds.basis
            assert np.linalg.norm(lab_jump(spin32_linear, float(s)) @ carried) <= 1e-9

    def test_rejects_out_of_range_phase(self, spin32_linear):
        with pytest.raises(ValueError):
            lab_jump(spin32_linear, 1.2)

    def test_phase_array_gives_the_stack(self, spin32_linear):
        phases = np.linspace(0.0, 1.0, 9)
        stack = lab_jump(spin32_linear, phases)
        assert stack.shape == (9, 4, 4)
        for k, s in enumerate(phases):
            assert np.linalg.norm(stack[k] - lab_jump(spin32_linear, float(s))) <= 1e-14

    def test_names_first_phase_outside(self, spin32_linear):
        with pytest.raises(ValueError, match=r"phase 1\.2 outside"):
            lab_jump(spin32_linear, np.array([0.1, 1.2, -0.1]))
        with pytest.raises(ValueError, match=r"phase nan outside"):
            lab_jump(spin32_linear, np.array([0.5, np.nan]))


class TestCustomProtocol:
    def test_spin32_is_the_two_factor_product(self):
        _, sy, sz = spin_operators(3)
        path = smoothstep_path(1, 1)
        proto = spin32_protocol(path, 100.0)
        s = np.linspace(0.0, 1.0, 9)
        u = np.array([matrix_exp(1j * a * sy) @ matrix_exp(1j * b * sz)
                      for a, b in zip(path.theta(s), path.phi(s))])
        assert np.linalg.norm(proto.U(s) - u) <= 1e-12
        du = 1j * (path.dtheta(s)[:, None, None] * sy @ u + path.dphi(s)[:, None, None] * u @ sz)
        assert np.linalg.norm(proto.dU(s) - du) <= 1e-11
        assert proto.descriptor == {"family": "spin32", "path": path.descriptor, "gammaT": 100.0}

    def test_no_generators_is_the_identity_path(self):
        proto = custom_protocol([], [], np.diag([0.0, 1.0]), 10.0, dangles=[])
        phases = np.linspace(0.0, 1.0, 5)
        assert np.array_equal(proto.U(0.3), np.eye(2))
        assert np.array_equal(proto.U(phases), np.broadcast_to(np.eye(2), (5, 2, 2)))
        assert not proto.dU(0.3).any() and proto.dU(phases).shape == (5, 2, 2)
        assert not adiabatic_hamiltonian(proto, phases).any()

    def test_constant_protocol(self):
        sx, sy, sz = spin_operators(3)
        jump = sx @ (sz @ sz - 0.25 * np.eye(4))
        proto = custom_protocol([sy], [lambda s: 0.0], jump, 100.0, dangles=[lambda s: 0.0])
        for s in (0.0, 0.3, 1.0):
            assert np.linalg.norm(proto.U(s) - np.eye(4)) <= 1e-14

    def test_reproduces_spin32_protocol(self, spin32_linear):
        sx, sy, sz = spin_operators(3)
        path = linear_path(1, 0)
        proto = custom_protocol(
            [sy, sz],
            [path.theta, path.phi],
            spin32_linear.L_rot,
            200.0,
            dangles=[path.dtheta, path.dphi],
        )
        for s in np.linspace(0.0, 1.0, 7):
            assert np.linalg.norm(proto.U(s) - spin32_linear.U(s)) <= 1e-12
            assert np.linalg.norm(proto.dU(s) - spin32_linear.dU(s)) <= 1e-10

    def test_two_level_dephasing_free_point(self):
        # single dark state: no coherence to degrade, purity stays 1
        from darklind.analysis import purity
        from darklind.effective import dark_space, embed_dark, lab_generator
        from darklind.engine import integrate

        _, _, sz = spin_operators(1)
        sigma_minus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        proto = custom_protocol(
            [sz], [lambda s: 2 * math.pi * s], sigma_minus, 40.0,
            dangles=[lambda s: 2 * math.pi],
        )
        ds = dark_space(proto.L_rot)
        assert ds.d == 1
        rho0 = embed_dark(ds, np.array([[1.0 + 0j]]))
        traj = integrate(lab_generator(proto), rho0, (0.0, 40.0))
        assert purity(traj.final) >= 1.0 - 1e-8

    def test_rejects_non_hermitian_generator(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Hermitian"):
            custom_protocol([bad], [lambda s: s], np.eye(2), 50.0, dangles=[lambda s: 1.0])

    def test_rejects_non_cyclic_path(self):
        _, _, sz = spin_operators(1)
        with pytest.raises(ValueError, match="cyclic"):
            custom_protocol(
                [sz], [lambda s: math.pi * s], np.eye(2), 50.0,  # half winding
                dangles=[lambda s: math.pi],
            )

    @staticmethod
    def two_generator_protocol():
        _, sy, sz = spin_operators(3)
        path = smoothstep_path(1, 1)
        return custom_protocol(
            [sy, sz], [path.theta, path.phi], protocols.spin32_jump(), 100.0,
            dangles=[path.dtheta, path.dphi],
        )

    def test_hamiltonian_builds_each_rotation_once(self, monkeypatch):
        builds = counting_rotations(monkeypatch)
        proto = self.two_generator_protocol()
        phases = np.linspace(0.0, 1.0, 7)
        for s in (0.3, phases):
            builds.clear()
            adiabatic_hamiltonian(proto, s)
            assert len(builds) == 2  # one rotation per generator, shared by U and dU
            builds.clear()
            adiabatic_hamiltonian(proto, 0.7 if np.ndim(s) == 0 else phases + 0.01)
            assert len(builds) == 2

    def test_derivative_unchanged_by_rotation_reuse(self):
        proto = self.two_generator_protocol()
        for s in (0.3, np.linspace(0.0, 1.0, 7)):
            fresh = proto.dU(s)  # no U call before it: every rotation is built
            proto.U(s)
            assert np.array_equal(proto.dU(s), fresh)

    def test_rotation_reuse_follows_the_phase_values(self):
        proto = self.two_generator_protocol()
        phases = np.linspace(0.0, 0.5, 5)
        u = proto.U(phases)
        phases *= 2.0  # the same array object, rewritten in place
        assert np.array_equal(proto.dU(phases), proto.dU(phases.copy()))
        assert np.array_equal(u, proto.U(phases / 2.0))


class TestConstruction:
    def test_unitarity_checked_in_one_array_call(self, spin32_linear):
        calls = []

        def counted(s):
            calls.append(np.shape(s))
            return spin32_linear.U(s)

        Protocol(4, spin32_linear.L_rot, counted, spin32_linear.dU, 50.0)
        assert calls == [(protocols._PHASE_SAMPLES,)]  # U(0) and U(1) are its ends

    def test_names_first_non_unitary_phase(self, spin32_linear):
        def stretched(s):
            scale = np.where(np.abs(np.reshape(s, (-1, 1, 1)) - 0.3) < 0.05, 1.1, 1.0)
            return (scale * spin32_linear.U(s)).reshape(np.shape(spin32_linear.U(s)))

        first_bad = 16 / 63  # the first of the 64 sample phases within 0.05 of 0.3
        with pytest.raises(ValueError, match=rf"U\({first_bad}\) is not unitary"):
            Protocol(4, spin32_linear.L_rot, stretched, spin32_linear.dU, 50.0)

    @pytest.mark.parametrize("gammaT", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_gammaT_not_finite_and_positive(self, gammaT):
        with pytest.raises(ValueError, match="gammaT must be finite and positive"):
            spin32_protocol(linear_path(1, 0), gammaT)

    def test_rejects_scalar_only_u(self, spin32_linear):
        with pytest.raises(ValueError, match=r"U returned shape \(4, 4\) for 64 phases"):
            Protocol(4, spin32_linear.L_rot, lambda s: np.eye(4), spin32_linear.dU, 50.0)

    def test_rejects_path_not_starting_at_identity(self, spin32_linear):
        def shifted(s):
            return spin32_linear.U(np.asarray(s) * 0.5 + 0.25)

        with pytest.raises(ValueError, match=r"U\(0\) must be the identity"):
            Protocol(4, spin32_linear.L_rot, shifted, spin32_linear.dU, 50.0)

    @pytest.mark.parametrize("du", [None, np.zeros((4, 4))])
    def test_requires_a_callable_derivative(self, spin32_linear, du):
        with pytest.raises(ValueError, match="dU"):
            Protocol(4, spin32_linear.L_rot, spin32_linear.U, du, 50.0)

    def test_custom_protocol_requires_dangles(self):
        _, _, sz = spin_operators(1)
        with pytest.raises(TypeError, match="dangles"):
            custom_protocol([sz], [lambda s: 2 * math.pi * s], np.eye(2), 50.0)


#: one factor exp(i alpha(s) n.S): the axis n by its polar and azimuthal
#: angles, the integer winding of alpha and its sine knots
_FACTOR = st.tuples(
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
    st.integers(-2, 2),
    st.lists(st.floats(-0.4, 0.4), max_size=2),
)


@settings(max_examples=5)
@given(two_j=st.integers(1, 5), factors=st.lists(_FACTOR, min_size=1, max_size=3))
def test_random_custom_protocols_are_consistent(two_j, factors):
    spin = spin_operators(two_j)
    gens, angles, dangles = [], [], []
    for polar, azimuth, winding, knots in factors:
        axis = (math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth),
                math.cos(polar))
        gens.append(sum(c * op for c, op in zip(axis, spin)))
        alpha = fourier_path(winding, 0, theta_knots=knots)  # alpha(0) = 0, whole turns
        angles.append(alpha.theta)
        dangles.append(alpha.dtheta)
    lowering = dagger(spin[0] + 1j * spin[1])
    proto = custom_protocol(gens, angles, lowering, 50.0, dangles=dangles)

    h = 1e-6
    for s in (0.17, 0.5, 0.83):
        du = proto.dU(s)
        central = (proto.U(s + h) - proto.U(s - h)) / (2 * h)
        assert np.linalg.norm(du - central) <= 1e-6 * max(1.0, np.linalg.norm(du))

    grid = np.linspace(0.0, 1.0, 33)
    raw = 1j * proto.dU(grid) @ dagger(proto.U(grid))
    assert np.all(_norms(raw - dagger(raw)) <= 1e-12 * np.maximum(_norms(raw), 1.0))
    stack = adiabatic_hamiltonian(proto, grid)
    for k, s in enumerate(grid):
        one = adiabatic_hamiltonian(proto, float(s))
        assert np.linalg.norm(stack[k] - one) <= 1e-14 * max(1.0, np.linalg.norm(one))
