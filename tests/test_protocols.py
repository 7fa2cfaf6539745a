import math

import numpy as np
import pytest

from darklind.effective import dark_space
from darklind.linalg import dagger, matrix_exp
from darklind.protocols import (
    PathSpec,
    custom_protocol,
    fourier_path,
    lab_jump,
    linear_path,
    path_from_descriptor,
    smoothstep_path,
    spin32_protocol,
    spin_operators,
)


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


class TestCustomProtocol:
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
            custom_protocol([bad], [lambda s: s], np.eye(2), 50.0)

    def test_rejects_non_cyclic_path(self):
        _, _, sz = spin_operators(1)
        with pytest.raises(ValueError, match="cyclic"):
            custom_protocol(
                [sz], [lambda s: math.pi * s], np.eye(2), 50.0  # half winding
            )
