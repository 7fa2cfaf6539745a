import numpy as np
import pytest
import scipy.linalg

from darklind.linalg import (
    dagger,
    kernel_basis,
    matrix_exp,
    ordered_exponential,
    pseudo_inverse,
)

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


def random_matrix(rng, dim, scale=1.0):
    return scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


class TestMatrixExp:
    def test_zero_matrix(self):
        assert np.allclose(matrix_exp(np.zeros((4, 4))), np.eye(4), atol=1e-15)

    def test_full_spin_rotation(self):
        # exp(i pi sigma_y) is a rotation by 2 pi on the Bloch sphere: -1
        assert np.allclose(matrix_exp(1j * np.pi * SIGMA_Y), -np.eye(2), atol=1e-12)

    def test_diagonal(self):
        out = matrix_exp(np.diag([-3.0, -3.0]) * 0.5)
        assert np.allclose(out, np.diag([np.exp(-1.5)] * 2), atol=1e-14)

    def test_inverse_property(self, rng):
        for _ in range(5):
            a = random_matrix(rng, 5, scale=1.0)
            a *= 10.0 / max(np.linalg.norm(a), 10.0)
            prod = matrix_exp(a) @ matrix_exp(-a)
            assert np.linalg.norm(prod - np.eye(5)) <= 1e-9

    def test_hermitian_route_matches_pade(self, rng):
        a = random_matrix(rng, 6)
        h = a + dagger(a)
        direct = matrix_exp(h)
        pade = scipy.linalg.expm(h)
        assert np.linalg.norm(direct - pade) <= 1e-10 * np.linalg.norm(direct)

    def test_anti_hermitian_is_unitary(self, rng):
        a = random_matrix(rng, 4)
        g = a - dagger(a)
        u = matrix_exp(g)
        assert np.linalg.norm(dagger(u) @ u - np.eye(4)) <= 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            matrix_exp(np.zeros((0, 0)))

    def test_rejects_nonfinite(self):
        bad = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            matrix_exp(bad)

    def test_stack_matches_each_matrix(self, rng):
        # one matrix per branch: Hermitian, anti-Hermitian, general
        a = random_matrix(rng, 4)
        stack = np.array([a + dagger(a), a - dagger(a), a])
        out = matrix_exp(stack)
        assert out.shape == (3, 4, 4)
        for k in range(3):
            assert np.linalg.norm(out[k] - matrix_exp(stack[k])) <= 1e-14 * np.linalg.norm(out[k])


class TestKernelBasis:
    def test_simple_diagonal(self):
        basis = kernel_basis(np.diag([0.0, 1.0]).astype(complex))
        assert basis.shape == (2, 1)
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-14
        assert abs(basis[1, 0]) < 1e-14

    def test_spin32_jump_kernel(self, spin32_linear):
        basis = kernel_basis(spin32_linear.L_rot)
        assert basis.shape == (4, 2)
        # annihilated and mutually orthonormal
        assert np.linalg.norm(spin32_linear.L_rot @ basis) <= 1e-10
        assert np.linalg.norm(dagger(basis) @ basis - np.eye(2)) <= 1e-12
        # the kernel is the S_z = +-1/2 plane
        span = basis @ dagger(basis)
        expected = np.diag([0.0, 1.0, 1.0, 0.0])
        assert np.linalg.norm(span - expected) <= 1e-12

    def test_full_rank_has_no_kernel(self, rng):
        a = random_matrix(rng, 4) + 4.0 * np.eye(4)
        assert kernel_basis(a).shape == (4, 0)

    def test_residual_bound_on_degenerate_matrix(self, rng):
        a = random_matrix(rng, 6)
        a[:, 0] = a[:, 1]  # rank deficient by construction
        a[:, 2] = 0.3 * a[:, 3] - a[:, 4]
        basis = kernel_basis(a)
        assert basis.shape[1] == 2
        sigma_max = np.linalg.svd(a, compute_uv=False)[0]
        for k in range(basis.shape[1]):
            assert np.linalg.norm(a @ basis[:, k]) <= 10 * 1e-10 * sigma_max

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            kernel_basis(np.eye(2), rel_tol=0.0)


class TestPseudoInverse:
    def test_diagonal(self):
        out = pseudo_inverse(np.diag([2.0, 0.0]).astype(complex))
        assert np.allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_singular_matrix_raises_no_warning(self):
        out = pseudo_inverse(np.diag([4.0, 1e-14, 0.0]).astype(complex))
        assert np.array_equal(out, np.diag([0.25, 0.0, 0.0]))

    def test_projector_is_own_pseudoinverse(self, rng):
        v = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        q, _ = np.linalg.qr(v)
        proj = q @ dagger(q)
        assert np.linalg.norm(pseudo_inverse(proj) - proj) <= 1e-12

    @pytest.mark.parametrize("trial", range(4))
    def test_penrose_identities(self, rng, trial):
        a = random_matrix(rng, 5)
        if trial % 2:
            # make it rank deficient
            a[:, 0] = a[:, 1]
        ap = pseudo_inverse(a)
        assert np.linalg.norm(a @ ap @ a - a) <= 1e-9
        assert np.linalg.norm(ap @ a @ ap - ap) <= 1e-9
        assert np.linalg.norm(a @ ap - dagger(a @ ap)) <= 1e-9
        assert np.linalg.norm(ap @ a - dagger(ap @ a)) <= 1e-9

    def test_spin32_kernel_structure(self, spin32_linear, spin32_ds):
        m = dagger(spin32_linear.L_rot) @ spin32_linear.L_rot
        mp = pseudo_inverse(m)
        # annihilates the dark block, inverts the bright complement
        assert np.linalg.norm(mp @ spin32_ds.projector) <= 1e-12
        p_perp = np.eye(4) - spin32_ds.projector
        assert np.linalg.norm(mp @ m - p_perp) <= 1e-12


def midpoints(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform grid of n + 1 points on [0, 1] and its n midpoints as an (n, 1, 1) column."""
    grid = np.linspace(0.0, 1.0, n + 1)
    return grid, (0.5 * (grid[:-1] + grid[1:]))[:, None, None]


class TestOrderedExponential:
    def test_constant_full_rotation(self):
        grid, _ = midpoints(64)
        vs = ordered_exponential(np.broadcast_to(-2j * np.pi * SIGMA_Y, (64, 2, 2)), grid)
        assert vs.shape == (65, 2, 2)
        assert np.linalg.norm(vs[-1] - np.eye(2)) <= 1e-12
        # halfway through the 2 pi rotation the product is -1
        assert np.linalg.norm(vs[32] + np.eye(2)) <= 1e-12

    def test_zero_generator(self):
        grid, _ = midpoints(8)
        vs = ordered_exponential(np.zeros((8, 3, 3)), grid)
        assert np.allclose(vs, np.eye(3), atol=1e-15)

    def test_unitary_for_anti_hermitian(self, rng):
        h1 = random_matrix(rng, 3)
        h1 = h1 + dagger(h1)
        h2 = random_matrix(rng, 3)
        h2 = h2 + dagger(h2)
        grid, s = midpoints(512)
        gens = -1j * (np.cos(2 * np.pi * s) * h1 + np.sin(4 * np.pi * s) * h2)
        for v in ordered_exponential(gens, grid):
            assert np.linalg.norm(dagger(v) @ v - np.eye(3)) <= 1e-9

    def test_second_order_convergence(self, rng):
        h1 = random_matrix(rng, 2)
        h1 = h1 + dagger(h1)
        h2 = random_matrix(rng, 2)
        h2 = h2 + dagger(h2)

        def last(n):
            grid, s = midpoints(n)
            return ordered_exponential(-1j * (h1 + s * s * h2), grid)[-1]

        exact = last(8192)
        err = [np.linalg.norm(last(n) - exact) for n in (64, 128, 256)]
        ratios = [err[i] / err[i + 1] for i in range(2)]
        for r in ratios:
            assert 3.0 <= r <= 5.0, f"non-quadratic convergence: {ratios}"

    def test_rejects_nonfinite_generator(self):
        grid, s = midpoints(16)
        gens = np.where(s > 0.5, np.nan, 0.0) * np.ones((2, 2))
        with pytest.raises(ValueError, match="phase 0.53125"):
            ordered_exponential(gens, grid)

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            ordered_exponential(np.zeros((0, 2, 2)), np.array([0.0]))
