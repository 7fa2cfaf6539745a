import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from darklind.linalg import (
    _SERIES_THETAS,
    CF4_NODES,
    _cf4_steps,
    _compose_affine,
    _gemm,
    _norms,
    _ordered_product,
    _require_each,
    _scan,
    _simpson,
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


#: 1-norms of the series tests: 0.9 of each entry of the degree table, so every
#: degree is taken, and 1, 10 and 50, which take 2, 6 and 8 squarings
SERIES_NORMS = [0.9 * theta for theta in _SERIES_THETAS] + [1.0, 10.0, 50.0]


def exact_exp(a: np.ndarray) -> np.ndarray:
    """e^A of one matrix from mpmath at 30 digits, rounded to complex128."""
    with mpmath.workdps(30):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=complex)


class TestSeries:
    """``matrix_exp`` of general (n, d, d) stacks: the Taylor series of the norm's degree."""

    @pytest.mark.parametrize("kind", ["complex", "real"])
    @pytest.mark.parametrize("d", [2, 4, 9])
    @pytest.mark.parametrize("norm", SERIES_NORMS, ids=[f"{x:.3g}" for x in SERIES_NORMS])
    def test_matches_a_reference(self, d, norm, kind):
        rng = np.random.default_rng([d, SERIES_NORMS.index(norm)])
        stack = rng.normal(size=(3, d, d))
        if kind == "complex":
            stack = stack + 1j * rng.normal(size=(3, d, d))
        stack *= norm / np.abs(stack).sum(axis=-2).max(axis=-1)[:, None, None]
        out = matrix_exp(stack)
        assert out.dtype == stack.dtype
        if norm <= 1.0:
            # SciPy's Pade approximant is accurate to roundoff here
            reference = np.array([scipy.linalg.expm(a) for a in stack])
            gate = 1e-14
        else:
            # with squarings, SciPy's own error reached 2e-12 on real 2 x 2 stacks of
            # 1-norm 50 (measured against mpmath), so mpmath is the reference; the
            # forward error of e^A grows with |A| (its condition number is at least
            # |A|), measured at most 4e-14 at 1-norm 50
            reference = np.array([exact_exp(a) for a in stack])
            gate = 1e-14 * norm
        for got, expected in zip(out, reference):
            assert np.linalg.norm(got - expected) <= gate * np.linalg.norm(expected)

    def test_real_stacks_stay_real(self, rng):
        # one matrix per branch: symmetric, antisymmetric, general
        a = rng.normal(size=(4, 4))
        stack = np.array([a + a.T, a - a.T, a])
        out = matrix_exp(stack)
        assert out.dtype == np.float64
        for got, matrix in zip(out, stack):
            expected = scipy.linalg.expm(matrix)
            assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


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

    def test_rejects_misshapen_generators(self):
        grid, _ = midpoints(4)
        with pytest.raises(ValueError, match="per grid step"):
            ordered_exponential(np.zeros((4, 3, 2, 2)), grid)
        with pytest.raises(ValueError, match="per grid step"):
            ordered_exponential(np.zeros((3, 2, 2, 2)), grid)


def gauss_points(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform grid of n + 1 points on [0, 1] and its two Gauss points per step, (n, 2, 1, 1)."""
    grid = np.linspace(0.0, 1.0, n + 1)
    nodes = grid[:-1, None] + np.diff(grid)[:, None] * CF4_NODES
    return grid, nodes[..., None, None]


class TestMagnusExponential:
    def test_fourth_order_convergence(self, rng):
        h1 = random_matrix(rng, 2)
        h2 = random_matrix(rng, 2)
        h2 = h2 + dagger(h2)

        def last(n):
            grid, s = gauss_points(n)
            gens = -1j * h2 * np.cos(3.0 * s) + s * s * h1
            return _ordered_product(_cf4_steps(gens, np.diff(grid)))

        exact = last(4096)
        err = [np.linalg.norm(last(n) - exact) for n in (8, 16, 32)]
        ratios = [err[i] / err[i + 1] for i in range(2)]
        for r in ratios:
            assert 12.0 <= r <= 20.0, f"not fourth-order convergence: {ratios}"

    def test_constant_generator_is_exact(self, rng):
        a = random_matrix(rng, 3, scale=0.3)
        grid, _ = gauss_points(5)
        v = _ordered_product(_cf4_steps(np.broadcast_to(a, (5, 2, 3, 3)), np.diff(grid)))
        assert np.linalg.norm(v - scipy.linalg.expm(a)) <= 1e-13


class TestStackProducts:
    @pytest.mark.parametrize("shape", [(7, 4, 3), (2, 5, 4, 3)])
    def test_gemm_stack_times_matrix(self, rng, shape):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = random_matrix(rng, 4)[:3]
        assert _gemm(a, b).shape == shape[:-1] + (4,)
        assert np.abs(_gemm(a, b) - np.matmul(a, b)).max() <= 1e-14

    def test_gemm_matrix_times_stack(self, rng):
        a = random_matrix(rng, 4)[:2]
        b = rng.normal(size=(9, 4, 3)) + 1j * rng.normal(size=(9, 4, 3))
        assert np.abs(_gemm(a, b) - np.matmul(a, b)).max() <= 1e-14

    def test_gemm_on_non_contiguous_views(self, rng):
        a = rng.normal(size=(8, 4, 6)) + 1j * rng.normal(size=(8, 4, 6))
        m = random_matrix(rng, 6)
        view = a[::2, :, ::2]  # strided in two axes
        assert np.abs(_gemm(view, m[::2, :3]) - np.matmul(view, m[::2, :3])).max() <= 1e-14
        assert np.abs(_gemm(m[:4, ::2].T, view) - np.matmul(m[:4, ::2].T, view)).max() <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_pairwise_product_matches_sequential(self, rng, n):
        steps = np.stack([np.stack([matrix_exp(random_matrix(rng, 3, scale=0.3))
                                    for _ in range(2)]) for _ in range(n)])  # (n, 2, 3, 3)
        sequential = np.broadcast_to(np.eye(3), (2, 3, 3))
        for step in steps:
            sequential = step @ sequential
        assert np.abs(_ordered_product(steps) - sequential).max() <= 1e-13

    def test_cf4_steps_give_the_magnus_product(self, rng):
        grid, s = gauss_points(8)
        gens = np.sin(s) * random_matrix(rng, 3)
        steps = _cf4_steps(np.stack([gens, 2.0 * gens], axis=1), np.diff(grid)[:, None])
        assert steps.shape == (8, 2, 3, 3)
        for k, scale in enumerate((1.0, 2.0)):
            expected = _ordered_product(_cf4_steps(scale * gens, np.diff(grid)))
            assert np.abs(_ordered_product(steps[:, k]) - expected).max() <= 1e-13

    def test_cf4_steps_refuse_a_nonfinite_generator(self):
        grid, _ = gauss_points(16)
        gens = np.zeros((16, 2, 2, 2), dtype=complex)
        gens[11, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _cf4_steps(gens, np.diff(grid))


class TestBlockedCumulativeProduct:
    """The cumulative products of ``ordered_exponential`` (one ``_scan``) against sequential ones."""

    @staticmethod
    def sequential(steps, first):
        out = [first]
        for step in steps:
            out.append(step @ out[-1])
        return np.array(out)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 2047, 2048])
    @pytest.mark.parametrize("magnus", [False, True], ids=["midpoint", "cf4"])
    def test_matches_the_sequential_product(self, rng, n, magnus):
        """Midpoint: every cumulative product; CF4: the pairwise ``_ordered_product`` of its steps."""
        grid = np.linspace(0.0, 1.0, n + 1)
        h = random_matrix(rng, 3)
        h = h + dagger(h)
        nodes = grid[:-1, None] + np.diff(grid)[:, None] * (CF4_NODES if magnus else [0.5])
        gens = -1j * np.cos(5.0 * nodes)[..., None, None] * h + random_matrix(rng, 3, 0.1)
        if magnus:
            steps = _cf4_steps(gens, np.diff(grid))
            got = _ordered_product(steps)
            expected = self.sequential(steps, np.eye(3))[-1]
        else:
            gens = gens[:, 0]
            steps = matrix_exp(gens * np.diff(grid)[:, None, None])
            got = ordered_exponential(gens, grid)
            expected = self.sequential(steps, np.eye(3))
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-13

    def test_nonfinite_generator_named_on_a_long_grid(self):
        grid = np.linspace(0.0, 1.0, 2049)
        gens = np.zeros((2048, 2, 2), dtype=complex)
        gens[2000] = np.inf
        phase = 0.5 * (grid[2000] + grid[2001])
        with pytest.raises(ValueError, match=f"non-finite generator at phase {phase}"):
            ordered_exponential(gens, grid)


#: scan lengths: the smallest ones, perfect squares (no padding), primes (the
#: most padding for their size) and anything else up to 300
SCAN_LENGTHS = st.one_of(
    st.sampled_from([1, 2, 3, 4, 9, 16, 144, 289, 5, 7, 13, 97, 293]), st.integers(1, 300)
)


def left_fold(x, combine):
    """The inclusive scan of ``x`` along axis 0, one ``combine(late, early)`` at a time."""
    out = [x[0]]
    for entry in x[1:]:
        out.append(combine(entry, out[-1]))
    return np.stack(out)


@settings(max_examples=60)
@given(n=SCAN_LENGTHS, lead=st.lists(st.integers(1, 3), max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_scan_of_unitaries_matches_the_left_fold(n, lead, seed):
    # random unitaries do not commute, and their products stay of norm one
    rng = np.random.default_rng(seed)
    shape = (n, *lead, 3, 3)
    x = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
    assert np.abs(_scan(x, np.matmul) - left_fold(x, np.matmul)).max() <= 1e-12


@settings(max_examples=60)
@given(n=SCAN_LENGTHS, lead=st.lists(st.integers(1, 3), max_size=2),
       width=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_scan_of_affine_maps_matches_the_left_fold(n, lead, width, seed):
    # [a | b] with 0.5 <= |a| <= 1 and complex b: x -> a x + b composed in order
    rng = np.random.default_rng(seed)
    shape = (n, *lead)
    a = rng.uniform(0.5, 1.0, shape) * np.exp(2j * np.pi * rng.uniform(size=shape))
    b = rng.normal(size=shape + (width,)) + 1j * rng.normal(size=shape + (width,))
    x = np.concatenate([a[..., None], b], axis=-1)
    expected = left_fold(x, _compose_affine)
    got = _scan(x, _compose_affine)
    assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


#: the two Simpson grids of the package: the cycle grid of the frozen-state
#: integral and the spin-3/2 closed form's
SIMPSON_GRIDS = {
    "cycle": lambda gammaT: gammaT * np.linspace(0.0, 1.0, 2049),
    "closed-form": lambda gammaT: np.linspace(0.0, gammaT, 4097),
}


class TestSimpson:
    @pytest.mark.parametrize("gammaT", [37.3, 200.0, 800.0, 12800.0])
    @pytest.mark.parametrize("grid", list(SIMPSON_GRIDS))
    def test_matches_scipy_bit_for_bit(self, grid, gammaT, rng):
        taus = SIMPSON_GRIDS[grid](gammaT)
        real = rng.normal(size=taus.size)
        stack = rng.normal(size=(taus.size, 2, 2)) + 1j * rng.normal(size=(taus.size, 2, 2))
        assert np.array_equal(_simpson(real, taus), scipy.integrate.simpson(real, x=taus))
        assert np.array_equal(_simpson(stack, taus),
                              scipy.integrate.simpson(stack, x=taus, axis=0))

    def test_even_node_count_raises(self):
        with pytest.raises(ValueError, match="odd number of nodes, got 4"):
            _simpson(np.ones(4), np.linspace(0.0, 1.0, 4))


class TestNorms:
    """``_norms`` is ``np.linalg.norm(a, axis=(-2, -1))`` bit for bit, without its dispatch."""

    @pytest.mark.parametrize("shape", [(4, 4), (7, 3, 3), (2, 5, 4, 4), (0, 3, 3), (3, 2, 5)])
    def test_matches_numpy_bit_for_bit(self, shape):
        rng = np.random.default_rng(7)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        expected = np.linalg.norm(a, axis=(-2, -1))
        out = _norms(a)
        assert out.shape == expected.shape and out.dtype == expected.dtype
        assert np.array_equal(out, expected)
        assert np.array_equal(_norms(a.real), np.linalg.norm(a.real, axis=(-2, -1)))

    def test_nan_entries_and_integer_input(self):
        a = np.random.default_rng(8).normal(size=(3, 2, 2)) + 0j
        a[1, 0, 1] = np.nan
        assert np.array_equal(_norms(a), np.linalg.norm(a, axis=(-2, -1)), equal_nan=True)
        assert np.isnan(_norms(a)[1]) and not np.isnan(_norms(a)[[0, 2]]).any()
        ints = np.arange(18).reshape(2, 3, 3)
        assert np.array_equal(_norms(ints), np.linalg.norm(ints, axis=(-2, -1)))


class TestRequireEach:
    def test_passes_when_every_entry_holds(self):
        assert _require_each(np.array(True), 0.5, "bad {}") is None
        assert _require_each(np.ones(3, dtype=bool), np.arange(3.0), "bad {}") is None
        assert _require_each(np.ones(0, dtype=bool), np.ones(0), "bad {}") is None

    def test_names_the_one_entry_of_a_0d_mask(self):
        for s in (1.5, np.nan):
            phase = np.asarray(s)
            with pytest.raises(ValueError, match=f"^bad {s}$"):
                _require_each((0.0 <= phase) & (phase <= 1.0), phase, "bad {}")

    def test_names_the_first_failing_entry_of_a_1d_mask(self):
        phases = np.array([0.5, np.nan, 1.5, 0.2])
        with pytest.raises(ValueError, match="^bad nan$"):
            _require_each((0.0 <= phases) & (phases <= 1.0), phases, "bad {}")
        with pytest.raises(ValueError, match="^bad 1.5$"):
            _require_each(~(phases > 1.0), phases, "bad {}")  # NaN passes this one
