"""Dense complex linear algebra primitives.

Everything downstream (generators, kernels, holonomies) runs through the four
operations here: matrix exponentials, numerical kernels, Moore-Penrose
pseudoinverses and ordered (path-ordered) exponentials.  All matrices are
dense square numpy arrays, complex except the real superoperators of the
reduced propagator, which the exponential keeps real; dimensions of interest
are 4-16.  The greedy column pivoting of the dark-space gauge and the
composite Simpson rule of the frozen-state integrals live here too, so that
the package runs on NumPy alone.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "matrix_exp",
    "kernel_basis",
    "pseudo_inverse",
    "ordered_exponential",
    "dagger",
    "frobenius",
]

#: relative Frobenius tolerance below which a matrix counts as (anti-)Hermitian
_HERM_DETECT_TOL = 1e-12
#: singular values below this fraction of the largest count as exact zeros
_SINGULAR_REL_TOL = 1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def _as_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"{name} has dimension zero")
    if not np.all(np.isfinite(a.real) & np.isfinite(a.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential e^A, of one matrix or of each matrix in an (n, d, d) stack.

    Hermitian and anti-Hermitian inputs (the latter are the unitary steps of
    the holonomy and the gauge transforms) go through an eigendecomposition,
    which is exact up to roundoff; everything else (the dissipative
    superoperators of the reduced equation) goes through a Taylor series with
    scaling and squaring (``_expm_series``).  Each matrix of a stack takes its
    own branch; one matrix is a stack of one.  A real stack gives a real
    stack (the reduced propagator's superoperators in Hermitian coordinates),
    anything else a complex one.
    """
    if np.ndim(a) == 3:
        return _matrix_exp_stack(a)
    return _matrix_exp_stack(_as_square(a)[None])[0]


def _matrix_exp_stack(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a = a.astype(np.result_type(a, float), copy=False)
    if a.shape[1] != a.shape[2] or a.shape[1] == 0:
        raise ValueError(f"matrix stack must hold square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix stack contains non-finite entries")
    skew, sym = _norms(a - dagger(a)), _norms(a + dagger(a))
    # |A|^2 = (|A + A^dag|^2 + |A - A^dag|^2) / 4, the two parts being orthogonal
    scale = np.maximum(0.5 * np.sqrt(skew * skew + sym * sym), 1.0)
    herm = skew <= _HERM_DETECT_TOL * scale
    anti = ~herm & (sym <= _HERM_DETECT_TOL * scale)
    out = np.empty_like(a)
    if herm.any():
        w, v = np.linalg.eigh(a[herm])
        out[herm] = (v * np.exp(w)[:, None, :]) @ dagger(v)
    if anti.any():
        w, v = np.linalg.eigh(-1j * a[anti])
        rotations = (v * np.exp(1j * w)[:, None, :]) @ dagger(v)
        # e^A of a real antisymmetric A is a real rotation
        out[anti] = rotations if np.iscomplexobj(out) else rotations.real
    general = ~(herm | anti)
    if general.any():
        out[general] = _expm_series(a[general])
    return out


#: Taylor degree m of the general branch by the 1-norm theta of the scaled matrices:
#: entry m - 1 is the largest theta whose truncation error, sum over k > m of
#: theta^k / k!, is below 1e-17.  Each matrix is scaled to a 1-norm of at most
#: _SERIES_THETA first, where degree 12 suffices.
_SERIES_THETAS = (4.47e-9, 3.91e-6, 1.24e-4, 1.04e-3, 4.39e-3, 1.26e-2,
                  2.82e-2, 5.36e-2, 9.04e-2, 0.140, 0.203, 0.279)
_SERIES_THETA = 0.25


def _expm_series(a: np.ndarray) -> np.ndarray:
    """e^A for each matrix of a stack: a Taylor series of A/2^s, squared s times.

    s is the smallest power of two bringing the 1-norm of A to 1/4 or below,
    chosen per matrix.  The degree is the one for the largest scaled 1-norm
    of the stack (``_SERIES_THETAS``): 9, in 4 products, for the 1-norms below
    0.09 of the reduced propagator's steps.  The series is summed by Paterson and Stockmeyer's scheme
    (SIAM J. Comput. 2, 60 (1973)): the powers A^2 .. A^q, q = ceil(sqrt m),
    and Horner's rule in A^q over blocks of q coefficients, about 2 sqrt(m)
    products.  The dtype of the stack is kept.
    """
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norms, _SERIES_THETA) / _SERIES_THETA)).astype(int)
    if squarings.any():
        a = a / np.ldexp(1.0, squarings)[:, None, None]
    degree = 1 + int(np.searchsorted(_SERIES_THETAS, np.ldexp(norms, -squarings).max(initial=0.0)))
    q = math.isqrt(degree - 1) + 1
    powers = [None, a]
    for _ in range(q - 1):
        powers.append(powers[-1] @ a)
    n = a.shape[-1]

    def block(first, last):
        """sum of A^i / (first + i)! over i = 0 .. last, the identity added on the diagonal."""
        out = powers[1] * (1.0 / math.factorial(first + 1))
        for i in range(2, last + 1):
            out += powers[i] * (1.0 / math.factorial(first + i))
        out.reshape(-1, n * n)[:, ::n + 1] += 1.0 / math.factorial(first)
        return out

    top = -(-degree // q) - 1  # the last block, holding the coefficients of A^(top q) .. A^degree
    out = block(top * q, degree - top * q)
    for j in range(top - 1, -1, -1):
        nxt = block(j * q, q - 1)
        nxt += powers[q] @ out
        out = nxt
    for j in range(squarings.max(initial=0)):
        more = squarings > j
        out[more] = out[more] @ out[more]
    return out


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of each matrix in a stack.

    NumPy's own formula for ``np.linalg.norm(a, axis=(-2, -1))``, bit for bit,
    without that function's dispatch: it runs on every step attempt.
    """
    a = np.asarray(a)
    if not issubclass(a.dtype.type, (np.inexact, np.object_)):
        a = a.astype(float)
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=(-2, -1)))


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a stack and one matrix, in either order, as a single matrix product.

    ``np.matmul`` multiplies a stack by a fixed matrix one small product at a
    time; here the stack's matrices are laid side by side, so one GEMM does
    them all (about 8x faster on 256 4x4 matrices).  With ``b`` one matrix,
    ``a`` may have any number of leading axes; with ``a`` one matrix, ``b`` is
    an (n, q, r) stack and the result a strided (n, p, r) view.  Every reshape
    names its sizes, so empty stacks, and empty matrices, pass through.
    """
    if b.ndim == 2:
        rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1])
        return (rows @ b).reshape(a.shape[:-1] + b.shape[-1:])
    n, q, r = b.shape
    return (a @ b.transpose(1, 0, 2).reshape(q, n * r)).reshape(a.shape[0], n, r).transpose(1, 0, 2)


def _require_each(ok: np.ndarray, s, message: str) -> None:
    """Raise ValueError with ``message`` naming the first entry of ``s`` failing ``ok``.

    ``ok`` is a boolean array of the shape of ``s``, or one boolean for one entry.
    """
    if np.asarray(ok).all():
        return
    bad = np.flatnonzero(~np.atleast_1d(ok))
    raise ValueError(message.format(np.atleast_1d(s)[bad[0]]))


def kernel_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right null space of ``a``.

    Returns a (dim, k) array whose columns are the right singular vectors with
    singular value below ``_SINGULAR_REL_TOL`` times the largest one.  k may
    be zero.
    """
    a = _as_square(a)
    _, s, vh = np.linalg.svd(a)
    if s[0] == 0.0:
        return np.eye(a.shape[0], dtype=complex)
    null_mask = s < _SINGULAR_REL_TOL * s[0]
    return dagger(vh[null_mask])


def _pivot_columns(a: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k columns of ``a`` that greedy column pivoting picks, in pick order.

    The pivot rule of LAPACK's geqp3 (column-pivoted QR): each step takes the
    column of largest residual norm, the first in the current order on ties,
    swaps it into the next position and projects its direction out of every
    column.
    """
    residual = np.array(a, dtype=complex)
    order = np.arange(residual.shape[1])
    for i in range(k):
        norms = np.linalg.norm(residual[:, order[i:]], axis=0)
        j = i + int(np.argmax(norms))
        order[[i, j]] = order[[j, i]]
        q = residual[:, order[i]] / norms[j - i]
        residual -= np.outer(q, q.conj() @ residual)
    return order[:k]


def pseudo_inverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``_SINGULAR_REL_TOL`` times the largest are treated
    as exact zeros, so the null space (the dark space, for L^dag L) stays
    annihilated.
    """
    a = _as_square(a)
    u, s, vh = np.linalg.svd(a)
    if s[0] == 0.0:
        return np.zeros_like(a)
    inv = np.zeros_like(s)
    np.divide(1.0, s, out=inv, where=s >= _SINGULAR_REL_TOL * s[0])
    return dagger(vh) @ (inv[:, None] * dagger(u))


def ordered_exponential(generators: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Path-ordered exponential of a matrix-valued generator on a phase grid.

    ``generators`` holds G at the midpoints of ``grid``, an (n - 1, d, d)
    stack, for the second-order midpoint rule exp(G_k ds_k).  Returns the
    cumulative products, later factors applied on the left: the solution
    operators of dV/ds = G(s) V with V = 1 at grid[0], at every grid point,
    as an (n, d, d) array.  For anti-Hermitian G each product is unitary up
    to roundoff.  The fourth-order CF4 steps of the reduced propagator are
    ``_cf4_steps``.
    """
    return _prefix_products(_ordered_steps(generators, grid))


def _ordered_steps(generators: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The (n - 1, d, d) midpoint steps exp(G_k ds_k) of ``ordered_exponential``.

    The arguments are checked first; a non-finite generator raises
    ValueError naming its phase, the midpoint of its step.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be one-dimensional with at least 2 points")
    generators = np.asarray(generators, dtype=complex)
    if generators.ndim != 3 or generators.shape[0] != grid.size - 1:
        raise ValueError(
            f"need one generator per grid step, got shape {generators.shape} for {grid.size} points"
        )
    finite = np.isfinite(generators).all(axis=(-2, -1))
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"non-finite generator at phase {0.5 * (grid[k] + grid[k + 1])}")
    return matrix_exp(generators * np.diff(grid)[:, None, None])


def _scan(x: np.ndarray, combine: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Inclusive scan of ``x`` along axis 0 under an associative ``combine(late, early)``.

    Entry k of the result is x[k] * ... * x[1] * x[0], later entries joined
    on the left; ``combine`` acts on stacks along the leading axes.  The n
    entries are cut into blocks of floor(sqrt(n)), the last one padded with
    copies of the last entry (no earlier prefix reads them, so no identity is
    needed).  A running prefix within each block advances all blocks at once,
    the block totals are joined in sequence, and one stacked ``combine``
    applies each block's carry: O(n) work in about 2 sqrt(n) Python iterations.
    An empty ``x`` (n = 0, or entries of size 0) gives an empty scan.
    """
    n = x.shape[0]
    size = max(1, math.isqrt(n))
    blocks = -(-n // size)
    pad = np.broadcast_to(x[-1:], (blocks * size - n,) + x.shape[1:])
    running = np.concatenate([x, pad]).reshape((blocks, size) + x.shape[1:])
    for j in range(1, size):
        running[:, j] = combine(running[:, j], running[:, j - 1])
    carries = running[:-1, -1].copy()
    for i in range(1, blocks - 1):
        carries[i] = combine(carries[i], carries[i - 1])
    running[1:] = combine(running[1:], carries[:, None])
    return running.reshape((blocks * size,) + x.shape[1:])[:n]


def _prefix_products(steps: np.ndarray) -> np.ndarray:
    """The (n + 1, d, d) products steps[k-1] ... steps[0], k = 0..n, of the (n, d, d) steps.

    Entry 0 is the identity, the rest one ``_scan``; the dtype is the steps'.
    """
    out = np.empty((steps.shape[0] + 1,) + steps.shape[1:], dtype=steps.dtype)
    out[0] = np.eye(steps.shape[-1])
    out[1:] = _scan(steps, np.matmul)
    return out


def _compose_affine(late: np.ndarray, early: np.ndarray) -> np.ndarray:
    """The map x -> a_l (a_e x + b_e) + b_l of [a_l | b_l] after [a_e | b_e], along the last axis."""
    out = late[..., :1] * early
    out[..., 1:] += late[..., 1:]
    return out


#: commutator-free Magnus CF4 (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009);
#: Alvermann & Fehske, J. Comput. Phys. 230 (2011)): the two Gauss points of a
#: step as fractions of it, and the weights a1, a2 of its exponentials
CF4_NODES = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])
CF4_WEIGHTS = np.array([0.25 - np.sqrt(3.0) / 6.0, 0.25 + np.sqrt(3.0) / 6.0])


def _cf4_steps(generators: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """CF4 step exp(h (a1 G1 + a2 G2)) exp(h (a2 G1 + a1 G2)) of each Gauss-point pair.

    The fourth-order commutator-free Magnus step, a1,2 = 1/4 -+ sqrt(3)/6,
    with G1, G2 the generator at the step's Gauss points t + CF4_NODES h.
    ``generators`` is a (..., 2, d, d) stack of pairs (G1, G2) and ``lengths``
    the (...) step lengths h; returns the (..., d, d) steps, whose prefix
    products the reduced propagator takes by ``_prefix_products``.
    """
    g1, g2 = generators[..., 0, :, :], generators[..., 1, :, :]
    a1, a2 = CF4_WEIGHTS
    h = lengths[..., None, None]
    # both exponents of every step in one stack, so one matrix_exp call
    both = np.stack([h * (a1 * g1 + a2 * g2), h * (a2 * g1 + a1 * g2)])
    first, second = matrix_exp(both.reshape((-1,) + both.shape[-2:])).reshape(both.shape)
    return first @ second


def _ordered_product(steps: np.ndarray) -> np.ndarray:
    """steps[n-1] ... steps[1] steps[0] along axis 0, for every stack along the others.

    Neighbours are multiplied pairwise, so the n - 1 products take log2(n)
    batched passes rather than n sequential ones.
    """
    while len(steps) > 1:
        paired = steps[1::2] @ steps[0:len(steps) - 1:2]
        steps = np.concatenate([paired, steps[-1:]]) if len(steps) % 2 else paired
    return steps[0]


def _simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite Simpson integral of ``y`` along axis 0 over the increasing nodes ``x``.

    Each pair of steps (h0, h1) gets the parabola through its three nodes,
    with the operations of SciPy's ``simpson`` (``_basic_simpson`` on the
    grid's own step lengths), so the results agree bit for bit.  ``x`` is
    1-D with one node per entry of ``y``, and their number must be odd: an
    even number raises ValueError.
    """
    n = y.shape[0]
    if n % 2 == 0:
        raise ValueError(f"Simpson's rule needs an odd number of nodes, got {n}")
    h = np.diff(np.asarray(x, dtype=float).reshape((n,) + (1,) * (y.ndim - 1)), axis=0)
    h0, h1 = h[0:n - 2:2], h[1:n - 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    parts = (y[0:n - 2:2] * (2.0 - 1.0 / ratio) + y[1:n - 1:2] * (hsum * (hsum / (h0 * h1)))
             + y[2:n:2] * (2.0 - ratio))
    return np.sum(hsum / 6.0 * parts, axis=0)
