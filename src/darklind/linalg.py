"""Dense complex linear algebra primitives.

Everything downstream (generators, kernels, holonomies) runs through the four
operations here: matrix exponentials, numerical kernels, Moore-Penrose
pseudoinverses and ordered (path-ordered) exponentials.  All matrices are
dense complex square numpy arrays; dimensions of interest are 4-16.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "matrix_exp",
    "kernel_basis",
    "pseudo_inverse",
    "ordered_exponential",
    "dagger",
    "frobenius",
    "is_hermitian",
]

#: relative Frobenius tolerance below which a matrix counts as (anti-)Hermitian
_HERM_DETECT_TOL = 1e-12


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


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    """True if ``a`` equals its adjoint to ``tol`` relative Frobenius error."""
    scale = max(frobenius(a), 1.0)
    return frobenius(a - dagger(a)) <= tol * scale


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential e^A, of one matrix or of each matrix in an (n, d, d) stack.

    Hermitian and anti-Hermitian inputs (the two cases occurring in the
    dissipative kernel and the unitary evolution respectively) go through an
    eigendecomposition, which is exact up to roundoff; everything else falls
    back to scaling-and-squaring.  In a stack each matrix takes its own branch.
    """
    if np.ndim(a) == 3:
        return _matrix_exp_stack(a)
    a = _as_square(a)
    scale = max(frobenius(a), 1.0)
    if frobenius(a - dagger(a)) <= _HERM_DETECT_TOL * scale:
        w, v = np.linalg.eigh(a)
        return (v * np.exp(w)) @ dagger(v)
    if frobenius(a + dagger(a)) <= _HERM_DETECT_TOL * scale:
        # a = iB with B Hermitian
        w, v = np.linalg.eigh(-1j * a)
        return (v * np.exp(1j * w)) @ dagger(v)
    return scipy.linalg.expm(a)


def _matrix_exp_stack(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.shape[1] != a.shape[2] or a.shape[1] == 0:
        raise ValueError(f"matrix stack must hold square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a.real) & np.isfinite(a.imag)):
        raise ValueError("matrix stack contains non-finite entries")
    scale = np.maximum(_norms(a), 1.0)
    herm = _norms(a - dagger(a)) <= _HERM_DETECT_TOL * scale
    anti = ~herm & (_norms(a + dagger(a)) <= _HERM_DETECT_TOL * scale)
    out = np.empty_like(a)
    if herm.any():
        w, v = np.linalg.eigh(a[herm])
        out[herm] = (v * np.exp(w)[:, None, :]) @ dagger(v)
    if anti.any():
        w, v = np.linalg.eigh(-1j * a[anti])
        out[anti] = (v * np.exp(1j * w)[:, None, :]) @ dagger(v)
    general = ~(herm | anti)
    if general.any():
        out[general] = scipy.linalg.expm(a[general])
    return out


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of a matrix, or of each matrix in a stack."""
    return np.linalg.norm(a, axis=(-2, -1))


def kernel_basis(a: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the right null space of ``a``.

    Returns a (dim, k) array whose columns are the right singular vectors with
    singular value below ``rel_tol`` times the largest one.  k may be zero.
    """
    a = _as_square(a)
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    _, s, vh = np.linalg.svd(a)
    if s[0] == 0.0:
        return np.eye(a.shape[0], dtype=complex)
    null_mask = s < rel_tol * s[0]
    return dagger(vh[null_mask])


def pseudo_inverse(a: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``rel_tol`` times the largest are treated as exact
    zeros, so the null space (the dark space, for L^dag L) stays annihilated.
    """
    a = _as_square(a)
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    u, s, vh = np.linalg.svd(a)
    if s[0] == 0.0:
        return np.zeros_like(a)
    inv = np.zeros_like(s)
    np.divide(1.0, s, out=inv, where=s >= rel_tol * s[0])
    return dagger(vh) @ (inv[:, None] * dagger(u))


def ordered_exponential(generators: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Path-ordered exponential of a matrix-valued generator on a phase grid.

    ``generators`` holds G at the midpoints of ``grid``, an (n - 1, d, d)
    stack.  Returns the cumulative midpoint-rule products prod_k exp(G_k ds_k),
    later factors applied on the left, i.e. the solution operator of
    dV/ds = G(s) V from grid[0] to every grid point, as an (n, d, d) array
    whose first element is the identity.  Second-order accurate in the grid
    spacing; for anti-Hermitian G each product is unitary up to the
    discretization error.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be one-dimensional with at least 2 points")
    generators = np.asarray(generators, dtype=complex)
    if generators.ndim != 3 or generators.shape[0] != grid.size - 1:
        raise ValueError(
            f"need one generator per grid step, got shape {generators.shape} for {grid.size} points"
        )
    finite = np.isfinite(generators).all(axis=(1, 2))
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"non-finite generator at phase {0.5 * (grid[k] + grid[k + 1])}")
    steps = matrix_exp(generators * np.diff(grid)[:, None, None])
    out = np.empty((grid.size,) + generators.shape[1:], dtype=complex)
    out[0] = np.eye(generators.shape[1])
    for k, step in enumerate(steps):
        out[k + 1] = step @ out[k]
    return out
