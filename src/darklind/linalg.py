"""Dense complex linear algebra primitives.

Everything downstream (generators, kernels, holonomies) runs through the four
operations here: matrix exponentials, numerical kernels, Moore-Penrose
pseudoinverses and ordered (path-ordered) exponentials.  All matrices are
dense complex square numpy arrays; dimensions of interest are 4-16.
"""

from __future__ import annotations

from typing import Callable

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
    """Conjugate transpose."""
    return a.conj().T


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
    """Matrix exponential e^A.

    Hermitian and anti-Hermitian inputs (the two cases occurring in the
    dissipative kernel and the unitary evolution respectively) go through an
    eigendecomposition, which is exact up to roundoff; everything else falls
    back to scaling-and-squaring.
    """
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


def ordered_exponential(
    gen: Callable[[float], np.ndarray],
    grid: np.ndarray,
) -> np.ndarray:
    """Path-ordered exponential of a matrix-valued generator on a phase grid.

    Cumulative midpoint-rule products prod_k exp(G(s_k) ds_k), later factors
    applied on the left, i.e. the solution operator of dV/ds = G(s) V from
    grid[0] to every grid point.  Returns an (n, d, d) array whose first
    element is the identity.  Second-order accurate in the grid spacing; for
    anti-Hermitian G each product is unitary up to the discretization error.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be one-dimensional with at least 2 points")
    points = grid.tolist()
    out = None
    for k, (s0, s1) in enumerate(zip(points[:-1], points[1:])):
        s_mid = 0.5 * (s0 + s1)
        g = np.asarray(gen(s_mid), dtype=complex)
        if not np.isfinite(g).all():
            raise ValueError(f"generator returned non-finite matrix at phase {s_mid}")
        if out is None:
            out = np.empty((grid.size,) + g.shape, dtype=complex)
            out[0] = np.eye(g.shape[0])
        out[k + 1] = matrix_exp(g * (s1 - s0)) @ out[k]
    return out
