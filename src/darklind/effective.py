"""Effective dynamics inside the rotating dark space.

The slow manifold machinery: dark-space extraction with a deterministic
basis gauge, the adiabatic Hamiltonian i (dU/ds) U^dag and its dark-space
block, the memory kernel X_tau (exact integral and adiabatic pseudoinverse
limits), the effective jump operator P0 L X_tau P0, the reduced evolution
equation with its unitary Berry term at order 1/(gamma T) and dissipative
term at order 1/(gamma T)^2, the Berry holonomy, and the reconstruction map
from the reduced state back to the full Hilbert space.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .engine import (
    ConvergenceError,
    LindbladGenerator,
    _dissipator,
    check_invariants,
    validate_density_matrix,
    vectorize,
)
from .linalg import (
    CF4_NODES,
    _cf4_steps,
    _compose_affine,
    _gemm,
    _norms,
    _ordered_product,
    _ordered_steps,
    _pivot_columns,
    _prefix_products,
    _require_each,
    _scan,
    _simpson,
    dagger,
    frobenius,
    kernel_basis,
    ordered_exponential,
    pseudo_inverse,
)
from .protocols import Protocol, _phases, lab_jump

__all__ = [
    "DarkSpace",
    "NoDarkSpaceError",
    "dark_space",
    "adiabatic_hamiltonian",
    "projected_hamiltonian",
    "x_tau_integral",
    "x_tau_adiabatic",
    "c_tau",
    "c_tau_ode_residual",
    "effective_jump",
    "berry_holonomy",
    "evolve_effective",
    "end_of_cycle_state",
    "reconstruct_full_state",
    "lab_generator",
    "rotating_generator",
    "embed_dark",
    "project_dark",
]

#: decay exponent beyond which the memory kernel is numerically zero
_KERNEL_CUTOFF_EXPONENT = 90.0
#: tolerances of the quadrature oracle, and the subintervals it may add to
#: those its breakpoints make
_QUAD_TOL = 1e-10
_QUAD_SPLITS = 400

#: phases per vectorised evaluation of the adiabatic Hamiltonian on a grid, CF4
#: steps per block of the reduced propagator, and cycle steps per chunk by which
#: a cycle record grows; bounds the temporaries, each block being reduced to its
#: small result before the next one is formed
_PHASE_BLOCK = 256

#: uniform steps of the cycle grid, gammaT np.linspace(0, 1, _FROZEN_GRID + 1): the
#: nodes of every cycle record (``_CycleRecord``), so of every kernel query, of
#: the frame jump series and V_end (``_CycleRecord.frame``) and its frozen-state
#: integral, and, cut at tau, of the holonomy
_FROZEN_GRID = 2048
#: step of the finite-difference stencil of ``c_tau_ode_residual``
_FD_STEP = 0.05
#: Frobenius norm of the part of a full-space initial state outside the dark space
_LEAK_TOL = 1e-10
#: relative Frobenius size of P_perp L P_perp up to which a jump counts as feeding
#: the dark space alone (measured at most 8.5e-16, on a tilted spin-3/2 jump)
_BRIGHT_FEED_TOL = 1e-10
#: fraction of max(largest rate of L^dag L, 1) that every bright rate must exceed
_BRIGHT_RATE_TOL = 1e-10

#: a dark-space gauge: a 1-D array of n phases s -> the two (n, dim, dim) stacks
#: W(s) and i W'(s) W(s)^dag, W unitary and commuting with P0
Gauge = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class NoDarkSpaceError(RuntimeError):
    """The jump operator has a trivial kernel."""


@dataclass(frozen=True)
class DarkSpace:
    """Orthonormal dark basis, its projector, and the dark dimension.

    ``basis`` holds the kernel vectors of the jump operator as columns, in a
    deterministic gauge (pivot rows chosen by greedy column pivoting, polar-rotated
    so the pivot block is Hermitian positive); reduced operators produced
    against this basis are reproducible run to run.
    """

    basis: np.ndarray
    projector: np.ndarray
    d: int


def dark_space(L: np.ndarray) -> DarkSpace:
    """Extract the dark space (kernel) of a jump operator."""
    L = np.asarray(L, dtype=complex)
    raw = kernel_basis(L)
    d = raw.shape[1]
    if d == 0:
        raise NoDarkSpaceError("jump operator has no dark space")
    # fix the gauge: pick d well-conditioned pivot rows, rotate by the polar
    # factor of the pivot block so that it becomes Hermitian positive definite
    pivots = np.sort(_pivot_columns(dagger(raw), d))
    w, _, vh = np.linalg.svd(raw[pivots, :], full_matrices=False)
    basis = raw @ dagger(w @ vh)
    projector = basis @ dagger(basis)
    return DarkSpace(basis=basis, projector=projector, d=d)


def embed_dark(ds: DarkSpace, rho_d: np.ndarray) -> np.ndarray:
    """Embed a reduced dark-block matrix into the full Hilbert space."""
    return ds.basis @ rho_d @ dagger(ds.basis)


def project_dark(ds: DarkSpace, rho: np.ndarray) -> np.ndarray:
    """Dark-block of a full-space matrix, expressed in the dark basis."""
    return dagger(ds.basis) @ rho @ ds.basis


def adiabatic_hamiltonian(protocol: Protocol, s) -> np.ndarray:
    """Effective Hamiltonian i (dU/ds) U^dag generated by the frame rotation.

    O(1) in the cycle duration by construction: the adiabatic prefactor
    1/(gamma T) is applied at the evolution layer, not here.  Uses the
    protocol's analytic derivative ``dU``.  For a 1-D array of n phases it
    returns the (n, dim, dim) stack, for one phase one matrix; either way U
    and dU are called once each on the phases as a 1-D array.  Every phase
    is checked, and a failure names the first bad one.
    """
    phases = _phases(s)
    flat = phases.reshape(-1)
    dim = protocol.dim
    stack = (flat.size, dim, dim)
    u = _phase_stack(protocol.U, flat, stack, "U")
    # [U; dU] U^dag in one product; for a square U, |U U^dag - 1| = |U^dag U - 1|
    both = np.concatenate([u, _phase_stack(protocol.dU, flat, stack, "dU")], axis=1) @ dagger(u)
    _require_each(_norms(both[:, :dim] - np.eye(dim)) <= 1e-8, flat, "U({}) is not unitary")
    h = 1j * both[:, dim:]
    _require_each(
        _norms(h - dagger(h)) <= 1e-8 * np.maximum(_norms(h), 1.0), flat,
        "effective Hamiltonian not Hermitian at s={}",
    )
    h = 0.5 * (h + dagger(h))
    return h if phases.ndim else h[0]


def _phase_stack(fn: Callable, s: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """fn(s) for a phase array, which must be the stack of ``shape``."""
    out = np.asarray(fn(s))
    if out.shape != shape:
        raise ValueError(f"{name} returned shape {out.shape} for {s.size} phases, expected {shape}")
    return out


def projected_hamiltonian(h: np.ndarray, ds: DarkSpace) -> np.ndarray:
    """Dark-space block P0 H P0, as a d x d matrix in the dark basis."""
    return project_dark(ds, np.asarray(h, dtype=complex))


def _node_blocks(record: _CycleRecord, s: np.ndarray) -> np.ndarray:
    """Drive and dark block of the adiabatic Hamiltonian at phases s, in the frame of ``record``.

    H is evaluated in blocks of _PHASE_BLOCK phases (one U and one dU call
    each), and taken as it is without a gauge, else as H^W = W H W^dag +
    i W' W^dag (``record.gauge``).  The recurrences' drive rows of H^W B
    and B^dag H^W B come from one GEMM on each side (``record.rows``).
    Returns the (n, recurrences + d, d) rows: the recurrences' drives, then
    the dark block; each reader slices the rows it needs.
    """
    def block(t):
        h = adiabatic_hamiltonian(record.protocol, t)
        if record.gauge is not None:
            w, potential = record.gauge(t)
            h = w @ h @ dagger(w) + potential
        return _gemm(record.rows, _gemm(h, record.ds.basis))

    return _blockwise(block, (len(record.rows), record.ds.d), s)


def _check_taus(protocol: Protocol, tau) -> None:
    """Raise ValueError naming the first of one tau or a 1-D array that is not in [0, gammaT].

    NaN and infinities fail; 1e-9 of slack is allowed above gammaT.  An array
    of more dimensions raises ValueError too.
    """
    t = np.asarray(tau, dtype=float)
    if t.ndim > 1:
        raise ValueError(f"tau must be one time or a 1-D array, got shape {t.shape}")
    _require_each((0.0 <= t) & (t <= protocol.gammaT + 1e-9), t, "tau={} outside [0, gammaT]")


def _check_bright_feed(protocol: Protocol, ds: DarkSpace) -> None:
    """Raise ValueError when the jump feeds the bright space back into itself, for d >= 2.

    The reduced theory takes every jump out of the bright space to land in
    the dark space, ell = B^dag L X B with X bright: P_perp L P_perp = 0, as
    for the effective operators of Reiter and Sorensen (PRA 85, 032111).
    A jump with |P_perp L P_perp|_F above _BRIGHT_FEED_TOL of |L|_F breaks
    that, and the error gives the ratio.  With d = 1 the reduced state has
    nothing to lose, so any jump passes.
    """
    if ds.d < 2:
        return
    L = protocol.L_rot
    perp = np.eye(protocol.dim) - ds.projector
    feed, size = frobenius(perp @ L @ perp), frobenius(L)
    if feed > _BRIGHT_FEED_TOL * size:
        raise ValueError(
            f"the jump feeds the bright space back into itself: |P_perp L P_perp|_F / |L|_F = "
            f"{feed / size:.3g} > {_BRIGHT_FEED_TOL:g}, outside the reduced theory"
        )


def _one_time(tau) -> None:
    """Raise ValueError if tau is an array of times rather than one time."""
    if np.ndim(tau):
        raise ValueError(f"tau must be one time, got shape {np.shape(tau)}")


def _window_start(tau, rate):
    """Start of the kernel window at tau for one decay rate, where the decay reaches e^-90."""
    return np.maximum(0.0, tau - 2.0 * _KERNEL_CUTOFF_EXPONENT / rate)


def _cycle_grid(gammaT: float) -> np.ndarray:
    """The cycle grid gammaT np.linspace(0, 1, _FROZEN_GRID + 1), the nodes of every kernel query."""
    return gammaT * np.linspace(0.0, 1.0, _FROZEN_GRID + 1)


def x_tau_integral(protocol: Protocol, ds: DarkSpace, tau) -> np.ndarray:
    """Memory kernel X_tau = int_0^tau ds e^{L^dag L (s - tau)/2} P_perp H_s P0.

    The adaptive-quadrature oracle of the kernel, called in the package only
    by ``c_tau_ode_residual``; every other query runs the exact-decay
    recurrence (``_x_of``).  ``tau`` is one time, giving a dim x dim matrix,
    or a 1-D array of n times, giving the (n, dim, dim) stack; a time outside
    [0, gammaT] raises ValueError naming it.  The eigenmodes of L^dag L and
    the drive are those of the protocol's cycle record (``_cycle_record``),
    whose kernel blocks the oracle never reads; so a jump that feeds the
    bright space back into itself with d >= 2 raises ValueError there
    (``_check_bright_feed``), as for every reader of the record.

    The decay is exact per eigenmode of L^dag L (time independent in the
    rotating frame), and each member's window starts where the exponential
    has decayed below machine relevance (``_window_start``).  One
    ``quad_vec`` per group of equal rates integrates every member at once:
    its integrand is the vector over members k of 1[t_lo_k <= s <= tau_k]
    e^{rate (s - tau_k)/2} drive(s), and every tau_k and t_lo_k is a
    breakpoint.  The tolerances are 1e-10 absolute and relative in the max
    norm.  A ``quad_vec`` that ends short of them raises ``ConvergenceError``
    naming the window, its status message and the error estimate.

    The drive and the weights are recorded, then evaluated: the breakpoints
    put almost every node on the initial panels, so the same ``quad_vec``
    call over the same window and breakpoints, run first on a zero
    integrand, asks for those nodes (and for one subdivision's).
    ``_CycleRecord.drive`` evaluates them all in one array call, every phase
    checked, and the window weights of every member come in one array pass
    per block of _PHASE_BLOCK recorded nodes, the current block alone being
    kept.  The integrand looks each node up by its float value and
    multiplies its weights into its drive; a node not recorded (a later
    subdivision's) is evaluated alone.
    """
    import scipy.integrate  # only this oracle needs SciPy: the package imports on NumPy alone

    _check_taus(protocol, tau)
    taus = np.asarray(tau, dtype=float).reshape(-1)
    record = _cycle_record(protocol, ds)
    reduced = np.zeros((taus.size, record.rates.size, ds.d), dtype=complex)
    # X_0 = 0: without a positive time there is nothing to integrate
    for rate in np.unique(np.round(record.rates, 12)) if taus.any() else ():
        group = np.abs(record.rates - rate) < 1e-9 * max(rate, 1.0)
        t_lo = _window_start(taus, rate)
        a, b = t_lo.min(), taus.max()
        points = np.unique(np.concatenate([t_lo, taus]))
        limit = _QUAD_SPLITS + points.size
        nodes = []

        def remember(s):
            nodes.append(s)
            return 0.0

        scipy.integrate.quad_vec(remember, a, b, limit=limit, points=points)
        recorded = np.array(nodes)
        index = {node: k for k, node in enumerate(nodes)}
        # real and imaginary parts side by side: a real vector for quad_vec
        drives = record.drive(recorded)[:, group].view(float)
        held = {}  # the weights of the current block of recorded nodes, by block number

        def weights(s):
            """The (n, members) window weights at n nodes s.

            Member k's weight is 1[t_lo_k <= s <= tau_k] e^{rate (s - tau_k)/2}.
            """
            s = s[:, None]
            inside = (t_lo <= s) & (s <= taus)
            return inside * np.exp(0.5 * rate * np.minimum(s - taus, 0.0))

        def integrand(s):
            k = index.get(s)
            if k is None:
                node = np.array([s])
                return weights(node)[0][:, None, None] * record.drive(node)[0, group].view(float)
            b, i = divmod(k, _PHASE_BLOCK)
            if b not in held:
                held.clear()
                held[b] = weights(recorded[b * _PHASE_BLOCK:(b + 1) * _PHASE_BLOCK])
            return held[b][i][:, None, None] * drives[k]

        res, estimate, info = scipy.integrate.quad_vec(
            integrand, a, b, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, norm="max",
            limit=limit, points=points, full_output=True,
        )
        if info.status != 0:
            target = _QUAD_TOL * max(1.0, np.abs(res).max())
            raise ConvergenceError(a, b, estimate, target, f"in quad_vec: {info.message}")
        reduced[:, group, :] = res.view(complex)
    x = record.modes @ reduced @ dagger(ds.basis)
    return x if np.ndim(tau) else x[0]


def x_tau_adiabatic(protocol: Protocol, ds: DarkSpace, tau) -> np.ndarray:
    """Adiabatic limit of the memory kernel, 2 (L^dag L)^+ P_perp H_tau P0.

    One tau gives a dim x dim matrix, a 1-D array (or list) of n times the
    (n, dim, dim) stack.  A tau that is not a number in [0, gammaT] (1e-9
    slack above) raises ValueError naming the first such one.
    """
    _check_taus(protocol, tau)
    m = dagger(protocol.L_rot) @ protocol.L_rot
    h = adiabatic_hamiltonian(protocol, np.asarray(tau, dtype=float) / protocol.gammaT)
    p_perp = np.eye(protocol.dim) - ds.projector
    return 2.0 * pseudo_inverse(m) @ p_perp @ h @ ds.projector


def c_tau(protocol: Protocol, ds: DarkSpace, tau, source: str = "integral") -> np.ndarray:
    """Hermitian kernel C_tau = X_tau + X_tau^dag, at one tau or a 1-D array of them.

    X_tau = U_b Y B^dag from its blocks Y in the mode coordinates of the
    protocol's cycle record, as ``effective_jump`` reads them (``_x_of``); an
    array gives the (n, dim, dim) stack.
    """
    record, _, y = _x_of(protocol, ds, tau, source)
    x = record.modes @ y @ dagger(ds.basis)
    c = x + dagger(x)
    return c if np.ndim(tau) else c[0]


def _x_of(protocol: Protocol, ds: DarkSpace, tau, source: str) -> tuple:
    """The protocol's cycle record, the times and the kernel blocks Y at them.

    Y holds X_tau in the record's mode coordinates, X_tau = U_b Y B^dag (U_b
    the record's ``modes``), as the (n, nb, d) stack for the times as a 1-D
    array of n; one time is the one-element array, and an empty array gives
    empty stacks.  A tau that is not a number in [0, gammaT] (1e-9 slack
    above) raises ValueError naming the first such one, before any kernel
    work, and so does an unknown source.  Both sources take the record of
    (protocol, ds) (``_cycle_record``), so both refuse a jump that feeds the
    bright space back into itself (``_check_bright_feed``).  "integral" reads
    its kernel blocks, its modes included, so no eigendecomposition runs per
    call: a tau on a node reads that node's block, and every tau off the
    nodes takes one partial step from the node below it on the record's
    interpolated samples (``_CycleRecord.at``), the record growing to the
    node above the latest tau.  Once the record covers the times, a query
    evaluates no H at all.  "adiabatic" is U_b^dag ``x_tau_adiabatic`` B.
    """
    _check_taus(protocol, tau)
    if source not in ("integral", "adiabatic"):
        raise ValueError(f"unknown X source {source!r}")
    taus = np.asarray(tau, dtype=float).reshape(-1)
    record = _cycle_record(protocol, ds)
    if source == "integral":
        return record, taus, record.at(taus)
    return record, taus, dagger(record.modes) @ x_tau_adiabatic(protocol, ds, taus) @ ds.basis


def c_tau_ode_residual(protocol: Protocol, ds: DarkSpace, taus: Sequence[float]) -> float:
    """Max residual of dX/dtau + L^dag L X / 2 - P_perp H P0 over sample times.

    The derivative is taken by a sixth-order central difference of the
    quadrature-evaluated kernel, keeping the check independent of the
    defining equation.  One ``x_tau_integral`` call evaluates the kernel at
    all 7 n stencil times tau + k _FD_STEP, k = -3..3, of the n sample times;
    a sample time whose stencil leaves the cycle raises ValueError naming it.
    """
    taus = np.asarray(taus, dtype=float).reshape(-1)
    _require_each(
        (taus - 3 * _FD_STEP >= 0) & (taus + 3 * _FD_STEP <= protocol.gammaT), taus,
        "tau={} too close to the cycle boundary for the stencil",
    )
    m = dagger(protocol.L_rot) @ protocol.L_rot
    p_perp = np.eye(protocol.dim) - ds.projector
    stencil = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    times = taus[:, None] + _FD_STEP * np.arange(-3, 4)
    xs = x_tau_integral(protocol, ds, times.ravel()).reshape(times.shape + m.shape)
    dx = np.einsum("k,nkij->nij", stencil, xs) / _FD_STEP
    h = adiabatic_hamiltonian(protocol, taus / protocol.gammaT)
    resid = dx + 0.5 * m @ xs[:, 3] - p_perp @ h @ ds.projector
    return float(_norms(resid).max(initial=0.0))


def effective_jump(
    protocol: Protocol,
    ds: DarkSpace,
    tau,
    source: str = "integral",
) -> np.ndarray:
    """Effective dark-space jump operator P0 L X_tau P0 (d x d, dark basis).

    ``tau`` is one time or a 1-D array of n times, giving the (n, d, d) stack.
    With ``source="integral"`` X_tau is read off the protocol's cycle record,
    the exact-decay recurrence along the cycle grid of ``_FROZEN_GRID``
    steps, grown on demand to cover tau, and ended by one partial step to a
    tau off its nodes (``_x_of``): repeated queries on one protocol share
    its node blocks.  Either source gives its kernel blocks in the record's
    mode coordinates, and ``_jumps`` turns them into ell, as it does every
    ell of the package.  Both refuse a jump that feeds the bright space back
    into itself with d >= 2 (``_check_bright_feed``): ValueError.
    """
    record, taus, y = _x_of(protocol, ds, tau, source)
    ell = _jumps(record, taus, y)
    return ell if np.ndim(tau) else ell[0]


def berry_holonomy(protocol: Protocol, ds: DarkSpace, tau: float) -> np.ndarray:
    """Holonomy V_tau: ordered exponential of -i H0 over phase [0, tau/gammaT].

    Unitary d x d; the generator is the dark block of the adiabatic
    Hamiltonian, so V solves dV/dtau = -(i/gammaT) H0 V.  The midpoint rule
    runs on the cycle grid of every per-tau query, np.linspace(0, 1,
    _FROZEN_GRID + 1) in phase, cut at the last node at or below tau / gammaT
    and, for a tau past that node, ended by one partial midpoint step to
    tau / gammaT; a tau on a node takes no partial step, so
    at tau = gammaT the steps are those of the whole cycle grid, and tau = 0
    gives the identity without evaluating the drive.  The steps, those of
    ``ordered_exponential``, are multiplied pairwise.  A tau that is not one
    number in [0, gammaT] (1e-9 slack above) raises ValueError.  The dark
    blocks come from the drive evaluation of the protocol's cycle record
    (``_node_blocks``), so a jump that feeds the bright space back into
    itself with d >= 2 raises ValueError too (``_check_bright_feed``).
    """
    _one_time(tau)
    _check_taus(protocol, tau)
    s = tau / protocol.gammaT
    grid = _cycle_grid(1.0)
    grid = grid[:np.searchsorted(grid, s, side="right")]
    if s > grid[-1]:
        grid = np.append(grid, s)
    if grid.size < 2:
        return np.eye(ds.d, dtype=complex)
    record = _cycle_record(protocol, ds)
    h0 = _node_blocks(record, 0.5 * (grid[:-1] + grid[1:]))[:, record.rates.size:]
    return _ordered_product(_ordered_steps(-1j * h0, grid))


def _blockwise(
    fn: Callable[..., np.ndarray], shape: tuple, *arrays: np.ndarray, dtype: type = complex
) -> np.ndarray:
    """fn on aligned blocks of at most _PHASE_BLOCK leading entries of ``arrays``, stacked.

    Each block of b entries gives b arrays of ``shape``; the result is the
    (n,) + shape stack of ``dtype``, empty without a call for n = 0.
    """
    out = np.empty((len(arrays[0]),) + shape, dtype=dtype)
    for lo in range(0, len(out), _PHASE_BLOCK):
        out[lo:lo + _PHASE_BLOCK] = fn(*(a[lo:lo + _PHASE_BLOCK] for a in arrays))
    return out


def evolve_effective(
    rho0_d: np.ndarray,
    protocol: Protocol,
    ds: DarkSpace,
    taus: Sequence[float],
    mode: str = "full",
) -> list[np.ndarray]:
    """Reduced dark-space states at the requested times, in ascending order of time.

    ``mode`` selects the generator: "full" (Berry term plus dissipator),
    "unitary" (first order only, ell = 0) or "dissipator" (purity decay only,
    H0 = 0).  Each mode is a pair of weights on the two terms, (1, 1), (1, 0)
    and (0, 1) (``_MODE_WEIGHTS``), and every mode builds both terms, so the
    three share one path.  ``rho0_d`` must be a finite d x d matrix, or a
    ValueError names its shape or its first non-finite entry before any
    evaluation of U; a finite one that is not a state is evolved, and
    reported as below.  The reduced equation d rho/d tau = S(tau) rho,
    S = -i eps [H0, .] + eps^2 D_ell with eps = 1/(gamma T), is propagated by
    the fourth-order commutator-free Magnus exponential (CF4, ``_cf4_steps``)
    of its d^2 x d^2 superoperator.  S maps Hermitian matrices to Hermitian
    ones, so in the real coordinates of Hermitian matrices
    (``_HermitianCoordinates``) it is a real matrix, and every exponential,
    step product and state update runs in float64; a generator
    with an imaginary part there above roundoff raises ValueError naming its
    time.  The state is carried as the coordinates of its Hermitian and
    anti-Hermitian parts, so nothing of it is dropped.  H0 and ell at each
    step's two Gauss points come from the protocol's cycle record
    (``_cycle_record``) and evaluate no U: ell is ``effective_jump``'s, one
    partial step from the node below the point (``_CycleRecord.at``), and
    H0 the dark block of the record's samples interpolated to the point
    (``_CycleRecord.sample``).  The record grows to the node above each
    block's last Gauss point and is shared by later calls, the per-tau
    queries, the end-of-cycle formula and eq. 12, so a second pass on a
    protocol evaluates no U at all.

    One CF4 step is taken per step of one fixed grid (``_graded_grid``): the
    record's cycle nodes up to the last requested time, with the steps below
    the end of the kernel's onset graded quadratically toward tau = 0, where
    the onset transient (X_0 = 0, relaxing at half the slowest bright rate)
    lives.  The state at a node is the product of the steps below it applied
    to the start; a time between two nodes takes one partial CF4 step from
    the node below it, as the per-tau queries take one partial kernel step.
    So two calls with the same last time share every grid step, and the
    state at gammaT is the same bits alone as with other times before it.
    No error is estimated: a drive is resolved as finely as the record's
    _FROZEN_GRID cycle steps (phi winding 8 times at gammaT 200: 3e-11 from
    a tight Runge-Kutta run; 32 times: 2e-9).  Every time must be a number
    in [0, gammaT], or a ValueError names the first that is not, before any
    evaluation of U; so does a jump that feeds the bright space back into
    itself with d >= 2 (``_check_bright_feed``), in every mode.  A state outside the engine's Hermiticity, trace or positivity
    tolerances raises ``InvariantViolationError`` at the first such time.
    States are never projected back.  Times that reach no further than 0
    give the start state, with no evaluation of U and no cycle record.
    """
    if mode not in _MODE_WEIGHTS:
        raise ValueError(f"unknown mode {mode!r}")
    times = np.asarray(taus, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"taus must be a 1-D sequence of times, got shape {times.shape}")
    _require_each((0.0 <= times) & (times <= protocol.gammaT), times,
                  f"time {{}} outside [0, gammaT = {protocol.gammaT}]")
    checkpoints = sorted(times.tolist())
    rho = np.asarray(rho0_d, dtype=complex)
    if rho.shape != (ds.d, ds.d):
        raise ValueError(f"initial state has shape {rho.shape}, not the dark block's {(ds.d, ds.d)}")
    _require_each(np.isfinite(rho).ravel(), rho.ravel(), "initial state has a non-finite entry {}")
    points = sorted({t for t in checkpoints if t > 0.0})
    reached = {0.0: rho.copy()}
    if points:
        propagator = _MagnusPropagator(protocol, ds, *_MODE_WEIGHTS[mode])
        reached.update(zip(points, propagator.states(rho, np.array(points))))
    return [reached[t] for t in checkpoints]


#: the weights of the Berry term and of the dissipator in each mode of ``evolve_effective``
_MODE_WEIGHTS = {"full": (1.0, 1.0), "unitary": (1.0, 0.0), "dissipator": (0.0, 1.0)}
#: length of the graded onset, in relaxation times 2/rate of the slowest bright mode
_ONSET_RELAXATION_TIMES = 30.0
#: the fewest graded steps the onset takes, whatever the cycle steps it covers
_ONSET_MIN_STEPS = 64


def _graded_grid(nodes: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """The cycle ``nodes`` with the kernel's onset graded quadratically toward tau = 0.

    The onset ends ``_ONSET_RELAXATION_TIMES`` relaxation times 2/rate of the
    slowest of the bright ``rates`` after tau = 0, where the transient is
    e^{-30}.  The k steps below the first node at or above that end (all of
    them, if the onset outlasts the cycle) are replaced by
    max(_ONSET_MIN_STEPS, 2k) steps, the node at fraction u of the onset at
    u^2 of its length; the later nodes are kept.  Without a bright rate
    there is no onset, and the nodes are returned as they are.
    """
    if not rates.size:
        return nodes
    k = min(int(np.searchsorted(nodes, _ONSET_RELAXATION_TIMES * 2.0 / rates.min())), nodes.size - 1)
    u = np.linspace(0.0, 1.0, max(_ONSET_MIN_STEPS, 2 * k) + 1)[:-1]
    return np.concatenate([nodes[k] * (u * u), nodes[k:]])


class _MagnusPropagator:
    """CF4 steps of the reduced equation of one (protocol, dark space) with weighted terms.

    ``berry`` and ``dissipation`` weight the Berry term and the dissipator
    (``_MODE_WEIGHTS``).  Both terms are always built, the kernel too, so one
    path serves every mode; a term of weight 0 is built and multiplied by 0.
    Each Gauss-point generator is formed by ``vectorize`` and mapped once into
    the real coordinates of Hermitian d x d matrices (``coordinates``), where
    the CF4 exponentials, their products and the state updates run in
    float64; the states return to d x d matrices at the requested times.
    H0 and ell at the Gauss points are read off the protocol's cycle record
    (``_gauss_blocks``), which grows in whole chunks as the steps ask, so the
    propagator evaluates no U of its own.
    """

    def __init__(self, protocol: Protocol, ds: DarkSpace, berry: float, dissipation: float):
        self.berry, self.dissipation = berry, dissipation
        self.coordinates = _HermitianCoordinates(ds.d)
        self.record = _cycle_record(protocol, ds)

    def states(self, rho: np.ndarray, points: np.ndarray) -> list:
        """The (d, d) states at the ascending, distinct times ``points`` > 0, from rho at 0.

        The grid (``_graded_grid`` of the record) is cut at the last node at
        or below the last point.  Its CF4 steps form one stack, and one scan
        gives their prefix products (``_prefix_products``), each applied to
        the (d^2, 2) coordinates of rho's Hermitian and anti-Hermitian parts
        (``_HermitianCoordinates.of``).  A point between two nodes then takes
        one partial CF4 step from the node below it.  The invariants are
        checked at the points in ascending order; the first violation raises.
        """
        record, coordinates = self.record, self.coordinates
        grid = _graded_grid(record.nodes, record.rates)
        grid = grid[:np.searchsorted(grid, points[-1], side="right")]
        prefix = _prefix_products(self._steps(grid[:-1], np.diff(grid)))
        below = np.searchsorted(grid, points, side="right") - 1
        coords = prefix[below] @ coordinates.of(rho)
        off = points > grid[below]
        if off.any():
            starts = grid[below[off]]
            coords[off] = self._steps(starts, points[off] - starts) @ coords[off]
        found = []
        for t, c in zip(points, coords):
            found.append(coordinates.matrix(c))
            check_invariants(t, found[-1])
        return found

    def _steps(self, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """The real (n, d^2, d^2) CF4 steps of the given lengths from the given times.

        Formed _PHASE_BLOCK at a time: the superoperators at the steps' Gauss
        points (``_generators``), each mapped into Hermitian coordinates
        (``_HermitianCoordinates.generators``), and their CF4 exponentials.
        """
        size = self.coordinates.d ** 2

        def block(h, t0):
            t = t0[:, None] + h[:, None] * CF4_NODES
            gens = self._generators(t.ravel()).reshape(t.shape + (size, size))
            return _cf4_steps(self.coordinates.generators(gens, t), h)

        return _blockwise(block, (size, size), lengths, starts, dtype=float)

    def _generators(self, t: np.ndarray) -> np.ndarray:
        """The (n, d^2, d^2) superoperators S(tau) of the reduced equation at the 1-D times t.

        S vec(rho) = vec(-i eps berry [H0, rho] + eps^2 dissipation^2 D_ell(rho))
        for the row-major vec (``vectorize``), eps = 1/(gamma T), with H0 and
        ell off the cycle record (``_gauss_blocks``).
        """
        h0, ell = self._gauss_blocks(t)
        eps = 1.0 / self.record.protocol.gammaT
        return vectorize(LindbladGenerator(self.berry * h0, (self.dissipation * eps * ell,), eps))

    def _gauss_blocks(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """H0 and ell at the 1-D array of times t, the (n, d, d) stacks, off the cycle record.

        ell is the per-tau queries' (``_CycleRecord.at``, then ``_jumps``)
        and H0 the dark rows of the record's interpolated samples
        (``_CycleRecord.sample``); both grow the record, in whole chunks, to
        the node above the last time, and neither evaluates H once it covers
        the times.
        """
        record = self.record
        return record.sample(t)[:, record.rates.size:], _jumps(record, t, record.at(t))


class _HermitianCoordinates:
    """Exact real coordinates of Hermitian d x d matrices, and the maps to and from them.

    A Hermitian A has the d^2 real coordinates A_ii, then Re A_ij and Im A_ij
    for i < j (``np.triu_indices``): A = sum_k r_k E_k with E_k = e_ii,
    e_ij + e_ji and i (e_ij - e_ji).  ``back`` holds the vec(E_k) as columns
    and ``to`` is its inverse, whose entries are 0, 1, 1/2 and -+i/2, so the
    maps multiply by powers of two and add pairs only: a Hermitian matrix
    round-trips bit for bit, where an orthonormal basis would scale by
    1/sqrt(2).  A general matrix A = H + iK, H and K Hermitian, has the
    complex coordinates r(H) + i r(K).  A superoperator S that maps Hermitian
    matrices to Hermitian ones becomes the real matrix ``to`` S ``back``,
    formed for a whole stack by one real matrix product (``generators``).
    """

    def __init__(self, d: int):
        self.d = d
        i, j = np.triu_indices(d, 1)
        upper, lower, cols = i * d + j, j * d + i, d + np.arange(i.size)
        back = np.zeros((d * d, d * d), dtype=complex)
        back[np.arange(d) * (d + 1), np.arange(d)] = 1.0
        back[upper, cols] = back[lower, cols] = 1.0
        back[upper, cols + i.size], back[lower, cols + i.size] = 1j, -1j
        # back^dag back is diagonal, 1 on the diagonal coordinates and 2 on the others
        weights = np.concatenate([np.ones(d), np.full(2 * i.size, 2.0)])[:, None]
        self.back, self.to = back, dagger(back) / weights
        # vec(to S back) = kron(to, back^T) vec(S) for the row-major vec, written as
        # one real map of the interleaved real and imaginary parts of vec(S)
        kron = np.kron(self.to, back.T)
        real = np.empty((2 * d**4, 2 * d**4))
        real[0::2, 0::2] = real[1::2, 1::2] = kron.real
        real[1::2, 0::2], real[0::2, 1::2] = kron.imag, -kron.imag
        self.superoperators = real.T.copy()

    def of(self, rho: np.ndarray) -> np.ndarray:
        """The (d^2, 2) real coordinates [r(H) | r(K)] of a d x d matrix rho = H + iK."""
        return (self.to @ rho.reshape(-1)).view(float).reshape(-1, 2)

    def matrix(self, coords: np.ndarray) -> np.ndarray:
        """The d x d matrix H + iK of the (d^2, 2) coordinates [r(H) | r(K)]."""
        return (self.back @ coords.view(complex)).reshape(self.d, self.d)

    def generators(self, gens: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The real stack ``to`` S ``back`` of each superoperator S of ``gens``, at the times t.

        ``gens`` is a (..., d^2, d^2) stack and ``t`` the times of its
        matrices, of its leading shape; the whole stack is one real matrix
        product.  A matrix whose imaginary part in these coordinates exceeds
        roundoff, _COORDINATE_TOL of its Frobenius norm, does not preserve
        Hermiticity: ValueError names its time.
        """
        size = gens.shape[-1] ** 2
        parts = (gens.reshape(-1, size).view(float) @ self.superoperators).reshape(-1, size, 2)
        squares = np.add.reduce(parts * parts, axis=1)  # |Re|^2 and |Im|^2 of each matrix
        _require_each(squares[:, 1] <= _COORDINATE_TOL**2 * squares.sum(axis=1), t.reshape(-1),
                      "reduced generator at tau={} does not preserve Hermiticity")
        return parts[..., 0].reshape(gens.shape)


#: relative Frobenius size of the imaginary part of a superoperator in Hermitian
#: coordinates up to which it counts as roundoff (measured at most 9.5e-17 on the
#: generators of linear, smoothstep and Fourier spin-3/2 paths in every mode)
_COORDINATE_TOL = 1e-13


def _coerce_dark_state(rho_init: np.ndarray, ds: DarkSpace) -> np.ndarray:
    """The initial state as a d x d density matrix in the dark basis.

    A d x d state is taken as it is; a full-space state must lie in the dark
    space and is projected onto it.  Both must be physical.
    """
    rho_init = np.asarray(rho_init, dtype=complex)
    dim = ds.basis.shape[0]
    if rho_init.shape == (ds.d, ds.d) and ds.d != dim:
        validate_density_matrix(rho_init)
        return rho_init
    if rho_init.shape == (dim, dim):
        validate_density_matrix(rho_init)  # a NaN entry would make the leak NaN, passing it
        leak = frobenius(rho_init - ds.projector @ rho_init @ ds.projector)
        if leak > _LEAK_TOL:
            raise ValueError(f"initial state leaks outside the dark space ({leak:.3g})")
        rho_d = project_dark(ds, rho_init)
        validate_density_matrix(rho_d)
        return rho_d
    raise ValueError(f"initial state has incompatible shape {rho_init.shape}")


def end_of_cycle_state(
    rho_init: np.ndarray,
    protocol: Protocol,
    ds: DarkSpace,
    method: str = "integrate",
) -> np.ndarray:
    """Reduced state after one full cycle.

    ``method="integrate"`` drives the effective equation across the period
    (``evolve_effective`` to gammaT: one CF4 step per step of the graded cycle
    grid, the same bits as the last of any checkpoints that end at gammaT);
    ``method="formula"`` evaluates the closed expression V [rho + eps^2
    int (l rho l^dag - {l^dag l, rho}/2) dtau] V^dag with l = V^dag ell V,
    which freezes rho at its initial value.  V_end and the frozen-state
    superoperator M = int D_l dtau (Simpson's rule on the cycle grid) come
    from the protocol's cycle record (``_cycle_record``: ``frame`` and
    ``dissipator``), whose kernel recurrence along the whole cycle grid
    ``evolve_effective``, the per-tau queries and eq. 12 on the same protocol
    and dark space share; the integral is M applied to rho
    (``_frozen_dissipator``), as for the purity prediction of eq. 12.  The
    two methods agree to the order the reduced theory is valid, and both
    refuse a jump that feeds the bright space back into itself with d >= 2
    (``_check_bright_feed``): ValueError before any evaluation of U.
    """
    rho_d = _coerce_dark_state(rho_init, ds)
    if method == "integrate":
        return evolve_effective(rho_d, protocol, ds, [protocol.gammaT])[-1]
    if method != "formula":
        raise ValueError(f"unknown method {method!r}")

    eps = 1.0 / protocol.gammaT
    record = _cycle_record(protocol, ds)
    _, v_end = record.frame
    frozen = rho_d + eps**2 * _frozen_dissipator(rho_d, record.dissipator)
    return v_end @ frozen @ dagger(v_end)


class _CycleRecord:
    """The kernel modes and blocks of one (protocol, dark space, frame), grown as asked.

    The modes are the bright eigenmodes of L^dag L, from its one
    eigendecomposition in the package: ``modes`` holds the dim - d
    eigenvectors of the largest eigenvalues as columns, the complement of
    the dark space ``ds``, and a bright rate at or below _BRIGHT_RATE_TOL
    of max(largest rate, 1) raises ValueError before any evaluation of U;
    ``reduce_jump`` is B^dag L U_b (d x nb).  The frame is the dark-space
    gauge W (``gauge``), None for the plain one; the kernel then runs on the
    drive of W H W^dag + i W' W^dag (``_node_blocks``).  ``rates`` holds the
    decay rate of each recurrence and ``rows`` its drive row over the dark
    basis' rows, so one GEMM gives the drives and the dark block: in the
    plain frame one recurrence per mode, the eigenvalues of the modes; in a
    gauge frame one per (mode i, drive row j) pair, at index i nb + j, with
    the rate of mode i and the drive row of mode j (``_jumps``).  The jump
    is checked not to feed the bright space back into itself
    (``_check_bright_feed``) before any evaluation of U.  The protocol is
    held by a weak reference: the protocol holds its record, and a strong
    one would make the two a reference cycle, freed only by the cyclic
    garbage collector.

    ``xs`` holds the blocks, one per recurrence, at the cycle nodes
    0..``extent`` (``_cycle_grid``), and ``samples`` every row of
    ``_node_blocks`` (the recurrences' drives, then the dark block of H) at
    the three Gauss-Legendre nodes of each of those steps, (_FROZEN_GRID,
    3, recurrences + d, d); ``extent`` starts at 0, where the block is zero.
    Both arrays are allocated by the first ``grow``, so a reader of the
    modes alone (the adiabatic source of ``_x_of``, the oracle, the
    holonomy) allocates none.  A reader asks for the nodes it needs
    (``grow``), and the record grows by chunks of _PHASE_BLOCK cycle steps,
    each chunk one ``_node_blocks`` call, one ``_step_maps`` call and one
    scan from the block at the previous chunk's last node.  The chunk bounds
    are fixed, so the blocks are the same bits whatever the order in which
    readers grew the record.  Between the nodes H is read off the samples
    alone, by a quintic through two neighbouring steps' (``sample``): the
    dark block at the reduced propagator's Gauss points, and the drive of
    the one partial step that takes each time off the nodes to its kernel
    block (``at``).  The nodes are also the reduced propagator's grid, its
    onset graded (``_graded_grid``): one CF4 step per step, and one partial
    CF4 step to each requested time off them.
    The grid only has to resolve the drive, whatever a step's rate h: 2048
    steps on the smoothstep gammaT = 200 cycle match the quadrature kernel
    to 1e-13.

    Every reader of the kernel modes or the cycle series reads them here:
    the kernel blocks (``at``) and H (``sample``), ell at any times
    (``jumps``), the frame
    series l = V^dag ell V at the nodes with V_end (``frame``), the
    frozen-state superoperator M = int D_l dtau of eq. 12 (``dissipator``),
    and the modes and drive (``drive``) that the holonomy and the quadrature
    oracle read.  Records are made by ``_cycle_record`` alone, which keeps
    the plain-frame record of a protocol on the protocol, where the per-tau
    queries, the reduced propagator, the end-of-cycle formula, eq. 12, the
    holonomy, the oracle, the sweep's first-order distance and the gauge
    check's plain frame share it; the gauge check's gauged frame is a fresh
    record.
    """

    def __init__(self, protocol: Protocol, ds: DarkSpace, gauge: Gauge | None = None):
        _check_bright_feed(protocol, ds)
        lam, vec = np.linalg.eigh(dagger(protocol.L_rot) @ protocol.L_rot)
        cut = _BRIGHT_RATE_TOL * max(lam[-1], 1.0)
        if ds.d < lam.size and lam[ds.d] <= cut:
            raise ValueError(f"the slowest bright rate {lam[ds.d]:.3g} is at or below {cut:.3g}: "
                             "a mode outside the dark space that the kernel cannot resolve")
        self.modes = vec[:, ds.d:]
        self.reduce_jump = dagger(ds.basis) @ protocol.L_rot @ self.modes
        pairs = self.modes.shape[1] if gauge is not None else 1
        self.rates = np.repeat(lam[ds.d:], pairs)  # all > 0
        #: recurrences + d rows of dim: the recurrences' drive rows over the dark basis' rows
        self.rows = dagger(np.hstack([np.tile(self.modes, pairs), ds.basis]))
        self._protocol = weakref.ref(protocol)
        self.ds, self.gauge = ds, gauge
        self.nodes = _cycle_grid(protocol.gammaT)
        self.extent = 0
        self.xs = self.samples = None  # allocated by the first ``grow``

    @property
    def protocol(self) -> Protocol:
        """The protocol the record belongs to, which its caller keeps alive."""
        return self._protocol()

    def drive(self, taus: np.ndarray) -> np.ndarray:
        """The recurrences' drives of the adiabatic Hamiltonian at a 1-D array of times.

        The (n, recurrences, d) stack at the phases taus / gammaT, in the
        plain frame the bright-to-dark blocks U_b^dag H B, from
        ``_node_blocks``: H is evaluated in blocks of phases with every phase
        checked, and a failure names the first bad phase.  One time is the
        one-element array.
        """
        rows = _node_blocks(self, np.asarray(taus, dtype=float) / self.protocol.gammaT)
        return rows[:, :self.rates.size]

    def grow(self, k: int) -> None:
        """Cover the cycle node k, growing by whole chunks of _PHASE_BLOCK steps.

        Each chunk evaluates H at the three Gauss-Legendre nodes of each of
        its steps (``_GL3_NODES``) in one ``_node_blocks`` call, keeps those
        rows as ``samples`` and scans the steps' maps (``_step_maps``) from
        the block at its first node.  The first call allocates the block
        arrays, whatever k.
        """
        if self.xs is None:
            d = self.ds.d
            self.xs = np.zeros((self.nodes.size, self.rates.size, d), dtype=complex)
            self.samples = np.empty((_FROZEN_GRID, 3, len(self.rows), d), dtype=complex)
        while self.extent < k:
            lo = self.extent
            hi = min(lo + _PHASE_BLOCK, _FROZEN_GRID)
            nodes = self.nodes[lo:hi + 1]
            h = np.diff(nodes)
            times = nodes[:-1, None] + h[:, None] * _GL3_NODES
            rows = _node_blocks(self, times.ravel() / self.protocol.gammaT)
            self.samples[lo:hi] = rows.reshape(times.shape + rows.shape[1:])
            drives = self.samples[lo:hi, :, :self.rates.size]
            self.xs[lo:hi + 1] = _kernel_grid(_step_maps(self, h, drives), self.xs[lo])
            self.extent = hi

    def sample(self, taus: np.ndarray) -> np.ndarray:
        """The rows of ``_node_blocks`` at a 1-D array of times, interpolated: (n, rows, d).

        Each time reads the degree-5 Lagrange polynomial through the six
        ``samples`` of the cycle step holding it and of the step before it:
        steps 0 and 1 for a time in step 0, steps 2046 and 2047 for one at
        or past the end of the cycle.  The record first grows to the node
        above the latest of those steps, so no H is evaluated once it covers
        the times.  A time is taken as the fraction u of the later step from
        the node the two steps share, and the weights in product form,
        prod_{j != m} (u - u_j) / (u_m - u_j) over the samples' fractions
        (``_PAIR_NODES``); an empty array gives an empty stack.
        """
        k = np.clip(np.searchsorted(self.nodes, taus, side="right") - 1, 1, _FROZEN_GRID - 1)
        self.grow(np.max(k + 1, initial=0))
        u = (taus - self.nodes[k]) / (self.nodes[k + 1] - self.nodes[k])
        weights = (u[:, None, None] - _PAIR_OTHERS).prod(axis=2) / _PAIR_GAPS
        rows = self.samples[np.stack([k - 1, k], axis=-1)].reshape(len(taus), 6, -1)
        return (weights[:, None, :] @ rows).reshape((len(taus),) + self.samples.shape[2:])

    def at(self, taus: np.ndarray) -> np.ndarray:
        """The kernel blocks at the 1-D array of times ``taus``.

        The record first grows to the last node at or below the latest time.
        A time on a node reads that node's block; the times off the nodes
        take one partial step each (``_partial_step``) on the record's
        interpolated samples (``sample``), which grows the record to the
        node above the latest of them.  Once the record covers the times, no
        H is evaluated; an empty array gives an empty stack and evaluates
        nothing.
        """
        k = np.searchsorted(self.nodes, taus, side="right") - 1
        self.grow(np.max(k, initial=0))
        found = self.xs[k]
        off = taus > self.nodes[k]
        if off.any():
            found[off] = _partial_step(self, taus[off])
        return found

    def jumps(self, taus: np.ndarray) -> np.ndarray:
        """ell at the 1-D array of times ``taus`` (``at``, then ``_jumps``), (n, d, d).

        A tau outside [0, gammaT] (1e-9 slack above) raises ValueError naming
        it, before any kernel work.
        """
        _check_taus(self.protocol, taus)
        return _jumps(self, taus, self.at(taus))

    @cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray]:
        """l = V^dag ell V at the cycle nodes and V at the end of the cycle.

        Formed on first read: the record grows to the whole cycle, ell comes
        from the node blocks (``_jumps``) and V_tau, the holonomy co-moving
        with it, from the midpoint rule on the dark block at each cycle
        step's middle Gauss-Legendre node, the step's midpoint, read off
        ``samples`` (``ordered_exponential``).
        """
        self.grow(_FROZEN_GRID)
        ells = _jumps(self, self.nodes, self.xs)
        h0 = self.samples[:, 1, self.rates.size:]
        vs = ordered_exponential(-1j * h0, self.nodes / self.protocol.gammaT)
        return dagger(vs) @ ells @ vs, vs[-1].copy()

    @cached_property
    def dissipator(self) -> np.ndarray:
        """The frozen-state superoperator M = int_0^gammaT D_l dtau, (d^2, d^2).

        Formed on first read, so a reader of V_end alone does not pay for it:
        one ``vectorize`` of D_l for the frame series l at the cycle nodes
        (``frame``), summed by Simpson's rule on the cycle grid.
        M vec(rho) = vec(int D_l(rho) dtau) for the row-major vec of any d x
        d matrix rho: the frozen-state integral of eq. 12 and of the
        end-of-cycle formula as one linear map (``_frozen_dissipator``).
        """
        l, _ = self.frame
        return _simpson(vectorize(LindbladGenerator(None, (l,))), self.nodes)


def _cycle_record(protocol: Protocol, ds: DarkSpace, gauge: Gauge | None = None) -> _CycleRecord:
    """The cycle record of ``protocol`` for the dark space ``ds`` in the frame of ``gauge``.

    Without a gauge it is the protocol's own record, made on first use: a
    protocol holds at most one (``Protocol._cycle_records``), keyed by the
    content of ``ds.basis`` and ``L_rot``, so a dark space of another basis,
    or an ``L_rot`` rewritten in place, replaces it with a new one.  gammaT
    and the path are fixed for the protocol's lifetime, and ``with_gammaT``
    and ``dataclasses.replace`` give a protocol with no record.  With a
    gauge it is a fresh record, kept nowhere, which holds the protocol only
    weakly: its caller keeps the protocol alive.  Either is made empty and
    grows as its readers ask.
    """
    if gauge is not None:
        return _CycleRecord(protocol, ds, gauge)
    key = (ds.basis.shape, ds.basis.tobytes(), protocol.L_rot.tobytes())
    held = protocol._cycle_records
    if key not in held:
        held.clear()
        held[key] = _CycleRecord(protocol, ds)
    return held[key]


def _frozen_dissipator(rho_d: np.ndarray, m: np.ndarray) -> np.ndarray:
    """int D_l(rho_d) dtau over the cycle, from the frozen-state superoperator M of l.

    M is a record's ``dissipator``, applied to the row-major vec of rho_d.
    """
    return (m @ rho_d.reshape(-1)).reshape(rho_d.shape)


def _jumps(record: _CycleRecord, taus: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """ell_tau = B^dag L X_tau B at the times ``taus`` from their kernel blocks ``xs``, (n, d, d).

    The one formula of ell in the package: the blocks are X_tau in the
    record's mode coordinates, X_tau = U_b Y B^dag in the plain frame, so
    ell = B^dag L U_b Y (``reduce_jump``).  In a gauge frame W
    (``record.gauge``) the drive seen at tau is W(tau)^dag H^W(s) W(tau),
    and W(tau)^dag need not commute with the decay; the recurrences then run
    per (mode i, drive row j) pair,
    Y_ij(tau) = int e^{rate_i (s - tau)/2} [U_b^dag H^W(s) B]_j ds, and
    X_tau = sum_j (U_b^dag W^dag U_b)_ij Y_ij (B^dag W B), the pairs taken
    as the (n, nb, nb, d) stack.
    """
    if record.gauge is None:
        return _gemm(record.reduce_jump, xs)
    modes = record.modes
    nb, d = modes.shape[1], record.ds.d

    def to_jump(t, y):
        w = record.gauge(t / record.protocol.gammaT)[0]
        x = np.einsum("bij,bijk->bik", dagger(modes) @ dagger(w) @ modes, y)
        return record.reduce_jump @ x @ project_dark(record.ds, w)

    return _blockwise(to_jump, (d, d), taus, xs.reshape(len(xs), nb, nb, d))


def _partial_step(record: _CycleRecord, taus: np.ndarray) -> np.ndarray:
    """The kernel blocks at times off the cycle nodes, by one partial step from the node below each.

    Each time steps from the node below it (node 2047 for a time past the
    end of the cycle) to itself: the decay exact, and the drive taken at the
    partial step's own Gauss-Legendre nodes from the record's interpolated
    samples (``_CycleRecord.sample``), so no H is evaluated once the record
    covers the times.  The step's affine map acts on the node's block
    (``_affine``).  The one path of the kernel between the cycle nodes: the
    per-tau queries and the reduced propagator's Gauss points take it.
    """
    k = np.minimum(np.searchsorted(record.nodes, taus, side="right") - 1, _FROZEN_GRID - 1)
    starts = record.nodes[k]
    h = taus - starts
    times = starts[:, None] + h[:, None] * _GL3_NODES
    drives = record.sample(times.ravel())[:, :record.rates.size]
    drives = drives.reshape(times.shape + drives.shape[1:])
    return _affine(_step_maps(record, h, drives), record.xs[k])


def _affine(maps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The affine maps [decay | gain] along the last axis of ``maps`` applied to blocks x."""
    return maps[..., :1] * x + maps[..., 1:]


#: Gauss-Legendre nodes of one kernel-recurrence step, as fractions of the step; the
#: middle one is exactly 1/2, the midpoint where the holonomy takes H0 (``_CycleRecord.frame``)
_GL3_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * np.sqrt(15.0) / 10.0
#: the six samples that ``_CycleRecord.sample`` interpolates, as fractions of the later
#: of two neighbouring cycle steps from the node they share: the earlier step's
#: Gauss-Legendre nodes, then the later step's; row m of ``_PAIR_OTHERS`` holds the other
#: five, and ``_PAIR_GAPS`` the products prod_{j != m} (u_m - u_j)
_PAIR_NODES = np.concatenate([_GL3_NODES - 1.0, _GL3_NODES])
_PAIR_OTHERS = np.array([np.delete(_PAIR_NODES, m) for m in range(6)])
_PAIR_GAPS = np.prod(_PAIR_NODES[:, None] - _PAIR_OTHERS, axis=1)
#: column i: coefficients of 1, u, u^2 in the Lagrange basis polynomial of node i
_GL3_LAGRANGE = np.linalg.inv(np.vander(_GL3_NODES, 3, increasing=True))
#: below this decay exponent the moments come from their Taylor series, whose
#: first _MOMENT_SERIES_TERMS terms reach roundoff there; above it the
#: recurrence loses at most about a digit
_MOMENT_SERIES_BELOW = 0.5
_MOMENT_SERIES_TERMS = 16
#: row n: the series coefficients (-1)^n k! / (n + k + 1)! of the moments k = 0, 1, 2
_MOMENT_SERIES = np.array([
    [(-1) ** n * math.factorial(k) / math.factorial(n + k + 1) for k in range(3)]
    for n in range(_MOMENT_SERIES_TERMS)
])


def _decay_weights(z: np.ndarray) -> np.ndarray:
    """Node weights int_0^1 e^{-z (1 - u)} l_i(u) du of one step, shape z.shape + (3,).

    z = rate h / 2 is the decay exponent of the step and l_i the quadratic
    Lagrange basis on the Gauss nodes, so h times these weights integrates
    e^{rate (s - t1)/2} times the drive's interpolant exactly over [t0, t1]:
    the decay is exact for any z >= 0 and only the drive is interpolated.
    The weights come from the moments m_k = int_0^1 e^{-z (1 - u)} u^k du
    (k! times the phi-functions phi_{k+1}(-z), the exponential-integrator
    weights): a series below _MOMENT_SERIES_BELOW, else
    m_0 = (1 - e^{-z})/z, m_k = (1 - k m_{k-1})/z.  The kernel
    recurrence's whole and partial steps and the spin-3/2 closed form all
    take their weights here.
    """
    z = np.asarray(z, dtype=float)
    moments = np.empty(z.shape + (3,))
    small = z < _MOMENT_SERIES_BELOW
    moments[small] = np.polynomial.polynomial.polyval(z[small], _MOMENT_SERIES).T
    zb = z[~small]
    m0 = -np.expm1(-zb) / zb
    m1 = (1.0 - m0) / zb
    moments[~small] = np.stack([m0, m1, (1.0 - 2.0 * m1) / zb], axis=-1)
    return moments @ _GL3_LAGRANGE


def _kernel_grid(maps: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Kernel blocks at the points of a grid by the exponential recurrence, from ``start``.

    ``maps`` holds the affine maps [decay | gain] of the grid's steps along
    axis 0 (``_step_maps``).  The maps are prefix-composed by one scan and
    applied to ``start``, the blocks at the first point (``_affine``).
    Returns the (points, recurrences, d) blocks at the steps + 1 points.
    """
    xs = np.empty((len(maps) + 1,) + start.shape, dtype=complex)
    xs[0] = start
    xs[1:] = _affine(_scan(maps, _compose_affine), start)
    return xs


def _step_maps(record: _CycleRecord, h: np.ndarray, drives: np.ndarray) -> np.ndarray:
    """The affine map x -> e^{-rate h/2} x + gain of each kernel-recurrence step of length h.

    ``h`` is the 1-D array of the steps' lengths and ``drives`` the
    (steps, 3, recurrences, d) drive at each step's Gauss-Legendre nodes
    (``_GL3_NODES``), one row per recurrence of the record (``rates``):
    evaluated for the cycle steps of the record's growth, interpolated from
    its samples for a partial step (``_partial_step``).  Over a step the
    block decays by e^{-rate h/2} and gains int e^{rate (s - t1)/2} drive(s)
    ds, the drive interpolated through its values at the three
    Gauss-Legendre nodes and the exponential integrated exactly
    (``_decay_weights``).  The weights are computed once per distinct step
    length, and a grid has few: all of a uniform grid's steps are one
    length up to roundoff.  Returns [decay | gain] along the last axis,
    (steps, recurrences, 1 + d).
    """
    lengths, which = np.unique(h, return_inverse=True)
    z = 0.5 * lengths[:, None] * record.rates  # (lengths, rates)
    coef = (lengths[:, None, None] * _decay_weights(z)).swapaxes(1, 2)[which]  # (steps, 3, rates)
    gains = (coef[..., None] * drives).sum(axis=1)
    return np.concatenate([np.exp(-z)[which][..., None], gains], axis=-1)


def reconstruct_full_state(
    rho_ins: np.ndarray,
    protocol: Protocol,
    ds: DarkSpace,
    tau: float,
    source: str = "integral",
) -> tuple[np.ndarray, float]:
    """Full-space state from the reduced one via the order-eps^2 map, at one tau.

    Embedding plus the commutator correction -i eps [C_tau, .] and the
    second-order correction eps^2 D_C, the dissipator of the Hermitian C; with
    ``source="integral"`` C_tau is read off the protocol's cycle record, ended
    by one partial step to a tau off its nodes (``_x_of``).
    Returns (state, trace_correction); the trace is renormalized and the
    removed magnitude reported.  An array of times raises ValueError before
    any kernel work.
    """
    _one_time(tau)
    rho_d = np.asarray(rho_ins, dtype=complex)
    emb = embed_dark(ds, rho_d)
    eps = 1.0 / protocol.gammaT
    c = c_tau(protocol, ds, tau, source)
    first = -1j * (c @ emb - emb @ c)
    raw = emb + eps * first + eps**2 * _dissipator(c, emb)
    tr = float(np.trace(raw).real)
    correction = abs(tr - 1.0)
    if tr <= 0:
        raise ValueError(f"reconstructed state has non-positive trace {tr:.3g}")
    return raw / tr, correction


def _clipped_phases(protocol: Protocol, tau) -> np.ndarray:
    """The phases tau / gammaT clipped to [0, 1], a NaN kept.

    ``np.clip``'s values, signed zeros too, from one ufunc each way: the
    generators below run this on every step attempt, where ``np.clip``'s
    Python wrapper would cost more than the clipping.
    """
    return np.minimum(np.maximum(0.0, np.asarray(tau, dtype=float) / protocol.gammaT), 1.0)


def lab_generator(protocol: Protocol) -> Callable[[np.ndarray], LindbladGenerator]:
    """tau -> lab-frame generator with the rotated jump operator.

    tau is one time or a 1-D array of n times (then a stack of n jumps), the
    ``gen_of_t`` contract of ``integrate``; phases are clipped to [0, 1].
    """

    def gen(tau) -> LindbladGenerator:
        s = _clipped_phases(protocol, tau)
        return LindbladGenerator(hamiltonian=None, jumps=(lab_jump(protocol, s),))

    return gen


def rotating_generator(protocol: Protocol) -> Callable[[np.ndarray], LindbladGenerator]:
    """tau -> rotating-frame generator: fixed jump, 1/(gammaT)-weighted H.

    tau is one time or a 1-D array of n times (then a stack of n
    Hamiltonians), the ``gen_of_t`` contract of ``integrate``; H comes from
    ``adiabatic_hamiltonian``, which takes either.
    """

    def gen(tau) -> LindbladGenerator:
        return LindbladGenerator(
            hamiltonian=adiabatic_hamiltonian(protocol, _clipped_phases(protocol, tau)),
            jumps=(protocol.L_rot,),
            hamiltonian_prefactor=1.0 / protocol.gammaT,
        )

    return gen
