"""Exact evolution under the time-dependent Lindblad equation.

Brute-force reference dynamics for everything the effective dark-space theory
predicts: an embedded Runge-Kutta 5(4) integrator with PI step control and
per-step physicality checks, superoperator vectorization and spectral
analysis, the infinite-time channel and its Kraus decomposition.

Conventions: the dissipation rate is absorbed into the jump operators
(gamma = 1) and time is the dimensionless tau = gamma * t.  Superoperators
act on row-major vectorized matrices, vec(A rho B) = (A kron B^T) vec(rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import _norms, dagger, frobenius

__all__ = [
    "LindbladGenerator",
    "Trajectory",
    "StepStats",
    "StepSizeUnderflowError",
    "InvariantViolationError",
    "GaplessLindbladianError",
    "ConvergenceError",
    "NUMERICAL_ERRORS",
    "lindblad_rhs",
    "integrate",
    "vectorize",
    "spectral_gap",
    "asymptotic_channel",
    "kraus_from_channel",
    "dark_block_kraus",
    "validate_density_matrix",
    "check_invariants",
]

# physicality tolerances for integrated states; violations beyond 100x abort
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-8
#: eigenvalues within this fraction of the spectral radius count as the kernel
KERNEL_TOL = 1e-8
#: Choi eigenvalues below -_CP_TOL reject a channel; Kraus weights up to
#: _KRAUS_WEIGHT_TOL are dropped
_CP_TOL = 1e-8
_KRAUS_WEIGHT_TOL = 1e-10


class StepSizeUnderflowError(RuntimeError):
    """Adaptive step size collapsed; carries the time of failure."""

    def __init__(self, tau: float, step: float):
        super().__init__(f"step size underflow at tau={tau:.6g} (h={step:.3g})")
        self.tau = tau


class InvariantViolationError(RuntimeError):
    """Integrated state left the physical manifold far beyond tolerance."""

    def __init__(self, tau: float, what: str, value: float):
        super().__init__(f"{what} violated at tau={tau:.6g} ({what}={value:.3g})")
        self.tau = tau
        self.what = what


class GaplessLindbladianError(RuntimeError):
    """Operation requires a spectrally gapped Lindbladian."""


class ConvergenceError(RuntimeError):
    """Step doubling reached its cap with the error estimate still above target."""

    def __init__(self, t0: float, t1: float, estimate: float, target: float):
        super().__init__(
            f"no convergence on tau in [{t0:.6g}, {t1:.6g}]: error estimate {estimate:.3g} "
            f"above target {target:.3g} at the step-doubling cap"
        )
        self.tau = t0
        self.interval = (t0, t1)
        self.estimate = estimate


#: failures a numerical run reports, with their tau where known, instead of crashing
NUMERICAL_ERRORS = (StepSizeUnderflowError, InvariantViolationError, GaplessLindbladianError,
                    ConvergenceError, np.linalg.LinAlgError, FloatingPointError)


@dataclass(frozen=True)
class LindbladGenerator:
    """Generator of a (possibly Hamiltonian-corrected) Lindblad equation.

    ``hamiltonian_prefactor`` scales the commutator term; in the rotating
    frame it carries the adiabatic parameter 1/(gamma T) so the Hamiltonian
    itself can stay O(1).  The Hamiltonian and each jump are (dim, dim)
    matrices or (n, dim, dim) stacks, element k of every stack belonging to
    generator k and a single matrix standing for all n; every element of a
    Hamiltonian stack is checked.  ``lindblad_rhs`` takes single matrices
    only, ``vectorize`` either.  The brute-force equation and the reduced
    dark-space equation -i eps [H0, .] + eps^2 D_ell (jump eps ell, prefactor
    eps) are both generators of this form.
    """

    hamiltonian: np.ndarray | None
    jumps: tuple = ()
    hamiltonian_prefactor: float = 1.0

    def __post_init__(self):
        if self.hamiltonian is not None:
            h = self.hamiltonian
            bad = np.flatnonzero(_norms(h - dagger(h)) > 1e-10 * np.maximum(_norms(h), 1.0))
            if bad.size:
                where = f" (element {bad[0]} of the stack)" if np.ndim(h) > 2 else ""
                raise ValueError(f"hamiltonian must be Hermitian to 1e-10{where}")
        object.__setattr__(self, "jumps", tuple(np.asarray(j, dtype=complex) for j in self.jumps))

    @property
    def dim(self) -> int:
        if self.hamiltonian is not None:
            return self.hamiltonian.shape[-1]
        if self.jumps:
            return self.jumps[0].shape[-1]
        raise ValueError("empty generator has no dimension")


@dataclass(frozen=True)
class StepStats:
    """Work of one adaptive run: steps, right-hand sides and generator evaluations.

    ``rhs_evaluations`` counts six stage evaluations per step attempt plus
    the first stage; ``generator_calls`` counts the stage-time batches, one
    per attempt plus the first.
    """

    accepted: int
    rejected: int
    rhs_evaluations: int
    generator_calls: int


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states from one integration run."""

    times: np.ndarray
    states: list
    step_stats: StepStats

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def lindblad_rhs(rho: np.ndarray, gen: LindbladGenerator) -> np.ndarray:
    """Right-hand side -i*pref*[H,rho] + sum_k (L rho L^dag - {L^dag L, rho}/2)."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    if gen.hamiltonian is not None:
        h = gen.hamiltonian
        if h.shape != rho.shape:
            raise ValueError(f"dimension mismatch: H {h.shape} vs rho {rho.shape}")
        out += -1j * gen.hamiltonian_prefactor * (h @ rho - rho @ h)
    for jump in gen.jumps:
        if jump.shape != rho.shape:
            raise ValueError(f"dimension mismatch: L {jump.shape} vs rho {rho.shape}")
        out += _dissipator(jump, rho)
    return out


def _dissipator(jump: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """D_L(rho) = L rho L^dag - {L^dag L, rho}/2, for one jump or a stack of them."""
    jd = dagger(jump)
    jdj = jd @ jump
    return jump @ rho @ jd - 0.5 * (jdj @ rho + rho @ jdj)


def _physicality(rho: np.ndarray) -> tuple[float, float, float]:
    """(|rho - rho^dag|_F, |tr rho - 1|, least eigenvalue of (rho + rho^dag)/2).

    All three are NaN when rho has a NaN or infinite entry.
    """
    if not np.isfinite(rho).all():
        return math.nan, math.nan, math.nan
    herm = frobenius(rho - dagger(rho))
    tr_dev = abs(np.trace(rho) - 1.0)
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + dagger(rho))).min())
    return herm, tr_dev, min_eig


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is finite, Hermitian, unit trace and positive.

    Checked against ``HERMITICITY_TOL``, ``TRACE_TOL`` and ``POSITIVITY_TOL``.
    """
    herm, tr, min_eig = _physicality(np.asarray(rho, dtype=complex))
    if math.isnan(herm):
        raise ValueError("state has a NaN or infinite entry")
    if herm > HERMITICITY_TOL:
        raise ValueError(f"not Hermitian: |rho - rho^dag| = {herm:.3g}")
    if tr > TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {tr:.3g}")
    if min_eig < -POSITIVITY_TOL:
        raise ValueError(f"negative eigenvalue {min_eig:.3g}")


def check_invariants(tau: float, rho: np.ndarray, margin: float = 1.0) -> None:
    """Raise InvariantViolationError, naming tau, unless rho is finite and physical.

    Hermiticity, unit trace and positivity are checked against ``margin``
    times the standing tolerances; the state is never projected back.
    """
    herm, tr_dev, min_eig = _physicality(rho)
    if math.isnan(herm):
        raise InvariantViolationError(tau, "finiteness", herm)
    if herm > margin * HERMITICITY_TOL:
        raise InvariantViolationError(tau, "hermiticity", herm)
    if tr_dev > margin * TRACE_TOL:
        raise InvariantViolationError(tau, "trace", tr_dev)
    if min_eig < -margin * POSITIVITY_TOL:
        raise InvariantViolationError(tau, "positivity", min_eig)


# Dormand-Prince 5(4) coefficients (FSAL); row i of _DP_A holds stage i's weights
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_ERR = _DP_B5 - _DP_B4
#: the distinct stage nodes of one step (stages 5 and 6 share c = 1), and the
#: node of each of the stages 1-6
_DP_NODES = _DP_C[1:6]
_DP_STAGE_NODE = (None, 0, 1, 2, 3, 4, 4)

#: right-hand sides of one step: times (1-D array) -> one function y -> f(time, y) per time
StageRhs = Callable[[np.ndarray], Sequence[Callable[[np.ndarray], np.ndarray]]]


def adaptive_rk45(
    stage_rhs: StageRhs,
    y0: np.ndarray,
    t0: float,
    t1: float,
    rtol: float,
    atol: float,
    max_step: float = 0.1,
    first_step: float | None = None,
    checkpoints: Sequence[float] | None = None,
    on_accept: Callable[[float, np.ndarray], None] | None = None,
):
    """Generic embedded RK 5(4) driver for complex vector ODEs y' = f(t, y).

    ``stage_rhs`` is asked once per step attempt for the right-hand sides at
    the attempt's five distinct stage times, given as one 1-D array, and once
    at the start for the first stage; it returns one function y -> f(time, y)
    per time.  A plain ``f(t, y)`` wraps as
    ``lambda times: [functools.partial(f, t) for t in times]``.

    PI step-size control (order-5 propagation, order-4 error estimate).  The
    step is capped so checkpoints are hit exactly; ``on_accept`` runs after
    every accepted step.  Returns (checkpoint_times, checkpoint_states,
    StepStats).
    """
    y = np.asarray(y0, dtype=complex).copy()
    t = float(t0)
    span = t1 - t0
    if span < 0:
        raise ValueError("backward integration not supported")
    if checkpoints is None:
        cps = [t1]
    else:
        cps = sorted(float(c) for c in checkpoints)
        if cps and (cps[0] < t0 - 1e-12 or cps[-1] > t1 + 1e-12):
            raise ValueError("checkpoints outside integration span")
        if not cps or abs(cps[-1] - t1) > 1e-12:
            cps.append(t1)
    out_t: list[float] = []
    out_y: list[np.ndarray] = []
    if abs(cps[0] - t0) <= 1e-12:
        out_t.append(t0)
        out_y.append(y.copy())
        cps = cps[1:]

    if span == 0.0:
        if not out_t:
            out_t, out_y = [t0], [y.copy()]
        return np.array(out_t), out_y, StepStats(0, 0, 0, 0)

    h_free = span / 1e3 if first_step is None else float(first_step)
    h_free = min(h_free, max_step, span)
    n_accept = n_reject = 0
    err_prev = 1.0
    k = np.empty((7,) + y.shape, dtype=complex)  # stage slopes; k[0] carries over (FSAL)
    k[0] = stage_rhs(np.array([t]))[0](y)
    n_batch = 1
    safety, beta, alpha = 0.9, 0.08, 0.7 / 5.0
    cp_idx = 0

    while t < t1 - 1e-12 * max(1.0, abs(t1)):
        hit_cp = False
        h = min(h_free, max_step, t1 - t)
        if cp_idx < len(cps) and t + h >= cps[cp_idx] - 1e-14:
            h = cps[cp_idx] - t
            hit_cp = True
            # roundoff accumulation can leave a negligible gap; snap to the
            # checkpoint instead of forcing a degenerate step
            if h < 1e-12 * max(1.0, abs(t)):
                t = cps[cp_idx]
                out_t.append(t)
                out_y.append(y.copy())
                cp_idx += 1
                continue
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(t, h)

        rhs = stage_rhs(t + h * _DP_NODES)
        n_batch += 1
        for i in range(1, 7):
            k[i] = rhs[_DP_STAGE_NODE[i]](y + h * (_DP_A[i] @ k[:i]))
        y_new = y + h * (_DP_B5 @ k)
        err_vec = h * (_DP_ERR @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((np.abs(err_vec) / scale) ** 2)))

        if err <= 1.0:
            t_new = t + h
            err = max(err, 1e-10)
            factor = min(5.0, max(0.2, safety * err ** (-alpha) * err_prev ** beta))
            err_prev = err
            t, y = t_new, y_new
            k[0] = k[6]  # FSAL
            n_accept += 1
            if on_accept is not None:
                on_accept(t, y)
            if hit_cp:
                out_t.append(t)
                out_y.append(y.copy())
                cp_idx += 1
                # a clamped landing says nothing about the natural step scale
                h_free = max(h_free, h * factor)
            else:
                h_free = h * factor
        else:
            n_reject += 1
            h_free = h * min(1.0, max(0.2, safety * err ** (-0.2)))

    if not out_t or abs(out_t[-1] - t1) > 1e-12:
        out_t.append(t)
        out_y.append(y.copy())
    attempts = n_accept + n_reject
    return np.array(out_t), out_y, StepStats(n_accept, n_reject, 6 * attempts + 1, n_batch)


def integrate(
    gen_of_t: Callable[[np.ndarray], LindbladGenerator],
    rho0: np.ndarray,
    tau_span: tuple[float, float],
    rtol: float = 1e-9,
    atol: float = 1e-12,
    checkpoints: Sequence[float] | None = None,
) -> Trajectory:
    """Integrate d(rho)/d(tau) = L_tau[rho] with adaptive error control.

    ``gen_of_t`` is called once per step attempt (and once at the start)
    with a 1-D array of n stage times and returns their generators as one
    ``LindbladGenerator`` of (n, dim, dim) stacks, element k belonging to
    time k, the contract of ``Protocol.U`` for phases.  A generator built of
    single matrices, such as ``lambda tau: gen``, stands for all n times.
    The generator becomes a stack of superoperators (``vectorize``), and each
    stage right-hand side is one matrix-vector product.  Steps are at most
    0.1 long (the ``max_step`` default of ``adaptive_rk45``).

    The initial state must be a valid density matrix; Hermiticity, trace and
    positivity are re-checked at every accepted step and a violation beyond
    100x the standing tolerances aborts the run (states are never projected
    back, so integrator bugs cannot hide).
    """
    if not (rtol >= 0.0 and atol >= 0.0):
        raise ValueError(f"rtol and atol must be non-negative, got {rtol} and {atol}")
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density_matrix(rho0)
    dim = rho0.shape[0]
    t0, t1 = float(tau_span[0]), float(tau_span[1])

    def stage_rhs(taus):
        gen = gen_of_t(taus)
        if gen.dim != dim:
            raise ValueError(f"dimension mismatch: generator {gen.dim} vs rho {dim}")
        sup = vectorize(gen)
        return [s.dot for s in np.broadcast_to(sup, taus.shape + sup.shape[-2:])]

    def watch(tau, y):
        check_invariants(tau, y.reshape(dim, dim), 100.0)

    times, states, stats = adaptive_rk45(
        stage_rhs,
        rho0.reshape(-1),
        t0,
        t1,
        rtol=rtol,
        atol=atol,
        checkpoints=checkpoints,
        on_accept=watch,
    )
    return Trajectory(times, [y.reshape(dim, dim) for y in states], stats)


def vectorize(gen: LindbladGenerator) -> np.ndarray:
    """Superoperator S with S vec(rho) = vec(lindblad_rhs(rho, gen)), for stacks too.

    The Hamiltonian and each jump are (dim, dim) matrices or (..., dim, dim)
    stacks, element k of every stack belonging to generator k; the result
    has the broadcast leading shape.
    """
    dim = gen.dim
    eye = np.eye(dim, dtype=complex)
    h = gen.hamiltonian
    terms = list(gen.jumps) + ([] if h is None else [h])
    lead = np.broadcast_shapes(*(np.shape(t)[:-2] for t in terms))
    sup = np.zeros(lead + (dim * dim, dim * dim), dtype=complex)
    if h is not None:
        sup += -1j * gen.hamiltonian_prefactor * (_kron(h, eye) - _kron(eye, h.swapaxes(-1, -2)))
    for jump in gen.jumps:
        jdj = dagger(jump) @ jump
        sup += _kron(jump, jump.conj())
        sup -= 0.5 * (_kron(jdj, eye) + _kron(eye, jdj.swapaxes(-1, -2)))
    return sup


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, element by element over stacks (np.kron's values)."""
    n, m = a.shape[-1], b.shape[-1]
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (n * m, n * m))


def spectral_gap(sup: np.ndarray) -> float | None:
    """Dissipative gap min(-Re lambda) over nonzero eigenvalues.

    Returns None for a gapless spectrum (every eigenvalue inside the kernel
    threshold, or a nonzero eigenvalue with decay rate below 1e-8).
    """
    lam = np.linalg.eigvals(sup)
    scale = max(float(np.abs(lam).max()), 1.0)
    nonzero = lam[np.abs(lam) > KERNEL_TOL * scale]
    if nonzero.size == 0:
        return None
    gap = float(-nonzero.real.max())
    if gap < 1e-8:
        return None
    return gap


def asymptotic_channel(sup: np.ndarray) -> np.ndarray:
    """Infinite-time limit R = lim e^(t S): spectral projector onto ker(S).

    Requires every nonzero eigenvalue to decay (gapped dynamics); rotating or
    marginal modes make the limit undefined and are rejected.
    """
    lam, vr = np.linalg.eig(sup)
    scale = max(float(np.abs(lam).max()), 1.0)
    in_kernel = np.abs(lam) <= KERNEL_TOL * scale
    if not np.all(lam[~in_kernel].real < -1e-8):
        worst = lam[~in_kernel][np.argmax(lam[~in_kernel].real)]
        raise GaplessLindbladianError(
            f"non-decaying eigenvalue {worst:.3g}; asymptotic channel undefined"
        )
    proj = np.zeros(lam.shape[0])
    proj[in_kernel] = 1.0
    r = (vr * proj) @ np.linalg.inv(vr)
    defect = frobenius(r @ r - r)
    if defect > 1e-8:
        raise GaplessLindbladianError(f"spectral projector not idempotent ({defect:.3g})")
    return r


def choi_matrix(sup: np.ndarray) -> np.ndarray:
    """Choi matrix of a superoperator: the reshuffle C[(a,c),(b,d)] = S[(a,b),(c,d)].

    Equivalently C = sum_{ij} E_ij (x) S[E_ij] in row-major index grouping;
    Hermitian and positive semidefinite exactly when S is completely positive.
    """
    n2 = sup.shape[0]
    dim = int(round(np.sqrt(n2)))
    return sup.reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3).reshape(n2, n2)


def kraus_from_channel(sup: np.ndarray) -> list[np.ndarray]:
    """Kraus operators of a completely positive trace-preserving superoperator.

    Eigendecomposition of the Choi matrix; eigenvalues up to
    ``_KRAUS_WEIGHT_TOL`` are discarded.  Raises ValueError when the Choi
    matrix fails Hermiticity or positivity beyond ``_CP_TOL`` (reporting the
    offending eigenvalue) and when the resulting set is not trace preserving.
    """
    choi = choi_matrix(sup)
    herm_defect = frobenius(choi - dagger(choi))
    if herm_defect > _CP_TOL * max(frobenius(choi), 1.0):
        raise ValueError(f"Choi matrix not Hermitian (defect {herm_defect:.3g})")
    w, v = np.linalg.eigh(0.5 * (choi + dagger(choi)))
    if w[0] < -_CP_TOL:
        raise ValueError(f"channel not completely positive: Choi eigenvalue {w[0]:.3g}")
    dim = int(round(np.sqrt(sup.shape[0])))
    ops = [
        np.sqrt(wk) * v[:, i].reshape(dim, dim)
        for i, wk in enumerate(w)
        if wk > _KRAUS_WEIGHT_TOL
    ]
    total = sum(dagger(m) @ m for m in ops)
    norm_defect = frobenius(total - np.eye(dim))
    if norm_defect > 1e-8:
        raise ValueError(f"Kraus set not trace preserving (defect {norm_defect:.3g})")
    return ops


def dark_block_kraus(
    kraus: list[np.ndarray],
    projector: np.ndarray,
) -> list[np.ndarray]:
    """Rotate a Kraus set so the dark-space block concentrates in one operator.

    A Kraus decomposition is unique only up to a unitary mixing N_i = sum_j
    W_ij M_j, which leaves the channel untouched.  For a channel acting as
    the identity on the subspace of ``projector``, each block P M_i P is
    proportional to P; this picks the mixing that moves all of that weight
    (phase-fixed to +P) into the first operator.
    """
    p0 = np.asarray(projector, dtype=complex)
    blocks = [p0 @ m @ p0 for m in kraus]
    gram = np.array([[np.trace(dagger(a) @ b) for b in blocks] for a in blocks])
    w, u = np.linalg.eigh(0.5 * (gram + dagger(gram)))
    # descending eigenvalues; columns of u mix the original operators
    order = np.argsort(w)[::-1]
    u = u[:, order]
    rotated = [sum(u[j, i] * kraus[j] for j in range(len(kraus))) for i in range(len(kraus))]
    # fix the phase of the leading operator so its dark block is +P
    lead_block = p0 @ rotated[0] @ p0
    phase = np.trace(lead_block)
    if abs(phase) > 1e-12:
        rotated[0] = rotated[0] * (abs(phase) / phase)
    return rotated
