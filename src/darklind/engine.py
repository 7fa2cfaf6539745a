"""Exact evolution under the time-dependent Lindblad equation.

Brute-force reference dynamics for everything the effective dark-space theory
predicts: an embedded Runge-Kutta 8(5,3) integrator (DOP853) with PI step
control and per-step physicality checks, superoperator vectorization and
spectral analysis, the infinite-time channel and its Kraus decomposition.

Conventions: the dissipation rate is absorbed into the jump operators
(gamma = 1) and time is the dimensionless tau = gamma * t.  Superoperators
act on row-major vectorized matrices, vec(A rho B) = (A kron B^T) vec(rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import _norms, _require_each, dagger, frobenius

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
#: the default (rtol, atol) of every brute-force run: ``integrate``, the
#: exact-vs-reduced comparison, the convergence sweep and the CLI's config
_DEFAULT_RTOL, _DEFAULT_ATOL = 1e-9, 1e-12


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
    """A numerical scheme stopped with its error estimate still above target.

    ``cause`` says where and why it stopped, as the end of the message: the
    quadrature oracle (``effective.x_tau_integral``) passes its ``quad_vec``
    status.
    """

    def __init__(self, t0: float, t1: float, estimate: float, target: float, cause: str):
        super().__init__(
            f"no convergence on tau in [{t0:.6g}, {t1:.6g}]: error estimate {estimate:.3g} "
            f"above target {target:.3g} {cause}"
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
            bad = _norms(h - dagger(h)) > 1e-10 * np.maximum(_norms(h), 1.0)
            if bad.any():
                where = f" (element {np.argmax(bad)} of the stack)" if np.ndim(h) > 2 else ""
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

    ``rhs_evaluations`` counts twelve evaluations per step attempt (eleven
    stages and the FSAL slope at the step's end) plus the first stage;
    ``generator_calls`` counts the stage-time batches, one per attempt plus
    the first.
    """

    accepted: int
    rejected: int
    rhs_evaluations: int
    generator_calls: int


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped states from one integration run.

    The last three fields are the worst physicality margins over the run's
    accepted steps: the largest Hermiticity defect |rho - rho^dag|_F and trace
    deviation |tr rho - 1|, and the least eigenvalue of (rho + rho^dag)/2
    (0, 0 and inf when no step was accepted).
    """

    times: np.ndarray
    states: list
    step_stats: StepStats
    worst_hermiticity: float = 0.0
    worst_trace_deviation: float = 0.0
    least_eigenvalue: float = math.inf

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


def _physicality(rho: np.ndarray) -> tuple:
    """(|rho - rho^dag|_F, |tr rho - 1|, least eigenvalue of (rho + rho^dag)/2).

    For one state three floats; for an (n, d, d) stack three (n,) arrays, from
    one stacked ``eigvalsh``.  All three are NaN for a state with a NaN or
    infinite entry.
    """
    rho = np.asarray(rho, dtype=complex)
    finite = np.isfinite(rho).all(axis=(-2, -1))
    # a non-finite state is measured as zero, so no arithmetic or eigvalsh sees it
    rho = np.where(finite[..., None, None], rho, 0.0)
    values = (
        _norms(rho - dagger(rho)),
        np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0),
        np.linalg.eigvalsh(0.5 * (rho + dagger(rho))).min(axis=-1),
    )
    values = tuple(np.where(finite, v, math.nan) for v in values)
    return tuple(map(float, values)) if rho.ndim == 2 else values


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
    _raise_violation(tau, *_physicality(rho), margin)


def _raise_violation(tau: float, herm: float, tr_dev: float, min_eig: float,
                     margin: float) -> None:
    """The error of ``check_invariants`` for a state with these physicality values, if any."""
    if math.isnan(herm):
        raise InvariantViolationError(tau, "finiteness", herm)
    if herm > margin * HERMITICITY_TOL:
        raise InvariantViolationError(tau, "hermiticity", herm)
    if tr_dev > margin * TRACE_TOL:
        raise InvariantViolationError(tau, "trace", tr_dev)
    if min_eig < -margin * POSITIVITY_TOL:
        raise InvariantViolationError(tau, "positivity", min_eig)


#: accepted states ``integrate`` queues before checking them in one stacked pass
_WATCH_BLOCK = 64
#: the margin on the standing tolerances at which an integrated state aborts a run
_WATCH_MARGIN = 100.0


class _Watch:
    """Checks accepted states in stacks of _WATCH_BLOCK, keeping the worst margins seen.

    ``flush`` checks every queued state at once and raises the error
    ``check_invariants(tau, rho, _WATCH_MARGIN)`` raises for the earliest bad one.
    """

    def __init__(self):
        self.taus: list[float] = []
        self.states: list[np.ndarray] = []
        self.worst_herm = self.worst_trace = 0.0
        self.least_eig = math.inf

    def push(self, tau: float, rho: np.ndarray) -> None:
        self.taus.append(tau)
        self.states.append(rho)
        if len(self.taus) >= _WATCH_BLOCK:
            self.flush()

    def flush(self) -> None:
        if not self.taus:
            return
        taus, states = self.taus, np.stack(self.states)
        self.taus, self.states = [], []
        herm, tr_dev, min_eig = _physicality(states)
        # NaN compares false, so a non-finite state counts as bad
        bad = ~((herm <= _WATCH_MARGIN * HERMITICITY_TOL) & (tr_dev <= _WATCH_MARGIN * TRACE_TOL)
                & (min_eig >= -_WATCH_MARGIN * POSITIVITY_TOL))
        if bad.any():
            k = int(np.argmax(bad))
            _raise_violation(taus[k], herm[k], tr_dev[k], min_eig[k], _WATCH_MARGIN)
        self.worst_herm = max(self.worst_herm, float(herm.max()))
        self.worst_trace = max(self.worst_trace, float(tr_dev.max()))
        self.least_eig = min(self.least_eig, float(min_eig.min()))


# Dormand-Prince 8(5,3) coefficients (FSAL; Hairer, Norsett & Wanner, Solving
# Ordinary Differential Equations I, sec. II.10).  Row i of _DOP_A holds stage
# i's weights on stages 0..i-1; stage 0 is the previous step's final slope.
_DOP_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
_DOP_A = [
    np.array([]),
    np.array([5.26001519587677318785587544488e-2]),
    np.array([1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]),
    np.array([2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2]),
    np.array([2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
              9.24834003261792003115737966543e-1]),
    np.array([3.7037037037037037037037037037e-2, 0.0, 0.0,
              1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1]),
    np.array([3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
              6.02165389804559606850219397283e-2, -1.7578125e-2]),
    np.array([3.70920001185047927108779319836e-2, 0.0, 0.0,
              1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
              -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3]),
    np.array([6.24110958716075717114429577812e-1, 0.0, 0.0,
              -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
              2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
              -4.34898841810699588477366255144e1]),
    np.array([4.77662536438264365890433908527e-1, 0.0, 0.0,
              -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
              2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
              -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2]),
    np.array([-9.3714243008598732571704021658e-1, 0.0, 0.0,
              5.18637242884406370830023853209, 1.09143734899672957818500254654,
              -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
              2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
              -3.0467644718982195003823669022]),
    np.array([2.27331014751653820792359768449, 0.0, 0.0,
              -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
              -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
              -2.85899827713502369474065508674, -8.87285693353062954433549289258,
              1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1]),
]
#: eighth-order weights of the twelve stages
_DOP_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])
#: fifth-order error weights, and the third-order ones (the eighth-order
#: weights minus the embedded third-order formula's)
_DOP_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
])
_DOP_E3 = _DOP_B - np.array([
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1,
])
#: the eleven distinct stage nodes c_2..c_12 in increasing order (the c's are
#: not monotone; the FSAL stage reuses c_12 = 1), and each stage's node index
_DOP_NODES = np.sort(_DOP_C[1:])
_DOP_STAGE_NODE = np.searchsorted(_DOP_NODES, _DOP_C)


def _check_tolerances(rtol: float, atol: float) -> None:
    """Raise ValueError naming rtol or atol unless it is finite and non-negative.

    An infinite tolerance would accept every step: error control off.
    """
    for name, value in (("rtol", rtol), ("atol", atol)):
        if not 0.0 <= value < math.inf:
            raise ValueError(f"rtol and atol must be non-negative and finite: {name} is {value}")


def _error_norm(h: float, e5: np.ndarray, e3: np.ndarray, scale: np.ndarray) -> float:
    """Hairer's DOP853 error norm h |r5|^2 / sqrt((|r5|^2 + |r3|^2 / 100) n), r = |e| / scale.

    e5 and e3 are the fifth- and third-order error estimates of a step of
    length h, n entries each, and scale the tolerance of each entry.  The
    ratios are taken against the scale times 2^-m, m the power of two that
    brings the smallest scale to the largest |e|, so no ratio exceeds 2 and
    no square overflows, and the norm is scaled back by 2^-m at the end.
    Multiplying by a power of two is exact, so the norm has the plain
    formula's bits wherever that one overflows nowhere; with a tolerance
    near the smallest float, where the plain squares overflow, it is still
    a number, inf only past the largest float.  Zero estimates give 0.
    """
    a5, a3 = np.abs(e5), np.abs(e3)
    m = math.frexp(scale.min())[1] - math.frexp(np.maximum(a5, a3).max())[1]
    s = np.ldexp(scale, -m)
    r5, r3 = a5 / s, a3 / s
    sq5 = float(r5.dot(r5))
    denom = sq5 + 0.01 * float(r3.dot(r3))
    if denom == 0.0:
        return 0.0
    try:
        return math.ldexp(h * sq5 / math.sqrt(denom * e5.size), -m)
    except OverflowError:
        return math.inf


def integrate(
    gen_of_t: Callable[[np.ndarray], LindbladGenerator],
    rho0: np.ndarray,
    tau_span: tuple[float, float],
    rtol: float = _DEFAULT_RTOL,
    atol: float = _DEFAULT_ATOL,
    checkpoints: Sequence[float] | None = None,
) -> Trajectory:
    """Integrate d(rho)/d(tau) = L_tau[rho] with adaptive error control.

    Dormand-Prince RK 8(5,3) (DOP853) with FSAL and PI step-size control:
    order-8 propagation, and the error norm of Hairer's DOP853 built from
    the fifth- and third-order estimates, controlled as an order-7 estimate.
    The first step is span/1000 and steps are not capped.  The run stops at
    each checkpoint after t0 and at t1, in order, and returns one state per
    stop, plus the initial state when a checkpoint lies within 1e-12 of t0;
    a checkpoint within 1e-12 of t1 stands for t1.  A stop is reached by
    shortening the step to land on it, or, when roundoff leaves a gap below
    1e-12 relative, by snapping to it.  A bound of ``tau_span``, a
    checkpoint or a tolerance that is not finite, or a negative tolerance,
    raises ValueError naming it, before any call of ``gen_of_t``.

    ``gen_of_t`` is called once per step attempt, with the attempt's eleven
    distinct stage times (c_2..c_12 in increasing order; the final FSAL
    stage reuses c_12 = 1) as one 1-D array, and once at the start with
    ``[t0]``.  It returns their generators as one ``LindbladGenerator`` of
    (n, dim, dim) stacks, element k belonging to time k, the contract of
    ``Protocol.U`` for phases.  A generator built of
    single matrices, such as ``lambda tau: gen``, stands for all n times.
    The generator becomes a stack of superoperators (``vectorize``), and each
    stage right-hand side is one matrix-vector product.

    The initial state must be a valid density matrix; Hermiticity, trace and
    positivity are re-checked at every accepted step and a violation beyond
    100x the standing tolerances aborts the run (states are never projected
    back, so integrator bugs cannot hide).  The accepted states are checked in
    stacks of ``_WATCH_BLOCK``, and the queue is checked before the run
    returns or any error leaves it, so the earliest violation is the one
    raised, with the tau ``check_invariants`` would name.
    """
    _check_tolerances(rtol, atol)
    if atol == 0.0:
        raise ValueError("atol must be positive: the error scale atol + rtol*|rho| "
                         "vanishes on zero entries of rho")
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density_matrix(rho0)
    dim = rho0.shape[0]
    t0, t1 = float(tau_span[0]), float(tau_span[1])
    _require_each(np.isfinite([t0, t1]), [t0, t1], "tau_span bound {} is not finite")
    span = t1 - t0
    if span < 0:
        raise ValueError("backward integration not supported")
    if checkpoints is None:
        cps = [t1]
    else:
        cps = [float(c) for c in checkpoints]
        _require_each(np.isfinite(cps), cps, "checkpoint {} is not finite")
        cps.sort()
        if cps and (cps[0] < t0 - 1e-12 or cps[-1] > t1 + 1e-12):
            raise ValueError("checkpoints outside integration span")
        if not cps or abs(cps[-1] - t1) > 1e-12:
            cps.append(t1)
    out_t: list[float] = []
    out_rho: list[np.ndarray] = []
    if abs(cps[0] - t0) <= 1e-12:
        out_t.append(t0)
        out_rho.append(rho0.copy())
        cps = cps[1:]
    if span == 0.0:
        return Trajectory(np.array(out_t), out_rho, StepStats(0, 0, 0, 0))

    def superoperators(taus):
        gen = gen_of_t(taus)
        if gen.dim != dim:
            raise ValueError(f"dimension mismatch: generator {gen.dim} vs rho {dim}")
        sup = vectorize(gen)
        if sup.shape[:-2] == taus.shape:
            return sup
        return np.broadcast_to(sup, taus.shape + sup.shape[-2:])  # one generator for every time

    t, y = t0, rho0.reshape(-1)
    h_free = span / 1e3
    n_accept = n_reject = 0
    err_prev = 1.0
    k = np.empty((13,) + y.shape, dtype=complex)  # stage slopes; k[0] carries over (FSAL)
    k[0] = superoperators(np.array([t]))[0].dot(y)
    n_batch = 1
    # PI control for an order-7 error estimate
    safety, beta, alpha = 0.9, 0.4 / 8.0, 0.7 / 8.0
    watch = _Watch()
    try:
        # a checkpoint past t1 (by at most 1e-12) is landed on at t1
        for stop in np.minimum(cps, t1).tolist():
            while True:
                h = min(h_free, t1 - t)
                landing = t + h >= stop - 1e-14
                if landing:
                    h = stop - t
                    # roundoff accumulation can leave a negligible gap; snap to the
                    # stop instead of forcing a degenerate step
                    if h < 1e-12 * max(1.0, abs(t)):
                        t = stop
                        break
                if h < 1e-14 * max(1.0, abs(t)):
                    raise StepSizeUnderflowError(t, h)

                sups = superoperators(t + h * _DOP_NODES)
                n_batch += 1
                for i in range(1, 12):
                    k[i] = sups[_DOP_STAGE_NODE[i]].dot(y + h * _DOP_A[i].dot(k[:i]))
                y_new = y + h * _DOP_B.dot(k[:12])
                k[12] = sups[-1].dot(y_new)  # the slope at t + h, on the c = 1 node
                scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
                # NaN from NaN dynamics rejects the step
                err = _error_norm(h, _DOP_E5.dot(k[:12]), _DOP_E3.dot(k[:12]), scale)

                if not err <= 1.0:  # NaN included
                    n_reject += 1
                    h_free = h * min(1.0, max(0.2, safety * err ** (-1.0 / 8.0)))
                    continue
                err = max(err, 1e-10)
                factor = min(5.0, max(0.2, safety * err ** (-alpha) * err_prev ** beta))
                err_prev = err
                t, y = t + h, y_new
                k[0] = k[12]  # FSAL
                n_accept += 1
                watch.push(t, y.reshape(dim, dim))
                if landing:
                    # a clamped landing says nothing about the natural step scale
                    h_free = max(h_free, h * factor)
                    break
                h_free = h * factor
            out_t.append(t)
            out_rho.append(y.reshape(dim, dim).copy())
    except Exception:
        watch.flush()  # a queued violation outranks the error that ended the run
        raise
    watch.flush()

    attempts = n_accept + n_reject
    return Trajectory(np.array(out_t), out_rho,
                      StepStats(n_accept, n_reject, 12 * attempts + 1, n_batch),
                      watch.worst_herm, watch.worst_trace, watch.least_eig)


def vectorize(gen: LindbladGenerator) -> np.ndarray:
    """Superoperator S with S vec(rho) = vec(lindblad_rhs(rho, gen)), for stacks too.

    The Hamiltonian and each jump are (dim, dim) matrices or (..., dim, dim)
    stacks, element k of every stack belonging to generator k; the result
    has the broadcast leading shape.

    S is a sum of Kronecker products, S = sum_m X_m kron Y_m over the terms
    X = [L_1 .. L_n, A, 1] and Y = [conj L_1 .. conj L_n, 1, conj A], where
    A = -i p H - sum_k L_k^dag L_k / 2 (p the Hamiltonian prefactor), since
    rho -> A rho + rho A^dag is A kron 1 + 1 kron conj A.  One batched matrix
    product over the term axis, of the (d^2, m) matrix X[a, c, m] and the
    (m, d^2) matrix Y[m, b, e], forms every S[(a, b), (c, e)] at once.
    """
    dim = gen.dim
    h = gen.hamiltonian
    jumps = gen.jumps
    shapes = [m.shape[:-2] for m in jumps + (() if h is None else (h,))]
    lead = shapes[0] if shapes.count(shapes[0]) == len(shapes) else np.broadcast_shapes(*shapes)
    a = 0.0 if h is None else -1j * gen.hamiltonian_prefactor * h
    for jump in jumps:
        a = a - 0.5 * (dagger(jump) @ jump)
    eye = np.eye(dim)
    x = np.empty(lead + (dim, dim, len(jumps) + 2), dtype=complex)
    y = np.empty(lead + (len(jumps) + 2, dim, dim), dtype=complex)
    for m, (left, right) in enumerate([(j, j.conj()) for j in jumps] + [(a, eye), (eye, a.conj())]):
        x[..., m] = left
        y[..., m, :, :] = right
    products = x.reshape(lead + (dim * dim, -1)) @ y.reshape(lead + (-1, dim * dim))
    sup = products.reshape(lead + (dim,) * 4).swapaxes(-3, -2)
    return sup.reshape(lead + (dim * dim, dim * dim))


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
