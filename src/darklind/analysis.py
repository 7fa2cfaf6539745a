"""Observables, quantitative predictions, scaling studies and gauge checks.

Turns the simulation machinery into numbers: purity and Bloch observables,
the two purity-degradation predictions (general commutator-form quadrature
and the spin-3/2 closed form), log-log convergence sweeps against brute
force, and the covariance of the effective jump under dark-space gauge
transformations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import effective as eff
from .effective import (
    DarkSpace,
    dark_space,
    embed_dark,
    evolve_effective,
    project_dark,
    rotating_generator,
)
from .engine import _DEFAULT_ATOL, _DEFAULT_RTOL, NUMERICAL_ERRORS, Trajectory, integrate
from .linalg import (
    _compose_affine, _norms, _require_each, _scan, _simpson, dagger, frobenius, matrix_exp,
)
from .protocols import Protocol, _angle_values, path_from_descriptor

__all__ = [
    "purity",
    "trace_distance",
    "bloch_of",
    "bloch_transport",
    "dark_state_from_bloch",
    "purity_prediction_general",
    "purity_prediction_spin32",
    "gauge_transform",
    "gauge_covariance_check",
    "GaugeReport",
    "convergence_sweep",
    "SweepResult",
    "compare_effective_vs_full",
    "EffectiveComparison",
    "fit_loglog",
]

#: uniform steps over the cycle of the spin-3/2 closed form, twice the cycle grid's,
#: so that a finer cycle grid refines both
_SPIN32_GRID = 2 * eff._FROZEN_GRID

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2)."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(rho @ rho).real)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the Hermitian difference."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    diff = 0.5 * (diff + dagger(diff))
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def bloch_of(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (Tr sigma_a rho) of a 2x2 state."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("Bloch vector requires a two-dimensional dark space")
    return np.array([float(np.trace(s @ rho).real) for s in _PAULI])


def bloch_transport(n0: Sequence[float], v: np.ndarray) -> np.ndarray:
    """Bloch vector of V rho V^dag for rho with Bloch vector n0."""
    return bloch_of(v @ dark_state_from_bloch(n0) @ dagger(v))


def dark_state_from_bloch(n: Sequence[float]) -> np.ndarray:
    """Qubit state (1 + n . sigma) / 2."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    _require_each(np.isfinite(n), n, "Bloch vector component {} is not finite")
    if np.linalg.norm(n) > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector has norm {np.linalg.norm(n):.6g} > 1")
    rho = 0.5 * np.eye(2, dtype=complex)
    for comp, sigma in zip(n, _PAULI):
        rho += 0.5 * comp * sigma
    return rho


def _dark_state(rho_init: np.ndarray | Sequence[float], ds: DarkSpace) -> np.ndarray:
    """The initial state as a d x d density matrix in the dark basis.

    A real 3-vector is a Bloch vector, which needs d = 2; any other state is
    taken as ``effective._coerce_dark_state`` takes it.
    """
    rho_arr = np.asarray(rho_init)
    if rho_arr.ndim == 1 and np.isrealobj(rho_arr):
        if ds.d != 2:
            raise ValueError("a Bloch vector requires a two-dimensional dark space")
        return dark_state_from_bloch(rho_arr)
    return eff._coerce_dark_state(rho_arr, ds)


def _closed_form_loss(protocol: Protocol, ds: DarkSpace, rho_d: np.ndarray) -> float:
    """One-cycle loss of the spin-3/2 closed form from rho_d, NaN where it does not apply.

    It applies to the spin32 family with d = 2; a hand-built PathSpec has an
    empty descriptor, so it has no closed form.
    """
    path_desc = protocol.descriptor.get("path")
    if protocol.descriptor.get("family") != "spin32" or not path_desc or ds.d != 2:
        return math.nan
    path = path_from_descriptor(path_desc)
    return 1.0 - purity_prediction_spin32(path, bloch_of(rho_d), protocol.gammaT)


def purity_prediction_general(
    rho_init: np.ndarray,
    protocol: Protocol,
    ds: DarkSpace,
) -> float:
    """Purity after one cycle from the frozen-state commutator integral (eq. 12).

    Gamma_0 - (2 / gammaT^2) * int_0^gammaT Tr([rho, l^dag] l rho) dtau with
    l = V^dag ell V, the frame jump series on the cycle grid.  Since
    Tr([rho, l^dag] l rho) = -Tr(rho D_l(rho)), the integral is the frozen-state
    superoperator M = int D_l dtau (Simpson's rule on the cycle grid) applied
    to rho, the linear map the end-of-cycle formula applies too
    (``_frozen_purity``).  M is read off the protocol's cycle record
    (``eff._cycle_record``, ``dissipator``): built by the
    first of this, ``evolve_effective`` or the end-of-cycle formula on the
    protocol and dark space, and shared by the others.  rho stays frozen at
    its initial value, which is the order the reduced theory controls.  A
    jump that feeds the bright space back into itself with d >= 2 raises
    ValueError, as for every reader of the record.
    """
    rho_d = eff._coerce_dark_state(rho_init, ds)
    m = eff._cycle_record(protocol, ds).dissipator
    return _frozen_purity(rho_d, m, protocol.gammaT)


def _frozen_purity(rho_d: np.ndarray, m: np.ndarray, gammaT: float) -> float:
    """Tr rho^2 + (2 / gammaT^2) Re Tr(rho int D_l(rho) dtau) of eq. 12, from M = int D_l dtau."""
    total = eff._frozen_dissipator(rho_d, m)
    return purity(rho_d) + (2.0 / gammaT**2) * float(np.trace(rho_d @ total).real)


def purity_prediction_spin32(path, n0: Sequence[float], gammaT: float) -> float:
    """Closed-form purity after one cycle for the spin-3/2 protocol.

    Independent of the operator machinery, with which it shares only the
    scalar step rule: the kernel coefficient b_tau = (3/2) int e^{3(s-tau)/2}
    theta'(s) ds is integrated on a fixed uniform grid of _SPIN32_GRID steps
    with the exact-decay node weights of the kernel recurrence
    (``effective._decay_weights`` on ``effective._GL3_NODES``), the Bloch
    vector is transported with the dark-block holonomy, and the degradation
    is (2/gammaT^2) int b_tau^2 (m_x^2 + m_y^2) dtau.  The path
    angles are evaluated on all nodes at once; the constant-decay recurrence
    for b (as affine maps) and the product of the 2x2 holonomy steps, each an
    SU(2) rotation in closed form, are scans (``linalg._scan``).
    """
    rate = 3.0
    gammaT = float(gammaT)
    if not (math.isfinite(gammaT) and gammaT > 0):
        raise ValueError(f"gammaT must be finite and positive, got {gammaT}")
    rho0 = dark_state_from_bloch(n0)
    taus = np.linspace(0.0, gammaT, _SPIN32_GRID + 1)
    step = gammaT / _SPIN32_GRID
    phases = (taus[:-1, None] + step * eff._GL3_NODES) / gammaT  # (steps, 3) Gauss nodes
    mid = phases[:, 1]  # the middle Gauss node is the step's midpoint

    z = 0.5 * rate * step
    gains = 1.5 * _angle_values(path.dtheta, phases) @ (step * eff._decay_weights(z))
    # b_k+1 = e^{-z} b_k + gain_k, b_0 = 0: each step as the affine map [e^{-z} | gain]
    b = _scan(np.stack([np.full_like(gains, math.exp(-z)), gains], axis=-1), _compose_affine)[:, 1]

    theta, dtheta, dphi = (_angle_values(fn, mid) for fn in (path.theta, path.dtheta, path.dphi))
    # the dark-block Hamiltonian h.sigma, h = (phi' sin theta, -theta', -phi' cos theta / 2),
    # acts for the phase step d; exp(-i d h.sigma) = cos(|h| d) 1 - i d sinc(|h| d) h.sigma
    hx, hy, hz = dphi * np.sin(theta), -dtheta, -0.5 * dphi * np.cos(theta)
    d = step / gammaT
    rotation = np.sqrt(hx * hx + hy * hy + hz * hz) * d
    c, s = np.cos(rotation), d * np.sinc(rotation / math.pi)
    steps = np.empty((_SPIN32_GRID, 2, 2), dtype=complex)
    steps[:, 0, 0] = c - 1j * s * hz
    steps[:, 1, 1] = c + 1j * s * hz
    steps[:, 0, 1] = -s * (1j * hx + hy)
    steps[:, 1, 0] = -s * (1j * hx - hy)
    v = _scan(steps, np.matmul)

    rho = v @ rho0 @ dagger(v)
    # m_x^2 + m_y^2 = 4 |rho_01|^2
    integrand = np.concatenate([[0.0], b**2 * 4.0 * np.abs(rho[:, 0, 1]) ** 2])
    loss = (2.0 / gammaT**2) * float(_simpson(integrand, taus))
    return purity(rho0) - loss


def _block_generator(
    ds: DarkSpace, dark_generator: np.ndarray, bright_generator: np.ndarray | None = None
) -> np.ndarray:
    """Full-space generator P0 G P0 + P_perp G' P_perp of ``gauge_transform``."""
    dark_generator = np.asarray(dark_generator, dtype=complex)
    if frobenius(dark_generator - dagger(dark_generator)) > 1e-12 * max(
        frobenius(dark_generator), 1.0
    ):
        raise ValueError("dark generator must be Hermitian")
    gen = embed_dark(ds, dark_generator)
    if bright_generator is not None:
        perp = np.eye(ds.basis.shape[0]) - ds.projector
        piece = perp @ np.asarray(bright_generator, dtype=complex) @ perp
        if frobenius(piece - dagger(piece)) > 1e-12 * max(frobenius(piece), 1.0):
            raise ValueError("bright generator block must be Hermitian")
        gen = gen + piece
    return gen


def gauge_transform(
    ds: DarkSpace,
    dark_generator: np.ndarray,
    bright_generator: np.ndarray | None = None,
) -> np.ndarray:
    """Block unitary omega = exp(i (P0 G P0 + P_perp G' P_perp)).

    ``dark_generator`` is a Hermitian d x d matrix in the dark basis;
    ``bright_generator`` an optional full-space Hermitian matrix whose
    orthogonal-block part is used.  The result commutes with the projector.
    """
    return matrix_exp(1j * _block_generator(ds, dark_generator, bright_generator))


def _sin2_gauge(gen_full: np.ndarray) -> eff.Gauge:
    """Cyclic gauge s -> (omega, i omega' omega^dag) for omega(s) = exp(i sin^2(pi s) G).

    Takes a 1-D array of phases and returns two stacks (``eff.Gauge``).
    """
    w, v = np.linalg.eigh(gen_full)
    vd = dagger(v)

    def gauge(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = np.reshape(s, (-1, 1, 1))
        omega = (v * np.exp(1j * np.sin(math.pi * s) ** 2 * w)) @ vd
        return omega, -math.pi * np.sin(2.0 * math.pi * s) * gen_full

    return gauge


def _increasing_gammaTs(values: Sequence[float]) -> list[float]:
    """The cycle durations in increasing order.

    One that is not finite and positive, or that is repeated, raises
    ValueError naming it.
    """
    gammaTs = np.sort(np.asarray(values, dtype=float))
    _require_each(np.isfinite(gammaTs) & (gammaTs > 0.0), gammaTs,
                  "gammaT {} is not finite and positive")
    _require_each(np.diff(gammaTs) > 0.0, gammaTs[1:], "gammaT {} is repeated")
    return gammaTs.tolist()


@dataclass(frozen=True)
class GaugeReport:
    """Covariance defects and end-of-cycle purities in two gauges."""

    gammaT_values: tuple
    defects: tuple
    defect_ratio: float
    purity_plain: tuple
    purity_tilted: tuple
    purity_differences: tuple
    tau_fractions: tuple


def gauge_covariance_check(
    protocol: Protocol,
    ds: DarkSpace,
    dark_generator: np.ndarray,
    tau_fractions: Sequence[float] = (0.3, 0.5, 0.7),
    gammaT_pair: tuple[float, float] = (100.0, 200.0),
    rho_init: np.ndarray | None = None,
    bright_generator: np.ndarray | None = None,
) -> GaugeReport:
    """Covariance of the effective jump under a cyclic dark-space gauge.

    The gauge omega(s) = exp(i sin^2(pi s) G) closes over the cycle and
    varies on the protocol scale, so the tilted jump matches its covariant
    image omega ell omega^dag only up to a defect of order 1/(gamma T).  The
    report records the defect |ell^omega_tau - ell_tau|_F, the worst over the
    tau fractions (0 for none), at both cycle durations, taken in increasing
    order whatever the order of ``gammaT_pair`` (the defect should shrink when
    gamma T grows, and ``defect_ratio`` is the larger duration's over the
    smaller's), and the end-of-cycle purity prediction of eq. 12 computed in both
    gauges from the frozen-state superoperator M of the frame jump l over the
    cycle (``_frozen_purity``).  Per gamma T two cycle records
    (``eff._cycle_record``), the protocol's plain one and a fresh one in the
    gauge frame, give both, plain and gauged: ell at the tau fractions by
    one partial step each (``jumps``), and M over the whole cycle grid
    (``dissipator``), each record evaluating the Hamiltonian once per node.
    ``gammaT_pair`` must hold two distinct, finite, positive values, or a
    ValueError names the first that is not, before any kernel work.
    """
    if np.shape(gammaT_pair) != (2,):
        raise ValueError(f"gammaT_pair must be two values, got {gammaT_pair!r}")
    gammaTs = _increasing_gammaTs(gammaT_pair)
    gauge = _sin2_gauge(_block_generator(ds, dark_generator, bright_generator))
    if rho_init is None:
        rho_d = np.eye(ds.d, dtype=complex) / ds.d if ds.d != 2 else dark_state_from_bloch((0, 0, 1))
    else:
        rho_d = _dark_state(rho_init, ds)

    defects, purities = [], []
    for gammaT in gammaTs:
        proto = protocol.with_gammaT(gammaT)
        taus = proto.gammaT * np.asarray(tau_fractions, dtype=float)
        records = [eff._cycle_record(proto, ds, g) for g in (None, gauge)]
        plain, tilted = (record.jumps(taus) for record in records)
        defects.append(float(_norms(tilted - plain).max(initial=0.0)))
        purities.append(tuple(_frozen_purity(rho_d, record.dissipator, proto.gammaT)
                              for record in records))
    plain, tilted = zip(*purities)

    ratio = defects[-1] / defects[0] if defects[0] > 0 else (0.0 if defects[-1] == 0 else math.inf)
    return GaugeReport(
        gammaT_values=tuple(gammaTs),
        defects=tuple(defects),
        defect_ratio=float(ratio),
        purity_plain=plain,
        purity_tilted=tilted,
        purity_differences=tuple(abs(a - b) for a, b in zip(plain, tilted)),
        tau_fractions=tuple(tau_fractions),
    )


def fit_loglog(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares slope, intercept and r^2 of log y against log x.

    Returns (nan, nan, nan) when any y is too small for a meaningful log
    (the flagged outcome for loss-free protocols).  x and y must be 1-D and
    of one length, and a NaN or infinite x or y, or an x that is not
    positive, raises ValueError naming the first one.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"x and y must be 1-D of one length, got shapes {x.shape} and {y.shape}")
    _require_each(np.isfinite(x), x, "x value {} is not finite")
    _require_each(np.isfinite(y), y, "y value {} is not finite")
    _require_each(x > 0.0, x, "x value {} is not positive")
    if x.size < 2 or np.any(y <= 1e-14):
        return math.nan, math.nan, math.nan
    lx, ly = np.log(x), np.log(y)
    coeffs = np.polyfit(lx, ly, 1)
    fitted = np.polyval(coeffs, lx)
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coeffs[0]), float(coeffs[1]), r2


@dataclass(frozen=True)
class SweepResult:
    """Purity losses and effective-theory errors across cycle durations.

    ``final_states`` holds the brute-force end state at each kept cycle
    duration, in the rotating frame, as a tuple of rows of complex entries,
    so that two results compare with ``==``.
    """

    gammaT_values: tuple
    losses: tuple
    errors: tuple
    fitted_slope: float
    fit_r2: float
    losses_eq12: tuple = ()
    losses_eq21: tuple = ()
    losses_reduced: tuple = ()
    first_order_errors: tuple = ()
    error_slope: float = math.nan
    error_r2: float = math.nan
    first_order_slope: float = math.nan
    first_order_r2: float = math.nan
    loss_prefactor: float = math.nan
    failures: tuple = ()
    final_states: tuple = ()

    def __post_init__(self):
        n = len(self.gammaT_values)
        if len(self.losses) != n or len(self.errors) != n:
            raise ValueError("sweep field lengths disagree")
        if any(b <= a for a, b in zip(self.gammaT_values, self.gammaT_values[1:])):
            raise ValueError("gammaT values must be strictly increasing")


def convergence_sweep(
    protocol: Protocol,
    gammaT_list: Sequence[float],
    rho_init: np.ndarray | Sequence[float],
    rtol: float = _DEFAULT_RTOL,
    atol: float = _DEFAULT_ATOL,
) -> SweepResult:
    """Exact purity loss and effective-theory error versus gamma T (rotating-frame brute force).

    ``protocol`` is run at each cycle duration through ``with_gammaT``; its
    own gammaT is not used.  The cycle durations are taken in increasing
    order; one that is repeated, not finite or not positive raises
    ValueError naming it before any integration.  For each cycle duration,
    ``compare_effective_vs_full`` at the times 0 and gamma T integrates the
    rotating-frame equation across one period from the dark-space initial
    state, next to the effective equation.  U closes to a phase at gamma T,
    so the end state is the lab-frame one: the sweep records its purity
    loss, the loss of the effective equation's end state and the distance
    between the two dark blocks, and that of the unitary-only truncation,
    whose holonomy V_end is read off the cycle record that the effective
    run grew and eq. 12 reads (``eff._cycle_record``), so the drive is
    evaluated along the cycle once per cycle duration.
    Fits log-log slopes.  Per-point numerical failures are recorded with
    their tau and the sweep continues; if fewer than two cycle durations
    survive, the last failure is raised.
    """
    gammaTs = _increasing_gammaTs(gammaT_list)
    ds = dark_space(protocol.L_rot)  # the dark space and the start depend on L_rot only
    rho_d = _dark_state(rho_init, ds)
    losses, errors, first_errors, finals = [], [], [], []
    losses12, losses21, losses_reduced = [], [], []
    kept, failures, last_error = [], [], None
    for gammaT in gammaTs:
        proto = protocol.with_gammaT(gammaT)
        try:
            comparison = compare_effective_vs_full(proto, rho_d, 1, rtol=rtol, atol=atol)
        except NUMERICAL_ERRORS as exc:
            failures.append(f"gammaT={gammaT}, tau={getattr(exc, 'tau', None)}: {exc}")
            last_error = exc
            continue
        final = comparison.trajectory.final
        losses.append(1.0 - purity(final))
        finals.append(tuple(map(tuple, final.tolist())))
        losses_reduced.append(1.0 - comparison.puritys_effective[-1])
        errors.append(comparison.final_distance)
        _, v_end = eff._cycle_record(proto, ds).frame
        end_dd = comparison.dark_states[-1]
        first_errors.append(trace_distance(end_dd, v_end @ rho_d @ dagger(v_end)))
        losses12.append(1.0 - purity_prediction_general(rho_d, proto, ds))
        losses21.append(_closed_form_loss(proto, ds, rho_d))
        kept.append(gammaT)
    if last_error is not None and len(kept) < 2:
        raise last_error

    slope, _, r2 = fit_loglog(kept, losses)
    err_slope, _, err_r2 = fit_loglog(kept, errors)
    first_slope, _, first_r2 = fit_loglog(kept, first_errors)
    prefactor = losses[-1] * kept[-1] if losses else math.nan
    return SweepResult(
        gammaT_values=tuple(kept),
        losses=tuple(losses),
        errors=tuple(errors),
        fitted_slope=slope,
        fit_r2=r2,
        losses_eq12=tuple(losses12),
        losses_eq21=tuple(losses21),
        losses_reduced=tuple(losses_reduced),
        first_order_errors=tuple(first_errors),
        error_slope=err_slope,
        error_r2=err_r2,
        first_order_slope=first_slope,
        first_order_r2=first_r2,
        loss_prefactor=prefactor,
        failures=tuple(failures),
        final_states=tuple(finals),
    )


@dataclass(frozen=True)
class EffectiveComparison:
    """Exact rotating-frame versus effective dark-block states over a cycle.

    ``trajectory`` is the brute-force run, with its full states at ``taus``,
    its ``StepStats`` and its worst margins; ``dark_states`` is the
    (n, d, d) stack of the dark blocks of those states and
    ``reduced_states`` the effective equation's states at ``taus``.
    """

    taus: tuple
    distances: tuple
    max_distance: float
    final_distance: float
    puritys_exact: tuple = ()
    puritys_effective: tuple = ()
    trajectory: Trajectory | None = None
    dark_states: np.ndarray | None = None
    reduced_states: tuple = ()


def compare_effective_vs_full(
    protocol: Protocol,
    rho_init: np.ndarray | Sequence[float],
    n_checkpoints: int = 16,
    rtol: float = _DEFAULT_RTOL,
    atol: float = _DEFAULT_ATOL,
) -> EffectiveComparison:
    """Exact and effective reduced dynamics at the same times, brute force in the rotating frame.

    The package's one exact-vs-reduced comparison.  Over n_checkpoints + 1
    equally spaced times from 0 to gamma T, ``integrate`` runs the
    rotating-frame equation (``rotating_generator``: the fixed jump and the
    1/(gamma T)-weighted adiabatic Hamiltonian) from the embedded dark start,
    landing on each time, and ``evolve_effective`` gives the reduced states
    there.  The lab-frame state is U^dag rho U at phase tau/gamma T: the
    purity, trace and eigenvalues of a state are the same in both frames,
    and at gamma T, where U closes to a phase, so is the state.  The series
    holds the trace distance between each dark block and its reduced state
    and both purities; ``n_checkpoints`` must be an integer of at least 1 (a
    bool is none), so that the end of the cycle is compared.
    """
    integer = isinstance(n_checkpoints, (int, np.integer)) and not isinstance(n_checkpoints, bool)
    if not (integer and n_checkpoints >= 1):
        raise ValueError(f"n_checkpoints must be a positive integer, got {n_checkpoints}")
    ds = dark_space(protocol.L_rot)
    rho_d = _dark_state(rho_init, ds)
    taus = np.linspace(0.0, protocol.gammaT, n_checkpoints + 1)
    traj = integrate(
        rotating_generator(protocol), embed_dark(ds, rho_d), (0.0, protocol.gammaT),
        rtol=rtol, atol=atol, checkpoints=taus,
    )
    dark = project_dark(ds, np.asarray(traj.states))
    reduced = evolve_effective(rho_d, protocol, ds, taus)
    dists = [trace_distance(dd, rho_eff) for dd, rho_eff in zip(dark, reduced)]
    return EffectiveComparison(
        taus=tuple(float(t) for t in taus),
        distances=tuple(dists),
        max_distance=max(dists),
        final_distance=dists[-1],
        puritys_exact=tuple(purity(dd) for dd in dark),
        puritys_effective=tuple(purity(rho_eff) for rho_eff in reduced),
        trajectory=traj,
        dark_states=dark,
        reduced_states=tuple(reduced),
    )
