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
from typing import Callable, Sequence

import numpy as np
import scipy.integrate

from . import effective as eff
from .effective import (
    DarkSpace,
    berry_holonomy,
    dark_space,
    embed_dark,
    evolve_effective,
    lab_generator,
    project_dark,
    rotating_generator,
)
from .engine import NUMERICAL_ERRORS, integrate
from .linalg import dagger, frobenius, matrix_exp
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

#: uniform steps over the cycle of the spin-3/2 closed form
_SPIN32_GRID = 4096

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
    """Purity after one cycle from the frozen-state commutator integral.

    Gamma_0 - (2 / gammaT^2) * int_0^gammaT Tr([rho, l^dag] l rho) dtau with
    l = V^dag ell V, evaluated on a Simpson grid; rho stays frozen at its
    initial value, which is the order the reduced theory controls.  Since
    Tr([rho, l^dag] l rho) = -Tr(rho D_l(rho)), the integral is taken from
    the frozen-state dissipator integral shared with the end-of-cycle state.
    """
    rho_d = eff._coerce_dark_state(rho_init, ds)
    total, _ = eff._frozen_state_integral(rho_d, protocol, ds)
    return _purity_after(rho_d, total, protocol.gammaT)


def _purity_after(rho_d: np.ndarray, total: np.ndarray, gammaT: float) -> float:
    """Tr rho^2 + (2 / gammaT^2) Re Tr(rho total) for a dissipator integral total."""
    return purity(rho_d) + (2.0 / gammaT**2) * float(np.trace(rho_d @ total).real)


def _prefix_scan(
    x: np.ndarray, combine: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
) -> np.ndarray:
    """Inclusive prefix of ``x`` along axis 0 in log2(n) vectorised passes (Hillis-Steele).

    Before the pass with offset k, entry j holds the prefix over the window of
    k entries ending at j; ``combine(late, early, k)`` joins it with the
    window just before, for all j >= k at once.
    """
    x = x.copy()
    k = 1
    while k < x.shape[0]:
        x[k:] = combine(x[k:], x[:-k], k)
        k *= 2
    return x


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
    for b and the product of the 2x2 holonomy steps, each an SU(2) rotation
    in closed form, are prefix scans of log2 depth.
    """
    rate = 3.0
    gammaT = float(gammaT)
    taus = np.linspace(0.0, gammaT, _SPIN32_GRID + 1)
    step = gammaT / _SPIN32_GRID
    phases = (taus[:-1, None] + step * eff._GL3_NODES) / gammaT  # (steps, 3) Gauss nodes
    mid = phases[:, 1]  # the middle Gauss node is the step's midpoint

    z = 0.5 * rate * step
    gains = 1.5 * _angle_values(path.dtheta, phases) @ (step * eff._decay_weights(z))
    b = _prefix_scan(gains, lambda late, early, k: late + math.exp(-z * k) * early)

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
    v = _prefix_scan(steps, lambda late, early, k: late @ early)

    rho0 = dark_state_from_bloch(n0)
    rho = v @ rho0 @ dagger(v)
    # m_x^2 + m_y^2 = 4 |rho_01|^2
    integrand = np.concatenate([[0.0], b**2 * 4.0 * np.abs(rho[:, 0, 1]) ** 2])
    loss = (2.0 / gammaT**2) * float(scipy.integrate.simpson(integrand, x=taus))
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
    tau fractions, at both cycle durations (it should shrink when gamma T
    grows), and the end-of-cycle purity prediction computed in both gauges by
    the frozen-state integral.  Both run the exact-decay recurrence, plain and
    gauged; the defects on the grid of every per-tau query (``eff._phase_grid``).
    """
    gauge = _sin2_gauge(_block_generator(ds, dark_generator, bright_generator))
    if rho_init is None:
        rho_d = np.eye(ds.d, dtype=complex) / ds.d if ds.d != 2 else dark_state_from_bloch((0, 0, 1))
    else:
        rho_d = _dark_state(rho_init, ds)

    defects, purities = [], []
    for gammaT in gammaT_pair:
        proto = protocol.with_gammaT(float(gammaT))
        worst = 0.0
        for frac in tau_fractions:
            taus = proto.gammaT * eff._phase_grid(proto, frac * proto.gammaT)
            ells = [eff._effective_jump_grid(proto, ds, taus, g)[-1] for g in (None, gauge)]
            worst = max(worst, frobenius(ells[1] - ells[0]))
        defects.append(worst)
        purities.append(tuple(
            _purity_after(rho_d, eff._frozen_state_integral(rho_d, proto, ds, g)[0], gammaT)
            for g in (None, gauge)
        ))
    plain, tilted = zip(*purities)

    ratio = defects[-1] / defects[0] if defects[0] > 0 else (0.0 if defects[-1] == 0 else math.inf)
    return GaugeReport(
        gammaT_values=tuple(float(g) for g in gammaT_pair),
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
    (the flagged outcome for loss-free protocols).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
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
    """Purity losses and effective-theory errors across cycle durations."""

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
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> SweepResult:
    """Exact lab-frame purity loss and effective-theory error versus gamma T.

    ``protocol`` is run at each cycle duration through ``with_gammaT``; its
    own gammaT is not used.  For each cycle duration: integrate the lab-frame
    equation across one period from the dark-space initial state, record the
    purity loss, and compare the dark-block of the end state against the
    effective equation (whose loss is recorded too) and its unitary-only
    truncation.  Fits log-log slopes.  Per-point integration failures are
    recorded and the sweep continues; if fewer than two cycle durations
    survive, the last failure (with its tau) is raised.
    """
    gammaTs = sorted(float(g) for g in gammaT_list)
    ds = dark_space(protocol.L_rot)  # the dark space and the start depend on L_rot only
    rho_d = _dark_state(rho_init, ds)
    losses, errors, first_errors = [], [], []
    losses12, losses21, losses_reduced = [], [], []
    kept, failures, last_error = [], [], None
    for gammaT in gammaTs:
        proto = protocol.with_gammaT(gammaT)
        try:
            traj = integrate(
                lab_generator(proto), embed_dark(ds, rho_d), (0.0, gammaT),
                rtol=rtol, atol=atol,
            )
        except NUMERICAL_ERRORS as exc:
            failures.append(f"gammaT={gammaT}, tau={getattr(exc, 'tau', None)}: {exc}")
            last_error = exc
            continue
        final = traj.final
        losses.append(1.0 - purity(final))
        final_dd = project_dark(ds, final)
        rho_eff = evolve_effective(rho_d, proto, ds, [gammaT])[-1]
        losses_reduced.append(1.0 - purity(rho_eff))
        errors.append(trace_distance(final_dd, rho_eff))
        v_end = berry_holonomy(proto, ds, gammaT)
        first_errors.append(trace_distance(final_dd, v_end @ rho_d @ dagger(v_end)))
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
    )


@dataclass(frozen=True)
class EffectiveComparison:
    """Exact rotating-frame versus effective dark-block states over a cycle."""

    taus: tuple
    distances: tuple
    max_distance: float
    final_distance: float
    puritys_exact: tuple = ()
    puritys_effective: tuple = ()


def compare_effective_vs_full(
    protocol: Protocol,
    rho_init: np.ndarray | Sequence[float],
    n_checkpoints: int = 16,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> EffectiveComparison:
    """Trace-distance series between exact and effective reduced dynamics."""
    ds = dark_space(protocol.L_rot)
    rho_d = _dark_state(rho_init, ds)
    gammaT = protocol.gammaT
    taus = np.linspace(0.0, gammaT, n_checkpoints + 1)
    traj = integrate(
        rotating_generator(protocol), embed_dark(ds, rho_d), (0.0, gammaT),
        rtol=rtol, atol=atol, checkpoints=taus,
    )
    eff_states = evolve_effective(rho_d, protocol, ds, taus)
    dists, pur_ex, pur_eff = [], [], []
    for state, rho_eff in zip(traj.states, eff_states):
        dd = project_dark(ds, state)
        dists.append(trace_distance(dd, rho_eff))
        pur_ex.append(purity(dd))
        pur_eff.append(purity(rho_eff))
    return EffectiveComparison(
        taus=tuple(float(t) for t in taus),
        distances=tuple(dists),
        max_distance=max(dists),
        final_distance=dists[-1],
        puritys_exact=tuple(pur_ex),
        puritys_effective=tuple(pur_eff),
    )
