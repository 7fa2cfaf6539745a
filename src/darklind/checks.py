"""Acceptance battery: every quantitative exit criterion as a callable check.

Each criterion returns a result record with the expected window, the observed
value and a pass flag; the CLI ``check`` command and the test suite both run
this battery.  Expensive artifacts (the exact-integration sweep with its
reduced-equation and predicted losses, the exact runs at gamma T 200) are
computed once per context and shared.

Tolerance windows are pinned here, not calibrated at run time; the sweep and
gauge verdicts (``sweep_flags``, ``gauge_flags``) also flag the CLI reports.
Two windows are knowingly tight at the pinned cycle durations because the
first-order purity law carries large second-order corrections there; the
battery reports those honestly rather than widening them (see the sweep and
purity-law checks, and the cross-check report of the prediction criterion).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import (
    GaugeReport,
    SweepResult,
    convergence_sweep,
    dark_state_from_bloch,
    fit_loglog,
    gauge_covariance_check,
    purity,
    trace_distance,
)
from .effective import (
    berry_holonomy,
    c_tau_ode_residual,
    dark_space,
    effective_jump,
    embed_dark,
    lab_generator,
)
from .engine import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    TRACE_TOL,
    LindbladGenerator,
    _physicality,
    asymptotic_channel,
    dark_block_kraus,
    integrate,
    kraus_from_channel,
    vectorize,
)
from .linalg import dagger, frobenius
from .protocols import linear_path, spin32_protocol

__all__ = ["CriterionResult", "AcceptanceContext", "run_battery", "CRITERIA",
           "sweep_flags", "gauge_flags", "prediction_flags"]

SWEEP_GAMMATS = (100.0, 200.0, 400.0, 800.0)
RTOL, ATOL = 1e-9, 1e-12  # integration tolerances of every battery run

# Windows of the sweep and gauge verdicts; slopes are closed (lo, hi) bounds.
LOSS_SLOPE = (-1.15, -0.85)
LOSS_FIT_R2_SHORTFALL = 0.01  # largest 1 - r^2 of the purity-loss fit
EFFECTIVE_SLOPE = (-2.4, -1.6)
FIRST_ORDER_SLOPE = (-1.2, -0.8)
GAUGE_DEFECT_RATIO = 0.7  # largest ratio of the covariance defects
GAUGE_PURITY_PREFACTOR = 10.0  # c in the gauge purity-difference bound c / gammaT^2


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    expected: str
    observed: str
    passed: bool
    runtime_s: float = math.nan  # set by run_battery, which times each criterion
    detail: dict = field(default_factory=dict)


class AcceptanceContext:
    """Shared lazily-computed artifacts for the battery.

    Every criterion runs the one linear spin-3/2 protocol; other cycle
    durations come from ``protocol_200.with_gammaT``.
    """

    def __init__(self):
        self.protocol_200 = spin32_protocol(linear_path(1, 0), 200.0)
        self.ds = dark_space(self.protocol_200.L_rot)
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def sweep(self):
        return self._get(
            "sweep",
            lambda: convergence_sweep(self.protocol_200, SWEEP_GAMMATS, (0.0, 0.0, 1.0),
                                      rtol=RTOL, atol=ATOL),
        )

    def exact_run(self, n0, gammaT):
        key = ("exact", tuple(n0), gammaT)

        def build():
            proto = self.protocol_200.with_gammaT(gammaT)
            rho_d = dark_state_from_bloch(n0)
            start = time.perf_counter()
            traj = integrate(lab_generator(proto), embed_dark(self.ds, rho_d), (0.0, gammaT),
                             rtol=RTOL, atol=ATOL, checkpoints=np.linspace(0.0, gammaT, 33))
            return traj, time.perf_counter() - start

        return self._get(key, build)


def in_window(value: float, lo: float, hi: float) -> bool:
    return bool(lo <= value <= hi)


def prediction_flags(*losses: float) -> dict[str, bool]:
    """Verdict on predicted purity losses: every finite one is a loss in [0, 1]."""
    return {
        "predictions_in_unit_interval": all(
            in_window(loss, 0.0, 1.0) for loss in losses if math.isfinite(loss)
        ),
    }


def sweep_flags(sweep: SweepResult) -> dict[str, bool]:
    """Verdicts of a convergence sweep: loss slope and fit, accuracy orders, predictions."""
    return {
        "slope_in_window": in_window(sweep.fitted_slope, *LOSS_SLOPE),
        "fit_r2_ok": bool(sweep.fit_r2 >= 1.0 - LOSS_FIT_R2_SHORTFALL),
        "effective_order_in_window": in_window(sweep.error_slope, *EFFECTIVE_SLOPE),
        "first_order_in_window": in_window(sweep.first_order_slope, *FIRST_ORDER_SLOPE),
        **prediction_flags(*sweep.losses_eq12, *sweep.losses_eq21),
    }


def gauge_flags(report: GaugeReport) -> dict[str, bool]:
    """Verdicts of a gauge check: defect ratio, purity gauge differences."""
    return {
        "defect_shrinks": bool(report.defect_ratio <= GAUGE_DEFECT_RATIO),
        "purity_gauge_invariant": all(
            diff <= GAUGE_PURITY_PREFACTOR / gammaT**2
            for diff, gammaT in zip(report.purity_differences, report.gammaT_values)
        ),
    }


def check_purity_law(ctx: AcceptanceContext) -> CriterionResult:
    """Exact one-cycle purity loss against the leading-order closed form."""
    rel_window = 0.15
    detail: dict = {}
    passed = True
    runtime_total = 0.0
    for n0, prefactor in (((0.0, 0.0, 1.0), 4 * math.pi**2), ((0.0, 1.0, 0.0), 8 * math.pi**2)):
        traj, runtime = ctx.exact_run(n0, 200.0)
        runtime_total += runtime
        loss = 1.0 - purity(traj.final)
        predicted = prefactor / 200.0
        rel = abs(loss - predicted) / predicted
        detail[f"n0={n0}"] = {
            "loss_exact": loss,
            "loss_predicted": predicted,
            "relative_deviation": rel,
        }
        passed = passed and rel <= rel_window
    detail["runtime_s"] = runtime_total
    passed = passed and runtime_total <= 60.0
    observed = ", ".join(
        f"{v['relative_deviation']:.3f}" for k, v in detail.items() if k.startswith("n0")
    )
    return CriterionResult(
        1,
        "spin-3/2 purity law at gammaT=200",
        f"relative deviation <= {rel_window:.3g}, runtime <= 60 s",
        f"deviations {observed}; runtime {runtime_total:.1f} s",
        passed,
        detail=detail,
    )


def check_loss_scaling(ctx: AcceptanceContext) -> CriterionResult:
    """Algebraic 1/(gamma T) scaling of the exact purity loss."""
    sweep = ctx.sweep
    flags = sweep_flags(sweep)
    lo, hi = LOSS_SLOPE
    return CriterionResult(
        2,
        "loss scales as the minus first power",
        f"slope in [{lo:.2f}, {hi:.2f}], r^2 >= {1.0 - LOSS_FIT_R2_SHORTFALL:.2f}",
        f"slope {sweep.fitted_slope:.4f}, r^2 {sweep.fit_r2:.4f}",
        flags["slope_in_window"] and flags["fit_r2_ok"],
        detail={"losses": sweep.losses, "losses_reduced": sweep.losses_reduced,
                "gammaT": sweep.gammaT_values},
    )


def check_effective_order(ctx: AcceptanceContext) -> CriterionResult:
    """Order of accuracy of the reduced equation and its unitary truncation."""
    sweep = ctx.sweep
    flags = sweep_flags(sweep)
    lo2, hi2 = EFFECTIVE_SLOPE
    lo1, hi1 = FIRST_ORDER_SLOPE
    return CriterionResult(
        3,
        "effective-equation accuracy orders",
        f"full slope in [{lo2:.2f}, {hi2:.2f}], unitary-only in [{lo1:.2f}, {hi1:.2f}]",
        f"full {sweep.error_slope:.3f}, unitary-only {sweep.first_order_slope:.3f}",
        flags["effective_order_in_window"] and flags["first_order_in_window"],
        detail={
            "distances": sweep.errors,
            "first_order_distances": sweep.first_order_errors,
        },
    )


def check_holonomy_trivial(ctx: AcceptanceContext) -> CriterionResult:
    """No Berry rotation accumulates over the single-winding cycle."""
    v = berry_holonomy(ctx.protocol_200, ctx.ds, 200.0)
    defect = frobenius(v - np.eye(ctx.ds.d))
    bound = 1e-8
    return CriterionResult(
        4,
        "holonomy triviality for theta = 2 pi s",
        f"|V - 1| <= {bound:.3g}",
        f"|V - 1| = {defect:.3g}",
        defect <= bound,
        detail={"defect": defect},
    )


def check_jump_closed_form(ctx: AcceptanceContext) -> CriterionResult:
    """Effective jump against a_tau = 0, b_tau = 2 pi (1 - e^{-3 tau / 2})."""
    sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    worst = 0.0
    for tau in np.linspace(0.0, 20.0, 81):
        ell = effective_jump(ctx.protocol_200, ctx.ds, float(tau))
        b = 2 * math.pi * (1.0 - math.exp(-1.5 * float(tau)))
        worst = max(worst, frobenius(ell - 1j * b * sigma_z))
    bound = 1e-6
    return CriterionResult(
        5,
        "effective jump closed form",
        f"max deviation <= {bound:.3g} over tau in [0, 20]",
        f"max deviation {worst:.3g}",
        worst <= bound,
        detail={"max_deviation": worst},
    )


def check_gauge_covariance(ctx: AcceptanceContext) -> CriterionResult:
    """Covariance defect shrinks with gamma T; purity is gauge insensitive."""
    sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    report = gauge_covariance_check(
        ctx.protocol_200, ctx.ds, (math.pi / 7.0) * sigma_z, gammaT_pair=(100.0, 200.0)
    )
    flags = gauge_flags(report)
    return CriterionResult(
        6,
        "gauge covariance of the effective jump",
        f"defect ratio <= {GAUGE_DEFECT_RATIO:.2f}; "
        f"purity gauge difference <= {GAUGE_PURITY_PREFACTOR:g}/(gammaT)^2",
        f"ratio {report.defect_ratio:.3f}; purity diffs "
        + ", ".join(f"{d:.2e}" for d in report.purity_differences),
        flags["defect_shrinks"] and flags["purity_gauge_invariant"],
        detail={
            "defects": report.defects,
            "purity_differences": report.purity_differences,
        },
    )


def check_kernel_and_channel(ctx: AcceptanceContext) -> CriterionResult:
    """Memory-kernel ODE residual, channel idempotence, Kraus structure."""
    taus = np.linspace(0.2, 20.0, 64)
    residual = c_tau_ode_residual(ctx.protocol_200, ctx.ds, taus)
    sup = vectorize(LindbladGenerator(hamiltonian=None, jumps=(ctx.protocol_200.L_rot,)))
    channel = asymptotic_channel(sup)
    idem = frobenius(channel @ channel - channel)
    kraus = dark_block_kraus(kraus_from_channel(channel), ctx.ds.projector)
    completeness = frobenius(sum(dagger(m) @ m for m in kraus) - np.eye(ctx.protocol_200.dim))
    p0 = ctx.ds.projector
    n_dark = sum(
        1 for m in kraus if frobenius(p0 @ m @ p0 - p0) <= 1e-8
    )
    n_offblock = sum(1 for m in kraus if frobenius(p0 @ m @ p0) <= 1e-8)
    ok = (
        residual <= 1e-7
        and idem <= 1e-8
        and completeness <= 1e-8
        and n_dark == 1
        and n_dark + n_offblock == len(kraus)
    )
    return CriterionResult(
        7,
        "kernel residual, asymptotic channel, Kraus structure",
        "residual <= 1e-07; idempotence and completeness <= 1e-08; "
        "exactly one Kraus operator with dark block P0",
        f"residual {residual:.2e}; idem {idem:.2e}; completeness {completeness:.2e}; "
        f"{n_dark} dark-block operator(s) of {len(kraus)}",
        ok,
        detail={"residual": residual, "idempotence": idem, "completeness": completeness},
    )


def check_structural_invariants(ctx: AcceptanceContext) -> CriterionResult:
    """Trace, Hermiticity, positivity and refinement self-consistency."""
    worst_trace = worst_herm = worst_neg = 0.0
    for n0 in ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0)):
        traj, _ = ctx.exact_run(n0, 200.0)
        for state in traj.states:
            herm, tr_dev, min_eig = _physicality(state)
            worst_trace = max(worst_trace, tr_dev)
            worst_herm = max(worst_herm, herm)
            worst_neg = max(worst_neg, -min_eig)
    proto = ctx.protocol_200.with_gammaT(100.0)
    rho_full = embed_dark(ctx.ds, dark_state_from_bloch((0.0, 0.0, 1.0)))
    fine = integrate(lab_generator(proto), rho_full, (0.0, 100.0), rtol=RTOL, atol=ATOL).final
    finer = integrate(lab_generator(proto), rho_full, (0.0, 100.0),
                      rtol=RTOL / 10.0, atol=ATOL / 10.0).final
    refinement = trace_distance(fine, finer)
    refinement_bound = 10.0 * RTOL
    ok = (
        worst_trace <= TRACE_TOL
        and worst_herm <= HERMITICITY_TOL
        and worst_neg <= POSITIVITY_TOL
        and refinement <= refinement_bound
    )
    return CriterionResult(
        8,
        "structural invariants and integrator self-consistency",
        f"trace <= {TRACE_TOL:.0e}, hermiticity <= {HERMITICITY_TOL:.0e}, "
        f"negativity <= {POSITIVITY_TOL:.0e}, refinement <= {refinement_bound:.0e}",
        f"trace {worst_trace:.1e}, herm {worst_herm:.1e}, neg {worst_neg:.1e}, "
        f"refinement {refinement:.1e}",
        ok,
        detail={
            "trace": worst_trace,
            "hermiticity": worst_herm,
            "negativity": worst_neg,
            "refinement": refinement,
        },
    )


def check_prediction_cross_check(ctx: AcceptanceContext) -> CriterionResult:
    """Frozen-state purity prediction against the integrated reduced purity.

    Both losses come from the sweep, from n0 = z.  Passes on agreement
    within 10/(gamma T)^2 at gamma T 200 and 800, or on a filed discrepancy
    report carrying the measured residual exponent over the sweep when the
    difference is systematic (the frozen-state formula linearizes the loss,
    so a clean power law with exponent near -2 is the expected signature).
    A sweep without gamma T 200 or 800 fails the criterion.
    """
    sweep = ctx.sweep
    series = [abs(r - p) for r, p in zip(sweep.losses_reduced, sweep.losses_eq12)]
    by_gammaT = dict(zip(sweep.gammaT_values, series))
    name = "purity prediction cross-check"
    expected = ("agreement within 10/(gammaT)^2 at gammaT in {200, 800}, or a filed "
                "discrepancy report with the measured residual exponent")
    pinned = (200.0, 800.0)
    missing = [g for g in pinned if g not in by_gammaT]
    if missing:
        observed = "sweep lacks gammaT " + ", ".join(f"{g:g}" for g in missing)
        return CriterionResult(9, name, expected, observed, False,
                               detail={"missing_gammaT": missing})
    residuals = {g: by_gammaT[g] for g in pinned}
    detail: dict = {"residuals": residuals}
    if all(r <= 10.0 / g**2 for g, r in residuals.items()):
        passed = True
        observed = "agreement: " + ", ".join(f"{gt:g}: {r:.2e}" for gt, r in residuals.items())
    else:
        slope, intercept, r2 = fit_loglog(sweep.gammaT_values, series)
        detail["discrepancy_report"] = {
            "gammaT": list(sweep.gammaT_values),
            "residuals": series,
            "exponent": slope,
            "prefactor": math.exp(intercept) if not math.isnan(intercept) else math.nan,
            "fit_r2": r2,
            "interpretation": "frozen-state prediction misses the quadratic-in-loss "
            "saturation; residual scales as a clean power law",
        }
        passed = (not math.isnan(slope)) and r2 >= 0.9
        observed = (
            "systematic residual: exponent "
            f"{slope:.3f} (r^2 {r2:.4f}), filed in discrepancy_report"
        )
    return CriterionResult(9, name, expected, observed, passed, detail=detail)


CRITERIA = (
    check_purity_law,
    check_loss_scaling,
    check_effective_order,
    check_holonomy_trivial,
    check_jump_closed_form,
    check_gauge_covariance,
    check_kernel_and_channel,
    check_structural_invariants,
    check_prediction_cross_check,
)


def run_battery() -> list[CriterionResult]:
    """Run every acceptance criterion, sharing expensive artifacts."""
    ctx = AcceptanceContext()
    results = []
    for criterion in CRITERIA:
        start = time.perf_counter()
        result = criterion(ctx)
        results.append(replace(result, runtime_s=time.perf_counter() - start))
    return results


def battery_table(results: list[CriterionResult]) -> str:
    """Aligned text table of criterion outcomes."""
    rows = [("#", "criterion", "expected", "observed", "status")]
    for r in results:
        rows.append((str(r.number), r.name, r.expected, r.observed, "pass" if r.passed else "FAIL"))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(5)))
    return "\n".join(lines) + "\n"
