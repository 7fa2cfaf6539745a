"""Acceptance battery, one test per exit criterion.

Runs the shared battery once per session and prints one pass/fail line per
criterion.  Criteria 1 and 2 currently fail against their pinned windows: at the cycle
durations the exact loss carries second-order corrections (the true loss is
(1 - exp(-2P))/2 for linearized loss P) that exceed the pinned windows; the
measured numbers and the analysis are carried in the failure messages and
the README.  The windows are asserted as pinned, not widened.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import darklind.checks as checks
from darklind.analysis import GaugeReport, SweepResult
from darklind.checks import CRITERIA, run_battery


@pytest.fixture(scope="session")
def battery():
    return {result.number: result for result in run_battery()}


def _report(result):
    status = "pass" if result.passed else "FAIL"
    print(f"[criterion {result.number}] {status}: {result.name} | expected {result.expected} "
          f"| observed {result.observed}")


@pytest.mark.parametrize("number", [r + 1 for r in range(len(CRITERIA))])
def test_criterion(battery, number):
    result = battery[number]
    _report(result)
    assert result.passed, (
        f"criterion {result.number} ({result.name}): expected {result.expected}, "
        f"observed {result.observed}; detail: {result.detail}"
    )


def test_battery_covers_every_criterion(battery):
    assert sorted(battery) == list(range(1, 10))


def test_known_quantitative_signatures(battery):
    """Sanity anchors on the measured values, independent of the windows.

    These pin the physics behind the two red criteria: the exact loss is the
    saturated (1 - e^{-2P})/2 of the linearized loss P, which at the pinned
    cycle durations sits a known distance from the first-order law.
    """
    purity_detail = battery[1].detail
    dev_z = purity_detail["n0=(0.0, 0.0, 1.0)"]["relative_deviation"]
    dev_y = purity_detail["n0=(0.0, 1.0, 0.0)"]["relative_deviation"]

    def saturation_deviation(p):
        return (p - 0.5 * (1.0 - math.exp(-2.0 * p))) / p

    assert abs(dev_z - saturation_deviation(4 * math.pi**2 / 200.0)) <= 0.02
    assert abs(dev_y - saturation_deviation(8 * math.pi**2 / 200.0)) <= 0.02

    losses = battery[2].detail["losses"]
    gammaTs = battery[2].detail["gammaT"]
    for loss, gammaT in zip(losses, gammaTs):
        predicted = 0.5 * (1.0 - math.exp(-8 * math.pi**2 / gammaT))
        assert abs(loss - predicted) / predicted <= 0.02

    # asymptotic loss prefactor from the largest cycle duration
    prefactor = losses[-1] * gammaTs[-1]
    assert abs(prefactor - 4 * math.pi**2) / (4 * math.pi**2) <= 0.15

    report = battery[9].detail.get("discrepancy_report")
    assert report is not None
    assert -2.2 <= report["exponent"] <= -1.6
    assert report["fit_r2"] >= 0.99


def test_lab_and_rotating_frames_end_in_one_state(battery):
    # criterion 8's lab run and the sweep's rotating-frame run from z at
    # gammaT 100 meet within the refinement bound
    assert battery[8].detail["cross_frame"] <= 10.0 * checks.RTOL


def _cross_check(gammaTs, residual):
    """Criterion 9 on a hand-built sweep whose reduced loss misses eq. 12 by residual(gammaT).

    The context holds the sweep alone, so the criterion can compute nothing else.
    """
    eq12 = tuple(4 * math.pi**2 / g for g in gammaTs)
    sweep = _sweep(gammaT_values=gammaTs, losses=eq12, errors=eq12, losses_eq12=eq12,
                   losses_reduced=tuple(loss + residual(g) for loss, g in zip(eq12, gammaTs)))
    return checks.check_prediction_cross_check(SimpleNamespace(sweep=sweep))


def test_prediction_cross_check_agreement_reads_the_sweep():
    result = _cross_check(checks.SWEEP_GAMMATS, lambda g: 1.0 / g**2)
    assert result.passed and result.observed.startswith("agreement")
    assert "discrepancy_report" not in result.detail
    assert result.detail["residuals"] == pytest.approx({g: 1.0 / g**2 for g in (200.0, 800.0)})


def test_prediction_cross_check_reports_a_systematic_residual():
    result = _cross_check(checks.SWEEP_GAMMATS, lambda g: 100.0 / g**2)
    report = result.detail["discrepancy_report"]
    assert result.passed
    assert report["gammaT"] == list(checks.SWEEP_GAMMATS)
    assert report["residuals"] == pytest.approx([100.0 / g**2 for g in checks.SWEEP_GAMMATS])
    assert report["exponent"] == pytest.approx(-2.0)
    assert report["prefactor"] == pytest.approx(100.0)


def test_prediction_cross_check_fails_on_a_sweep_without_gammaT_800():
    result = _cross_check((100.0, 200.0, 400.0), lambda g: 0.0)
    assert not result.passed
    assert "800" in result.observed
    assert result.detail == {"missing_gammaT": [800.0]}


def test_run_battery_times_each_criterion(monkeypatch):
    def slow(ctx):
        time.sleep(0.02)
        return checks.CriterionResult(7, "slow", "-", "-", True, detail={"k": 1})

    monkeypatch.setattr(checks, "CRITERIA", (slow,))
    [result] = run_battery()
    assert 0.02 <= result.runtime_s < 10.0
    assert (result.number, result.detail) == (7, {"k": 1})
    assert math.isnan(slow(None).runtime_s)  # not timed outside the battery


def _sweep(**fields):
    """A hand-built sweep whose every verdict holds, with ``fields`` replaced."""
    base = dict(gammaT_values=(100.0, 200.0), losses=(0.1, 0.05), errors=(4e-4, 1e-4),
                fitted_slope=-1.0, fit_r2=1.0, error_slope=-2.0, first_order_slope=-1.0)
    return SweepResult(**{**base, **fields})


def _gauge(defect_ratio=0.5, purity_differences=(0.0, 0.0)):
    return GaugeReport(gammaT_values=(100.0, 200.0), defects=(1.0, defect_ratio),
                       defect_ratio=defect_ratio, purity_plain=(1.0, 1.0),
                       purity_tilted=(1.0, 1.0), purity_differences=purity_differences,
                       tau_fractions=(0.5,))


@pytest.mark.parametrize("field, value, flag, holds", [
    ("fitted_slope", -0.85, "slope_in_window", True),
    ("fitted_slope", -0.8487, "slope_in_window", False),  # the measured criterion-2 slope
    ("fitted_slope", -1.15, "slope_in_window", True),
    ("fit_r2", 0.99, "fit_r2_ok", True),
    ("fit_r2", 0.9899, "fit_r2_ok", False),
    ("error_slope", -1.6, "effective_order_in_window", True),
    ("error_slope", -1.59, "effective_order_in_window", False),
    ("first_order_slope", -0.8, "first_order_in_window", True),
    ("first_order_slope", -0.79, "first_order_in_window", False),
])
def test_sweep_window_edges(field, value, flag, holds):
    sweep = _sweep(**{field: value})
    flags = checks.sweep_flags(sweep)
    assert flags == {**{k: True for k in flags}, flag: holds}
    ctx = SimpleNamespace(sweep=sweep)  # criteria 2 and 3 pass exactly when their flags hold
    assert checks.check_loss_scaling(ctx).passed is (
        flags["slope_in_window"] and flags["fit_r2_ok"])
    assert checks.check_effective_order(ctx).passed is (
        flags["effective_order_in_window"] and flags["first_order_in_window"])


@pytest.mark.parametrize("report, flags", [
    (_gauge(defect_ratio=0.7), {"defect_shrinks": True, "purity_gauge_invariant": True}),
    (_gauge(defect_ratio=0.7001), {"defect_shrinks": False, "purity_gauge_invariant": True}),
    (_gauge(purity_differences=(10.0 / 100.0**2, 10.0 / 200.0**2)),
     {"defect_shrinks": True, "purity_gauge_invariant": True}),
    (_gauge(purity_differences=(0.0, np.nextafter(10.0 / 200.0**2, 1.0))),
     {"defect_shrinks": True, "purity_gauge_invariant": False}),
])
def test_gauge_window_edges(monkeypatch, report, flags):
    assert checks.gauge_flags(report) == flags
    monkeypatch.setattr(checks, "gauge_covariance_check", lambda *args, **kwargs: report)
    result = checks.check_gauge_covariance(SimpleNamespace(protocol_200=None, ds=None))
    assert result.passed is all(flags.values())


@pytest.mark.parametrize("losses, expected", [
    ((0.0, 0.4, 1.0), True),
    ((0.4, math.nan), True),
    ((), True),
    ((0.4, 1.9246), False),
    ((-1e-3, 0.4), False),
])
def test_prediction_flags(losses, expected):
    # a finite predicted loss outside [0, 1] is no prediction; a missing (NaN) one is not flagged
    assert checks.prediction_flags(*losses) == {"predictions_in_unit_interval": expected}


def test_invariants_read_the_run_margins():
    # criterion 8 takes the margins the watch kept over every accepted step of
    # its two gammaT-200 runs, not the checkpoint states (the runs here have none)
    margins = {(0.0, 0.0, 1.0): (1e-15, 4e-12, 2e-17), (0.0, 1.0, 0.0): (3e-15, 2e-12, -5e-16)}

    def exact_run(n0, gammaT):
        herm, trace, least = margins[tuple(n0)]
        return SimpleNamespace(worst_hermiticity=herm, worst_trace_deviation=trace,
                               least_eigenvalue=least), 0.0

    ctx = checks.AcceptanceContext()
    ctx.exact_run = exact_run
    detail = checks.check_structural_invariants(ctx).detail
    assert (detail["hermiticity"], detail["trace"], detail["negativity"]) == (3e-15, 4e-12, 5e-16)
