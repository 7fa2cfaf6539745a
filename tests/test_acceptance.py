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

import pytest

import darklind.checks as checks
from darklind.analysis import dark_state_from_bloch
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


def test_prediction_cross_check_computes_each_prediction_once(monkeypatch):
    calls = {}

    def prediction(rho, proto, ds):
        calls[proto.gammaT] = calls.get(proto.gammaT, 0) + 1
        return 1.0 - 100.0 / proto.gammaT**2  # misses the pure end state by 100/gammaT^2

    monkeypatch.setattr(checks, "purity_prediction_general", prediction)
    monkeypatch.setattr(
        checks.AcceptanceContext, "effective_end",
        lambda self, n0, gammaT: dark_state_from_bloch((0.0, 0.0, 1.0)),
    )
    result = checks.check_prediction_cross_check(checks.AcceptanceContext())
    assert "discrepancy_report" in result.detail
    assert result.passed
    assert calls == {g: 1 for g in checks.SWEEP_GAMMATS}


def test_run_battery_times_each_criterion(monkeypatch):
    def slow(ctx):
        time.sleep(0.02)
        return checks.CriterionResult(7, "slow", "-", "-", True, detail={"k": 1})

    monkeypatch.setattr(checks, "CRITERIA", (slow,))
    [result] = run_battery()
    assert 0.02 <= result.runtime_s < 10.0
    assert (result.number, result.detail) == (7, {"k": 1})
    assert math.isnan(slow(None).runtime_s)  # not timed outside the battery
