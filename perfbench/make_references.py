"""Regenerate ``perfbench/references.json``.  Run from the root of a checkout:

    python3 perfbench/make_references.py

Reference items: the final state of each integration at rtol = 1e-11 and
atol = 1e-14 (the benchmark runs them at the defaults, 1e-9 and 1e-12).
Reconstruction: ``reconstruct_full_state`` with the adiabatic kernel, exact
for the linear path once the kernel transient has died.
Battery: the pass vector of ``darklind check`` on criteria 4 and 5 and the
numbers they report.  The other items need no stored value: their checks are
analytic or cross-checks between two independent computations.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

RTOL, ATOL = 1e-11, 1e-14


def main() -> int:
    reference = {}
    for item_id, proto, rho0, frame, gammaT, _ in workloads.reference_inputs():
        final = workloads.integrate_item(proto, rho0, frame, gammaT, rtol=RTOL, atol=ATOL).final
        reference[item_id] = {"re": final.real.tolist(), "im": final.imag.tolist()}
        print(f"{item_id}: done", file=sys.stderr)
    reconstruct = {f"{tau:g}": {"re": state.real.tolist(), "im": state.imag.tolist()}
                   for tau, state in workloads.reconstruct_references().items()}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        code, payload = workloads.run_check(Path(tmp) / "check.json")
    if code != workloads.BATTERY_EXIT_CODE:
        print(f"darklind check exited {code}, expected {workloads.BATTERY_EXIT_CODE}",
              file=sys.stderr)
        return 1
    body = {
        "generated_by": "perfbench/make_references.py",
        "reference_tolerances": {"rtol": RTOL, "atol": ATOL},
        "reference": reference,
        "reconstruct": reconstruct,
        "battery": workloads.battery_numbers(payload),
    }
    (HERE / "references.json").write_text(json.dumps(body, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
