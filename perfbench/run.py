"""darklind benchmark: time-to-verified-answer and accuracy on four workloads.

Run from the root of a darklind checkout:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of that checkout (nothing needs to be
installed).  With ``--trace 0`` the run repeats untraced passes over the
workload's items for about ``--seconds`` and reports the end-to-end metrics,
its times rescaled by the calibration samples taken between the items
(``calibrate.py``); with ``--trace 1`` it makes one untraced and one traced
pass and reports the per-layer metrics.  Every output is checked; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run also writes an environment record, the per-item
outcomes and (traced) the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from before numpy and darklind load

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
from tracing import INSTRUMENTED, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("reference", "reduced", "kernel", "battery")
#: single-threaded BLAS: the load comes from one process and one thread
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh processes that repeat the set-up, besides the run's own
SETUP_PROBES = 4
#: calibration samples that rescale one set-up
SETUP_SAMPLES = 10
PROBE_TIMEOUT_S = 120

#: metric names and units, in the order printed
SPEC = ROOT / "BENCHMARK.json"

#: per-layer counters that must repeat exactly between two traced runs
DETERMINISTIC = (
    "engine.rhs_evals", "engine.steps_accepted", "engine.steps_rejected",
    "engine.integrate.calls", "effective.generator.calls", "protocols.U.calls",
    "protocols.dU.calls", "effective.x_tau_integral.calls",
    "checks.passed",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for about this long (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up and print it (used internally)")
    return parser.parse_args(argv)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": bool(args.trace),
        "seconds": args.seconds,
    }


def run_item(item, tracer=None):
    if tracer is None:
        return item.run()
    tracer.item = item.id
    try:
        with tracer.span("item"):
            return item.run()
    finally:
        tracer.item = None


def run_pass(workload, tracer=None) -> dict:
    """Run every item once between two calibration blocks, then check the outputs.

    Each item's wall and CPU time is divided by the median of the calibration
    samples in the blocks just before and just after it, and rescaled to the
    reference core (``calibrate.REFERENCE_S``); the pass's ``wall_s`` and
    ``cpu_s`` are the sums of these, and ``raw_wall_s``/``raw_cpu_s`` the sums
    as measured.
    """
    outputs, times = [], []
    before = calibrate.block()
    for item in workload.items:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            output, exc = run_item(item, tracer), None
        except Exception as item_exc:  # a failing item is recorded and the pass goes on
            output, exc = None, item_exc
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        after = calibrate.block(wall)
        outputs.append((item, output, exc))
        times.append({
            "item": item.id, "wall_s": wall, "cpu_s": cpu,
            "calibration_wall_s": statistics.median(w for w, _ in before + after),
            "calibration_cpu_s": statistics.median(c for _, c in before + after),
            "calibration_samples": len(before) + len(after),
        })
        before = after
    outcomes = []
    for item, output, exc in outputs:
        checks = []
        if exc is None:
            try:
                checks = item.check(output)
            except Exception as check_exc:  # a malformed output fails its item
                exc = check_exc
        outcomes.append({
            "item": item.id,
            "checks": [(c.label, float(c.error), float(c.tolerance), c.accuracy)
                       for c in checks],
            "failed": exc is not None or any(not c.error <= c.tolerance for c in checks),
            "error": None if exc is None else {
                "type": type(exc).__name__, "message": str(exc),
                "tau": getattr(exc, "tau", None),
            },
            "output": output,
        })
    scale = calibrate.REFERENCE_S
    return {
        "wall_s": sum(t["wall_s"] * scale / t["calibration_wall_s"] for t in times),
        "cpu_s": sum(t["cpu_s"] * scale / t["calibration_cpu_s"] for t in times),
        "raw_wall_s": sum(t["wall_s"] for t in times),
        "raw_cpu_s": sum(t["cpu_s"] for t in times),
        "item_times": times,
        "outcomes": outcomes,
    }


def error_ratio(passes) -> float:
    """Worst error over tolerance over every accuracy check of every pass.

    Items that raised have no error to divide and count only in ``failed``;
    so do the windows on outcomes (the battery's exit code and pass vector).
    """
    return max((err / tol for p in passes for o in p["outcomes"]
                for _, err, tol, accuracy in o["checks"] if accuracy), default=0.0)


def supported_percentile(n: int) -> str:
    """Highest percentile with at least ten samples beyond it."""
    if n < 20:
        return f"median only: {n} sample(s), no higher percentile has ten beyond it"
    return f"p{int(100 * (1 - 10 / n))} supported"


def setup_probes(args) -> list[dict]:
    """Set-up time of fresh processes, each importing and building from scratch."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def reconcile(tracer, workload) -> list[str]:
    """Counter reconciliation: wrappers that miss or double-count calls."""
    failures = list(tracer.structure_errors())
    rhs_of_item: dict = {}
    u_of_item: dict = {}
    for s in tracer.spans:
        if s.name == "item":
            rhs_of_item[s.item] = s.deltas["rhs_evals"]
            u_of_item[s.item] = (s.deltas["U.calls"], s.deltas["dU.calls"])
    groups: dict = {}
    for record, item_id in workload.lab_protocols:
        groups.setdefault(id(record), (record, []))[1].append(item_id)
    for record, items in groups.values():
        expected = sum(rhs_of_item.get(i, 0) for i in items)
        seen = record["U"] - record["construction_U"]
        if seen != expected:
            failures.append(f"lab items {items}: U calls {record['U']} - "
                            f"{record['construction_U']} at construction = {seen}, "
                            f"but {expected} RHS evaluations")
    for item_id in workload.rotating_items:
        u_calls, du_calls = u_of_item.get(item_id, (0, 0))
        if u_calls != du_calls:
            failures.append(f"rotating item {item_id}: U calls {u_calls} != dU calls {du_calls}")
    return failures


def layer_metrics(tracer, untraced_wall, traced_wall, micro, battery) -> dict:
    c = tracer.counters
    own = tracer.self_times()
    spans = tracer.spans

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name):
        return sum(1 for s in spans if s.name == name)

    integrate_s = total("engine.integrate")
    steps = c["steps_accepted"] + c["steps_rejected"]
    values = {
        "engine.rhs_evals": c["rhs_evals"],
        "engine.steps_accepted": c["steps_accepted"],
        "engine.steps_rejected": c["steps_rejected"],
        "engine.step_accept_ratio": c["steps_accepted"] / steps if steps else 0.0,
        "engine.integrate.calls": count("engine.integrate"),
        "engine.integrate.s": integrate_s,
        "engine.integrate.self_s": sum(own[s.id] - s.deltas["gen.s"] for s in spans
                                       if s.name == "engine.integrate"),
        "engine.us_per_rhs": 1e6 * integrate_s / c["rhs_evals"] if c["rhs_evals"] else 0.0,
        "effective.generator.calls": c["gen.calls"],
        "effective.generator.s": c["gen.s"],
        "protocols.U.calls": c["U.calls"],
        "protocols.U.s": c["U.s"],
        "protocols.dU.calls": c["dU.calls"],
        "protocols.dU.s": c["dU.s"],
        "effective.x_tau_integral.calls": count("effective.x_tau_integral"),
        "bench.trace_overhead_s": traced_wall - untraced_wall,
    }
    for module, func in INSTRUMENTED:
        values[f"{module}.{func}.s"] = total(f"{module}.{func}")
    values.update(micro)
    criteria = {c["number"]: c for c in (battery or {}).get("criteria", [])}
    for n in range(1, 10):
        values[f"checks.criterion_{n}.s"] = criteria[n]["runtime_s"] if n in criteria else 0.0
    values["checks.passed"] = sum(1 for c in criteria.values() if c["passed"])
    cli_s = total("cli.main")
    values["cli.check.overhead_s"] = (
        cli_s - sum(c["runtime_s"] for c in criteria.values()) if criteria else 0.0)
    return values


def jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float) and obj != obj:
        return None
    return obj


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "darklind" / "__init__.py").is_file():
        print(f"perfbench: no darklind package under {SRC}; run from the root of a "
              "darklind checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import darklind
    import workloads

    if Path(darklind.__file__).resolve().parent != SRC / "darklind":
        print(f"perfbench: imported darklind from {darklind.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    workload = build(args.seed)
    raw_setup_s = time.perf_counter() - START
    calibration = statistics.median(calibrate.sample()[0] for _ in range(SETUP_SAMPLES))
    setup = {"setup_s": raw_setup_s * calibrate.REFERENCE_S / calibration,
             "raw_setup_s": raw_setup_s, "calibration_wall_s": calibration}
    if args.setup_probe:
        print(json.dumps(setup))
        return 0

    env = environment(args)
    result = {"environment": env}
    if args.trace:
        from micro import micro_metrics

        tracer = Tracer()
        traced_workload = build(args.seed, tracer)
        untraced = run_pass(workload)
        with tracer.patched():
            with tracer.span("pass"):
                traced = run_pass(traced_workload, tracer)
        passes = [untraced, traced]
        battery = None
        if args.workload == "battery" and traced["outcomes"][0]["output"] is not None:
            battery = traced["outcomes"][0]["output"][1]
        failures = reconcile(tracer, traced_workload)
        values = layer_metrics(tracer, untraced["wall_s"], traced["wall_s"], micro_metrics(),
                               battery)

        result["reconciliation_failures"] = failures
        result["deterministic"] = {name: values[name] for name in DETERMINISTIC}
        if battery is not None:
            result["deterministic"]["battery_pass_vector"] = [c["passed"] for c in
                                                              battery["criteria"]]
        result["protocol_construction_U_calls"] = [r["construction_U"] for r in tracer.protocols]
        result["spans"] = tracer.export()
    else:
        passes = []
        measured = time.perf_counter()
        while True:
            started = time.perf_counter()
            passes.append(run_pass(workload))
            now = time.perf_counter()
            # the last pass, calibration included, predicts the next one
            if now - measured + (now - started) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup] + setup_probes(args)
        walls = [p["wall_s"] for p in passes]
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": peak_rss_mb,
            "ref_error_ratio": error_ratio(passes),
        }
        raw = {
            "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
            "raw_cpu_s": statistics.median(p["raw_cpu_s"] for p in passes),
            "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        }

        result["passes"] = [{k: v for k, v in p.items() if k != "outcomes"} for p in passes]
        result["setups"] = setups
        result["raw"] = raw

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in json.loads(SPEC.read_text())[kind]}
    attempted = sum(len(p["outcomes"]) for p in passes)
    failed = sum(o["failed"] for p in passes for o in p["outcomes"])
    result["items"] = [
        {k: v for k, v in o.items() if k != "output"} | {"pass": n}
        for n, p in enumerate(passes) for o in p["outcomes"]
    ]
    result["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(jsonable(result), indent=1) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    for o in (o for p in passes for o in p["outcomes"] if o["failed"]):
        worst = max(o["checks"], key=lambda c: c[1] / c[2] if c[2] else c[1], default=None)
        print(f"FAILED item {o['item']}: error={o['error']} worst check={worst}")
    if not args.trace:
        n = len(passes)
        print(f"wall_s {values['wall_s']:.4f} s at reference speed (median of {n} passes; "
              f"{supported_percentile(n)}; max {max(walls):.4f} s); "
              f"as measured {raw['raw_wall_s']:.4f} s")
        print(f"cpu_s {values['cpu_s']:.4f} s at reference speed (median of {n} passes); "
              f"as measured {raw['raw_cpu_s']:.4f} s")
        print(f"setup_s {values['setup_s']:.4f} s at reference speed (median of "
              f"{len(setups)} set-ups); as measured {raw['raw_setup_s']:.4f} s")
        print(f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
        print(f"items_failed {failed} of {attempted} attempted")
        print(f"ref_error_ratio {values['ref_error_ratio']:.6g} (worst error / tolerance)")
    else:
        for failure in result["reconciliation_failures"]:
            print(f"reconciliation: {failure}")
        print(f"items_failed {failed} of {attempted} attempted")
    print(f"details in {record.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
