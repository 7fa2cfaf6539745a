"""Reproducible experiment runner.

``darklind run EXPERIMENT`` executes one named experiment per process from a
JSON config plus flag overrides (flags win) and writes plot-ready CSV and a
JSON report into the output directory; ``darklind check`` runs the acceptance
battery.  Exit codes: 0 success, 1 validation failure, 2 numerical failure
(diagnostic JSON left in the output directory), 3 acceptance failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, checks
from . import effective as eff
from .analysis import (
    _closed_form_loss,
    _dark_state,
    bloch_of,
    compare_effective_vs_full,
    convergence_sweep,
    fit_loglog,
    gauge_covariance_check,
    purity,
    purity_prediction_general,
)
from .checks import battery_table, gauge_flags, prediction_flags, run_battery, sweep_flags
from .engine import _DEFAULT_ATOL, _DEFAULT_RTOL, NUMERICAL_ERRORS, _physicality
from .linalg import dagger
from .protocols import (
    Protocol,
    custom_protocol,
    path_from_descriptor,
    ramp_angle,
    spin32_jump,
    spin32_protocol,
    spin_operators,
)
from .reporting import _jsonable, gnuplot_script, resolve_inside, write_csv, write_json, write_text

#: the frame of the brute-force runs in the trajectory and sweep reports:
#: ``compare_effective_vs_full`` integrates the rotating-frame equation
BRUTE_FORCE_FRAME = "rotating"


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "protocol": {
        "family": "spin32",
        "path": {"family": "linear", "m_theta": 1, "m_phi": 0, "theta0": 0.0, "phi0": 0.0},
    },
    "initial": {"bloch": [0.0, 0.0, 1.0]},
    "tolerances": {"rtol": _DEFAULT_RTOL, "atol": _DEFAULT_ATOL},
    "output_dir": ".",
    "seed": 0,
    "checkpoints": 64,
    "gauge": {"dark_phase": math.pi / 7.0},
    "gnuplot": False,
}


#: the gammaT list of a sweep that neither the config nor ``--gammaT`` sets:
#: a sweep fits a slope, so the single default gammaT cannot serve it; the battery's list
SWEEP_GAMMATS = list(checks.SWEEP_GAMMATS)

#: each experiment's gammaT: the fewest and most values it takes (None: no bound),
#: and its default when neither the config nor ``--gammaT`` sets one.  The gauge
#: check, the one experiment that takes at most two, compares a pair: a lone gammaT
#: g stands for (g, 2 g)
_GAMMATS = {
    "spin32-purity": (1, 1, 200.0),
    "sweep": (2, None, SWEEP_GAMMATS),
    "gauge-check": (1, 2, 200.0),
    "effective-vs-full": (1, None, 200.0),
    "custom": (1, 1, 200.0),
}
EXPERIMENTS = tuple(_GAMMATS)

#: config sections that are alternatives, replaced whole rather than merged
_ATOMIC_KEYS = ("initial", "protocol")

#: the keys each protocol family and custom angle entry reads
_PROTOCOL_KEYS = {
    "spin32": ("family", "path"),
    "custom": ("family", "two_j", "generators", "angles", "jump"),
}
_ANGLE_KEYS = ("family", "m", "a0")


def _section(value, name: str, allowed=None) -> dict:
    """A config section: must be an object, with keys from ``allowed`` if given."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object")
    if allowed is not None:
        unknown = sorted(set(value) - set(allowed))
        if unknown:
            raise ConfigError(f"unknown {name} key(s) {', '.join(unknown)}")
    return value


def _merge(base: dict, override: dict, atomic: tuple = ()) -> dict:
    out = dict(base)
    for key, value in override.items():
        if key not in atomic and isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        elif value is not None:
            out[key] = value
    return out


def load_config(path: str | None, overrides: dict) -> dict:
    user = {}
    if path is not None:
        try:
            with open(path) as handle:
                user = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be an object")
    return _merge(_merge(DEFAULT_CONFIG, user, atomic=_ATOMIC_KEYS), overrides, atomic=_ATOMIC_KEYS)


def _is_number(value) -> bool:
    """An int or a float; a bool is neither here, though Python counts it an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return _is_number(value) and isinstance(value, int)


def _is_finite_number(value) -> bool:
    return _is_number(value) and math.isfinite(value)


@dataclasses.dataclass(frozen=True)
class _Run:
    """One validated run: everything an experiment reads, taken once from its config."""

    experiment: str
    protocol: Protocol  # built at the first gammaT; the others come from with_gammaT
    gammaTs: tuple
    initial: np.ndarray  # a Bloch vector or a density matrix
    rtol: float
    atol: float
    checkpoints: int
    seed: int
    dark_phase: float
    gnuplot: bool
    outdir: Path
    config: dict  # the merged config, which the report echoes


def validate_config(cfg: dict) -> _Run:
    experiment = cfg.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}")
    fewest, most, default = _GAMMATS[experiment]
    cfg = {"gammaT": default, **cfg}
    _section(cfg, "config", (*DEFAULT_CONFIG, "experiment", "gammaT"))
    gauge = _section(cfg["gauge"], "gauge", DEFAULT_CONFIG["gauge"])
    if not _is_finite_number(gauge["dark_phase"]):
        raise ConfigError("gauge.dark_phase must be a finite number")
    tols = _section(cfg["tolerances"], "tolerances", DEFAULT_CONFIG["tolerances"])
    for name in DEFAULT_CONFIG["tolerances"]:
        value = tols.get(name)
        if not _is_finite_number(value) or value <= 0:
            raise ConfigError(f"tolerance {name} must be finite and positive")
    gammaTs = cfg["gammaT"] if isinstance(cfg["gammaT"], list) else [cfg["gammaT"]]
    if not all(_is_number(g) for g in gammaTs):
        raise ConfigError("gammaT must be a number or a list of numbers")
    gammaTs = tuple(float(g) for g in gammaTs)
    if not gammaTs or any(not (math.isfinite(g) and g > 0) for g in gammaTs):
        raise ConfigError("gammaT must be finite and positive")
    if most is not None and len(gammaTs) > most:
        raise ConfigError(f"{experiment} takes at most {most} gammaT, got {len(gammaTs)}")
    if len(gammaTs) < fewest:
        raise ConfigError(f"{experiment} takes at least {fewest} gammaT, got {len(gammaTs)}")
    if len(set(gammaTs)) != len(gammaTs):
        raise ConfigError("gammaT values must be distinct")
    for g in gammaTs:
        if g < 10.0:
            print(f"warning: gammaT={g:g} < 10, adiabatic expansion unreliable", file=sys.stderr)
    if most == 2 and len(gammaTs) == 1:  # the gauge check's pair
        gammaTs = (gammaTs[0], 2.0 * gammaTs[0])
    if not _is_integer(cfg.get("seed")):
        raise ConfigError("seed must be an integer")
    if not isinstance(cfg["output_dir"], str):
        raise ConfigError("output_dir must be a string")
    initial = _initial_state(cfg)
    n_cp = cfg.get("checkpoints")
    if not _is_integer(n_cp) or n_cp < 1:
        raise ConfigError("checkpoints must be a positive integer")
    if not isinstance(cfg["gnuplot"], bool):
        raise ConfigError("gnuplot must be true or false")
    return _Run(experiment=experiment, protocol=build_protocol(cfg, gammaTs[0]), gammaTs=gammaTs,
                initial=initial, rtol=tols["rtol"], atol=tols["atol"], checkpoints=n_cp,
                seed=cfg["seed"], dark_phase=float(gauge["dark_phase"]), gnuplot=cfg["gnuplot"],
                outdir=Path(os.environ.get("DARKLIND_OUTDIR") or cfg["output_dir"]), config=cfg)


def _require_numbers(section: dict, name: str, integers=(), numbers=(), lists=()) -> None:
    """Reject a present key of ``integers`` that is no integer, of ``numbers`` that is
    no finite number, or of ``lists`` that is no list of finite numbers."""
    for key in integers:
        if key in section and not _is_integer(section[key]):
            raise ConfigError(f"{name}.{key} must be an integer")
    for key in numbers:
        if key in section and not _is_finite_number(section[key]):
            raise ConfigError(f"{name}.{key} must be a finite number")
    for key in lists:
        value = section.get(key, [])
        if not (isinstance(value, list) and all(_is_finite_number(v) for v in value)):
            raise ConfigError(f"{name}.{key} must be a list of finite numbers")


def build_protocol(cfg: dict, gammaT: float):
    section = _section(cfg["protocol"], "protocol")
    family = section.get("family", "spin32")
    if family not in _PROTOCOL_KEYS:
        raise ConfigError(f"unknown protocol family {family!r}")
    _section(section, "protocol", _PROTOCOL_KEYS[family])
    if family == "spin32":
        # keys a config leaves out take the default path's values (linear family)
        path = {**DEFAULT_CONFIG["protocol"]["path"],
                **_section(section.get("path", {}), "protocol.path")}
        _require_numbers(path, "protocol.path", ("m_theta", "m_phi"), ("theta0", "phi0"),
                         ("theta_knots", "phi_knots"))
        spec = path_from_descriptor(path)
        _section(path, "protocol.path", spec.descriptor)
        return spin32_protocol(spec, gammaT)
    two_j = section.get("two_j", 1)
    if not _is_integer(two_j) or two_j < 1:
        raise ConfigError("protocol.two_j must be an integer >= 1")
    sx, sy, sz = spin_operators(two_j)
    named = {"sx": sx, "sy": sy, "sz": sz}
    names = section.get("generators", [])
    if not (isinstance(names, list) and all(isinstance(g, str) for g in names)):
        raise ConfigError("protocol.generators must be a list of generator names")
    try:
        generators = [named[g] for g in names]
    except KeyError as exc:
        raise ConfigError(f"unknown generator {exc}") from exc
    angle_sections = section.get("angles", [])
    if not isinstance(angle_sections, list):
        raise ConfigError("protocol.angles must be a list of objects")
    if len(angle_sections) != len(generators):
        raise ConfigError("need one angle entry per generator")
    angles, dangles = [], []
    for entry in angle_sections:
        _section(entry, "protocol.angles entry", _ANGLE_KEYS)
        _require_numbers(entry, "protocol.angles entry", numbers=("m", "a0"))
        fn, dfn = ramp_angle(
            entry.get("family", "linear"), float(entry.get("m", 0)), float(entry.get("a0", 0.0))
        )
        angles.append(fn)
        dangles.append(dfn)
    jump_name = section.get("jump", "lowering")
    if jump_name == "lowering":
        jump = dagger(sx + 1j * sy)  # raising in descending-m basis maps m -> m+1; adjoint lowers
    elif jump_name == "spin32":
        if two_j != 3:
            raise ConfigError("jump 'spin32' requires two_j = 3")
        jump = spin32_jump()
    else:
        raise ConfigError(f"unknown jump {jump_name!r}")
    try:
        return custom_protocol(
            generators, angles, jump, gammaT, dangles=dangles,
            descriptor={"family": "custom", "two_j": two_j, "generators": list(names),
                        "jump": jump_name},
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _finite_array(value, name: str) -> np.ndarray:
    """A number or nested list of finite numbers as a float array; nothing else is coerced."""
    def entries(v):
        return [x for item in v for x in entries(item)] if isinstance(v, list) else [v]

    for x in entries(value):
        if not _is_finite_number(x):
            raise ConfigError(f"{name} entries must be finite numbers, got {json.dumps(x)}")
    return np.asarray(value, dtype=float)


def _initial_state(cfg: dict) -> np.ndarray:
    """The config's initial state, checked: a real Bloch vector or a complex matrix."""
    init = _section(cfg["initial"], "initial", ("bloch", "density_matrix"))
    if "bloch" in init and "density_matrix" in init:
        raise ConfigError("initial must provide bloch or density_matrix, not both")
    if "bloch" in init:
        n0 = _finite_array(init["bloch"], "initial.bloch")
        if n0.shape != (3,) or np.linalg.norm(n0) > 1.0 + 1e-9:
            raise ConfigError("initial.bloch must be a 3-vector of norm <= 1")
        return n0
    if "density_matrix" not in init:
        raise ConfigError("initial must provide bloch or density_matrix")
    raw = _section(init["density_matrix"], "initial.density_matrix", ("re", "im"))
    return (_finite_array(raw.get("re"), "initial.density_matrix.re")
            + 1j * _finite_array(raw.get("im", 0.0), "initial.density_matrix.im"))


def run_trajectory_experiment(run: _Run) -> tuple[list, dict, list]:
    proto = run.protocol
    ds = eff.dark_space(proto.L_rot)
    rho_d = _dark_state(run.initial, ds)
    comparison = compare_effective_vs_full(proto, rho_d, run.checkpoints, rtol=run.rtol,
                                           atol=run.atol)
    traj = comparison.trajectory
    # purity, trace and min_eig are unitary invariants, the same in the lab frame;
    # the Bloch vector (NaN unless d = 2) is read off the rotating-frame dark block
    blochs = [bloch_of(dd) if ds.d == 2 else (math.nan,) * 3 for dd in comparison.dark_states]
    per_checkpoint = zip(traj.times, traj.states, _physicality(traj.states)[2].tolist(), blochs,
                         comparison.distances)
    columns = ["tau", "purity", "trace", "min_eig", "nx", "ny", "nz", "td_effective"]
    rows = [(tau, purity(state), float(np.trace(state).real), min_eig, *bloch, distance)
            for tau, state, min_eig, bloch, distance in per_checkpoint]
    loss_eq12 = 1.0 - purity_prediction_general(rho_d, proto, ds)
    loss_eq21 = _closed_form_loss(proto, ds, rho_d)
    report = {
        "experiment": run.experiment,
        "gammaT": run.gammaTs[0],
        "brute_force_frame": BRUTE_FORCE_FRAME,
        "purity_loss_exact": 1.0 - purity(traj.final),
        "purity_loss_eq12": loss_eq12,
        "step_stats": dataclasses.asdict(traj.step_stats),
        "worst_hermiticity": traj.worst_hermiticity,
        "worst_trace_deviation": traj.worst_trace_deviation,
        "least_eigenvalue": traj.least_eigenvalue,
        "dark_dimension": ds.d,
        "flags": prediction_flags(loss_eq12, loss_eq21),
    }
    if not math.isnan(loss_eq21):
        report["purity_loss_eq21"] = loss_eq21
    return rows, report, columns


def run_sweep_experiment(run: _Run) -> tuple[list, dict, list]:
    result = convergence_sweep(run.protocol, run.gammaTs, run.initial, rtol=run.rtol,
                               atol=run.atol)
    # the CSV columns, which the report also carries whole
    series = {
        "gammaT": result.gammaT_values,
        "purity_loss_exact": result.losses,
        "purity_loss_eq12": result.losses_eq12,
        "purity_loss_eq21": result.losses_eq21,
        "purity_loss_reduced": result.losses_reduced,
        "trace_distance_final": result.errors,
    }
    report = {
        "experiment": "sweep",
        **{name: list(values) for name, values in series.items()},
        "brute_force_frame": BRUTE_FORCE_FRAME,
        "first_order_trace_distance_final": list(result.first_order_errors),
        "fitted_slope": result.fitted_slope,
        "fit_r2": result.fit_r2,
        "error_slope": result.error_slope,
        "first_order_slope": result.first_order_slope,
        "loss_prefactor": result.loss_prefactor,
        "failures": list(result.failures),
        "flags": sweep_flags(result),
    }
    return list(zip(*series.values())), report, list(series)


def run_gauge_experiment(run: _Run) -> tuple[list, dict, list]:
    proto = run.protocol
    ds = eff.dark_space(proto.L_rot)
    rng = np.random.default_rng(run.seed)
    dim = proto.dim
    rand = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    bright_gen = 0.5 * (rand + dagger(rand))
    diag = [1.0, -1.0] if ds.d == 2 else np.arange(ds.d) - 0.5 * (ds.d - 1)
    dark_gen = run.dark_phase * np.diag(diag).astype(complex)
    report_obj = gauge_covariance_check(
        proto, ds, dark_gen, gammaT_pair=run.gammaTs,
        rho_init=run.initial, bright_generator=bright_gen,
    )
    columns = ["gammaT", "covariance_defect", "purity_plain", "purity_tilted", "purity_difference"]
    rows = list(zip(report_obj.gammaT_values, report_obj.defects, report_obj.purity_plain,
                    report_obj.purity_tilted, report_obj.purity_differences))
    report = {
        "experiment": "gauge-check",
        "gammaT": list(report_obj.gammaT_values),
        "covariance_defects": list(report_obj.defects),
        "defect_ratio": report_obj.defect_ratio,
        "purity_plain": list(report_obj.purity_plain),
        "purity_tilted": list(report_obj.purity_tilted),
        "purity_differences": list(report_obj.purity_differences),
        "dark_phase": run.dark_phase,
        "flags": gauge_flags(report_obj),
    }
    return rows, report, columns


def run_effective_vs_full_experiment(run: _Run) -> tuple[list, dict, list]:
    comparisons = [
        compare_effective_vs_full(run.protocol.with_gammaT(g), run.initial,
                                  n_checkpoints=run.checkpoints, rtol=run.rtol, atol=run.atol)
        for g in run.gammaTs
    ]
    if len(run.gammaTs) == 1:
        [comparison] = comparisons
        columns = ["tau", "trace_distance", "purity_exact", "purity_effective"]
        rows = list(zip(comparison.taus, comparison.distances,
                        comparison.puritys_exact, comparison.puritys_effective))
        report = {
            "experiment": "effective-vs-full",
            "gammaT": run.gammaTs[0],
            "max_distance": comparison.max_distance,
            "final_distance": comparison.final_distance,
        }
        return rows, report, columns
    finals = [c.final_distance for c in comparisons]
    slope, _, r2 = fit_loglog(run.gammaTs, finals)
    report = {
        "experiment": "effective-vs-full",
        "gammaT": list(run.gammaTs),
        "final_distances": finals,
        "distance_slope": slope,
        "distance_r2": r2,
    }
    return list(zip(run.gammaTs, finals)), report, ["gammaT", "trace_distance_final"]


_RUNNERS = {
    "spin32-purity": run_trajectory_experiment,
    "custom": run_trajectory_experiment,
    "sweep": run_sweep_experiment,
    "gauge-check": run_gauge_experiment,
    "effective-vs-full": run_effective_vs_full_experiment,
}


def run_experiment(cfg: dict) -> int:
    started = time.time()
    run = validate_config(cfg)
    stem = run.experiment.replace("-", "_")
    try:
        rows, report, columns = _RUNNERS[run.experiment](run)
    except NUMERICAL_ERRORS as exc:
        diagnostic = {
            "experiment": run.experiment,
            "error": type(exc).__name__,
            "message": str(exc),
            "tau": getattr(exc, "tau", None),
        }
        write_json(resolve_inside(run.outdir, f"{stem}_diagnostic.json"), diagnostic)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    csv_path = resolve_inside(run.outdir, f"{stem}.csv")
    write_csv(csv_path, columns, rows)
    report = {
        **report,
        "config": run.config,
        "seed": run.seed,
        "csv": csv_path.name,
        "csv_rows": [list(map(float, row)) for row in rows],
        "csv_columns": columns,
        "runtime_s": time.time() - started,
        "version": __version__,
    }
    write_json(resolve_inside(run.outdir, f"{stem}_report.json"), report)
    if run.gnuplot:
        ycols = [c for c in columns[1:] if not c.startswith("trace_distance")] or columns[1:]
        script = gnuplot_script(csv_path.name, columns, ycols, run.experiment)
        write_text(resolve_inside(run.outdir, f"{stem}.gnuplot"), script)
    return 0


def run_check(args) -> int:
    results = run_battery()
    payload = {
        "criteria": [dataclasses.asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }
    if args.json:
        print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    else:
        print(battery_table(results), end="")
    if args.output:
        write_json(Path(args.output), payload)
    return 0 if payload["all_passed"] else 3


def _parse_n0(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated components")
    return parts


def _parse_gammaT(text: str):
    values = [float(v) for v in text.split(",")]
    return values[0] if len(values) == 1 else values


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error on exit code 1, the validation-failure code, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="darklind",
        description="Dissipative dark-space adiabatic manipulation experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a named experiment")
    run_p.add_argument("experiment", nargs="?", choices=EXPERIMENTS,
                       help="experiment name (may also come from the config)")
    run_p.add_argument("--config", help="JSON config file")
    run_p.add_argument("--gammaT", type=_parse_gammaT, help="cycle duration(s), comma separated")
    run_p.add_argument("--n0", type=_parse_n0, help="initial Bloch vector, e.g. 0,0,1")
    run_p.add_argument("--outdir", help="output directory (env DARKLIND_OUTDIR overrides)")
    run_p.add_argument("--seed", type=int, help="seed for randomized test matrices")
    run_p.add_argument("--rtol", type=float, help="integration relative tolerance")
    run_p.add_argument("--atol", type=float, help="integration absolute tolerance")
    run_p.add_argument("--checkpoints", type=int, help="number of trajectory checkpoints")
    run_p.add_argument("--gauge-phase", type=float, help="dark-block gauge phase")
    run_p.add_argument("--gnuplot", action="store_true", default=None,
                       help="also emit a gnuplot script")

    check_p = sub.add_parser("check", help="run the acceptance battery")
    check_p.add_argument("--json", action="store_true", help="machine-readable results")
    check_p.add_argument("--output", help="also write the JSON results to a file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        return run_check(args)

    # a flag left unset is None, which the merge skips
    tolerances = {k: v for k, v in (("rtol", args.rtol), ("atol", args.atol)) if v is not None}
    overrides = {
        "experiment": args.experiment,
        "gammaT": args.gammaT,
        "output_dir": args.outdir,
        "seed": args.seed,
        "gnuplot": args.gnuplot,
        "checkpoints": args.checkpoints,
        "initial": None if args.n0 is None else {"bloch": args.n0},
        "tolerances": tolerances or None,
        "gauge": None if args.gauge_phase is None else {"dark_phase": args.gauge_phase},
    }
    try:
        cfg = load_config(args.config, overrides)
        return run_experiment(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
