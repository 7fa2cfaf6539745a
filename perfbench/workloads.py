"""The benchmark's workloads: inputs from the seed, timed items, their checks.

Every item is one or a few calls into darklind's public API.  ``run`` makes
the calls through module attributes (so a traced pass sees them) and returns
the outputs; ``check`` turns the outputs into ``Check`` verdicts, and the
item fails when any error exceeds its tolerance.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from darklind import analysis, checks, cli, effective, engine, linalg, protocols

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

N0_Z = (0.0, 0.0, 1.0)
N0_Y = (0.0, 1.0, 0.0)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)

#: trace distance to the tight-tolerance reference that an integration item
#: may reach; the brute-force gate of the roadmap
REFERENCE_TOL = 1e-9
#: frozen-state prediction against the spin-3/2 closed form
PREDICTION_TOL = 1e-6
#: criterion 5 and criterion 7 windows
JUMP_TOL = 1e-6
RESIDUAL_TOL = 1e-7


class Check(NamedTuple):
    """One verdict on an item's output: it passes when ``error <= tolerance``."""

    label: str
    error: float
    tolerance: float
    #: False for a window on an outcome (an exit code, a pass vector): it
    #: counts in ``failed`` but is no error against a reference, so it stays
    #: out of ``ref_error_ratio``
    accuracy: bool = True


def window(label: str, value: float, limit: float) -> Check:
    return Check(label, value, limit, accuracy=False)


@dataclass
class Item:
    id: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    items: list
    #: wrapped protocols used only by lab-frame items, and the rotating-frame
    #: items, for the counter reconciliation of a traced run
    lab_protocols: list = field(default_factory=list)
    rotating_items: list = field(default_factory=list)


def physicality(label: str, rho: np.ndarray) -> list:
    """Trace, Hermiticity and positivity errors against the engine's tolerances."""
    rho = np.asarray(rho, dtype=complex)
    herm = linalg.frobenius(rho - linalg.dagger(rho))
    trace = abs(np.trace(rho) - 1.0)
    negativity = max(0.0, -float(np.linalg.eigvalsh(0.5 * (rho + linalg.dagger(rho))).min()))
    return [
        Check(f"{label} trace", trace, engine.TRACE_TOL),
        Check(f"{label} hermiticity", herm, engine.HERMITICITY_TOL),
        Check(f"{label} negativity", negativity, engine.POSITIVITY_TOL),
    ]


def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


def as_matrix(entry: dict) -> np.ndarray:
    return np.asarray(entry["re"], dtype=float) + 1j * np.asarray(entry["im"], dtype=float)


def spin52_protocol(gammaT: float):
    """Spin-5/2 custom protocol: one S_y winding, lowering jump, dimension 6."""
    sx, sy, _ = protocols.spin_operators(5)
    lowering = linalg.dagger(sx + 1j * sy)
    turn = 2.0 * math.pi
    return protocols.custom_protocol(
        [sy], [lambda s: turn * s], lowering, gammaT, dangles=[lambda s: turn],
        descriptor={"family": "custom", "two_j": 5, "generators": ["sy"],
                    "jump": "lowering", "gammaT": gammaT},
    )


#: reference items: (id, path family, windings, gammaT, n0, frame); the
#: spin-5/2 item has no path and starts in its one-dimensional dark space.
#: The cycles are a tenth of the acceptance battery's (gammaT 100-800), so
#: that no item runs longer than about a second and a run makes several
#: passes; the step count still grows with gammaT.
REFERENCE_SPECS = (
    ("lab-linear-10-z", "linear", (1, 0), 10.0, N0_Z, "lab"),
    ("lab-linear-20-z", "linear", (1, 0), 20.0, N0_Z, "lab"),
    ("lab-linear-20-y", "linear", (1, 0), 20.0, N0_Y, "lab"),
    ("lab-linear-40-z", "linear", (1, 0), 40.0, N0_Z, "lab"),
    ("lab-linear-80-z", "linear", (1, 0), 80.0, N0_Z, "lab"),
    ("lab-smoothstep-20-z", "smoothstep", (1, 1), 20.0, N0_Z, "lab"),
    ("rot-linear-20-z", "linear", (1, 0), 20.0, N0_Z, "rotating"),
    ("lab-spin52-20", None, None, 20.0, None, "lab"),
)
CHECKPOINTS = 33
PATHS = {"linear": protocols.linear_path, "smoothstep": protocols.smoothstep_path}


def reference_inputs(wrap=None):
    """Per reference item: (id, protocol, initial full state, frame, gammaT).

    Items that share a path and gammaT share one protocol object.  ``wrap``,
    when given, maps each constructed protocol to its traced twin and
    returns (protocol, counter record).
    """
    built: dict = {}
    out = []
    for item_id, family, winding, gammaT, n0, frame in REFERENCE_SPECS:
        key = (family, winding, gammaT, frame)
        if key not in built:
            if family is None:
                proto = spin52_protocol(gammaT)
            else:
                proto = protocols.spin32_protocol(PATHS[family](*winding), gammaT)
            record = None
            if wrap is not None:
                proto, record = wrap(proto)
            built[key] = (proto, effective.dark_space(proto.L_rot), record)
        proto, ds, record = built[key]
        rho_d = np.eye(1, dtype=complex) if n0 is None else analysis.dark_state_from_bloch(n0)
        out.append((item_id, proto, effective.embed_dark(ds, rho_d), frame, gammaT, record))
    return out


def integrate_item(proto, rho0, frame, gammaT, rtol=1e-9, atol=1e-12):
    make = effective.lab_generator if frame == "lab" else effective.rotating_generator
    return engine.integrate(
        make(proto), rho0, (0.0, gammaT), rtol=rtol, atol=atol,
        checkpoints=np.linspace(0.0, gammaT, CHECKPOINTS),
    )


def reference(seed: int, tracer=None) -> Workload:
    """Brute-force Lindblad integrations; the seed does not change them."""
    del seed  # every item has a stored reference
    refs = load_references()["reference"]
    workload = Workload([])
    wrap = None if tracer is None else tracer.wrap_protocol
    for item_id, proto, rho0, frame, gammaT, record in reference_inputs(wrap):
        expected = as_matrix(refs[item_id])

        def check(traj, item_id=item_id, expected=expected):
            td = analysis.trace_distance(traj.final, expected)
            return [Check(f"{item_id} trace distance", td, REFERENCE_TOL)] + physicality(
                f"{item_id} final", traj.final)

        workload.items.append(Item(
            item_id,
            lambda proto=proto, rho0=rho0, frame=frame, gammaT=gammaT:
                integrate_item(proto, rho0, frame, gammaT),
            check,
        ))
        if record is not None:
            if frame == "lab":
                workload.lab_protocols.append((record, item_id))
            else:
                workload.rotating_items.append(item_id)
    return workload


def fourier_knots(seed: int) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    theta_knot, phi_knot = rng.uniform(-0.3, 0.3, size=2)
    return float(theta_knot), float(phi_knot)


def reduced(seed: int, tracer=None) -> Workload:
    """Reduced dark-space theory on four paths, one of them seeded."""
    theta_knot, phi_knot = fourier_knots(seed)
    paths = (
        ("linear-200", protocols.linear_path(1, 0), 200.0),
        ("linear-800", protocols.linear_path(1, 0), 800.0),
        ("smoothstep-200", protocols.smoothstep_path(1, 1), 200.0),
        ("fourier-200", protocols.fourier_path(1, 0, theta_knots=(theta_knot,),
                                               phi_knots=(phi_knot,)), 200.0),
    )
    rho_d = analysis.dark_state_from_bloch(N0_Z)
    workload = Workload([])
    for item_id, path, gammaT in paths:
        proto = protocols.spin32_protocol(path, gammaT)
        if tracer is not None:
            proto, _ = tracer.wrap_protocol(proto)
        ds = effective.dark_space(proto.L_rot)

        taus = np.linspace(0.0, gammaT, CHECKPOINTS)

        def check_states(states, item_id=item_id):
            found = []
            for k, state in enumerate(states):
                found += physicality(f"{item_id} evolve_effective[{k}]", state)
            return found

        def check_predictions(out, item_id=item_id):
            general, closed_form = out
            return [Check(f"{item_id} general vs closed form", abs(general - closed_form),
                          PREDICTION_TOL)]

        def check_holonomy(v, item_id=item_id):
            return [Check(f"{item_id} holonomy unitarity",
                          linalg.frobenius(linalg.dagger(v) @ v - np.eye(v.shape[0])),
                          engine.HERMITICITY_TOL)]

        # One item per call (the two purity predictions are one item because
        # each checks the other), so that calibration samples fall between them.
        workload.items += [
            Item(f"{item_id}-evolve",
                 lambda proto=proto, ds=ds, taus=taus:
                     effective.evolve_effective(rho_d, proto, ds, taus, mode="full"),
                 check_states),
            Item(f"{item_id}-end",
                 lambda proto=proto, ds=ds:
                     effective.end_of_cycle_state(rho_d, proto, ds, method="formula"),
                 lambda end, item_id=item_id: physicality(f"{item_id} end_of_cycle", end)),
            Item(f"{item_id}-predictions",
                 lambda path=path, proto=proto, ds=ds, gammaT=gammaT: (
                     analysis.purity_prediction_general(rho_d, proto, ds),
                     analysis.purity_prediction_spin32(path, N0_Z, gammaT)),
                 check_predictions),
            Item(f"{item_id}-holonomy",
                 lambda proto=proto, ds=ds, gammaT=gammaT:
                     effective.berry_holonomy(proto, ds, gammaT),
                 check_holonomy),
        ]
    return workload


RECONSTRUCT_TAUS = (50.0, 100.0, 150.0)


def reconstruct_references() -> dict:
    """Reconstructed states on the linear path at gammaT = 200, adiabatic kernel."""
    proto = protocols.spin32_protocol(protocols.linear_path(1, 0), 200.0)
    ds = effective.dark_space(proto.L_rot)
    rho_d = analysis.dark_state_from_bloch(N0_Z)
    return {tau: effective.reconstruct_full_state(rho_d, proto, ds, tau, source="adiabatic")[0]
            for tau in RECONSTRUCT_TAUS}


#: effective jumps and ODE residuals per item, so that no item runs longer
#: than about half a second
JUMPS_PER_ITEM = 27
RESIDUALS_PER_ITEM = 8


#: the criterion-7 grid; its worst residual sets the workload's
#: ``ref_error_ratio``, so it does not depend on the seed
RESIDUAL_TAUS = np.linspace(0.2, 20.0, 64)


def jump_taus(seed: int) -> np.ndarray:
    """81 jump times drawn from U(0, 20)."""
    return np.sort(np.random.default_rng(seed).uniform(0.0, 20.0, 81))


def kernel(seed: int, tracer=None) -> Workload:
    """Memory-kernel quadrature: effective jump, ODE residual, reconstruction."""
    proto = protocols.spin32_protocol(protocols.linear_path(1, 0), 200.0)
    if tracer is not None:
        proto, _ = tracer.wrap_protocol(proto)
    ds = effective.dark_space(proto.L_rot)
    rho_d = analysis.dark_state_from_bloch(N0_Z)
    workload = Workload([])

    def check_jumps(ells, taus):
        worst = max(
            linalg.frobenius(ell - 2j * math.pi * (1.0 - math.exp(-1.5 * tau)) * SIGMA_Z)
            for ell, tau in zip(ells, taus)
        )
        return [Check("effective jump vs 2 pi (1 - exp(-3 tau/2)) i sigma_z", worst, JUMP_TOL)]

    jumps = jump_taus(seed)
    for k in range(0, len(jumps), JUMPS_PER_ITEM):
        taus = jumps[k:k + JUMPS_PER_ITEM]
        workload.items.append(Item(
            f"effective-jump-{k // JUMPS_PER_ITEM}",
            lambda taus=taus: [effective.effective_jump(proto, ds, float(tau)) for tau in taus],
            lambda ells, taus=taus: check_jumps(ells, taus),
        ))
    for k in range(0, len(RESIDUAL_TAUS), RESIDUALS_PER_ITEM):
        taus = RESIDUAL_TAUS[k:k + RESIDUALS_PER_ITEM]
        workload.items.append(Item(
            f"c-tau-residual-{k // RESIDUALS_PER_ITEM}",
            lambda taus=taus: effective.c_tau_ode_residual(proto, ds, taus),
            lambda residual: [Check("c_tau ODE residual", residual, RESIDUAL_TOL)],
        ))

    # The map is second order in 1/gammaT, so its output may leave the
    # positive cone by O(1/gammaT^3) (1.1e-7 here): no positivity check.  The
    # stored reference uses the adiabatic kernel, which is exact for this
    # path once the e^{-3 tau/2} transient has died.
    stored = load_references()["reconstruct"]
    expected = {tau: as_matrix(stored[f"{tau:g}"]) for tau in RECONSTRUCT_TAUS}

    def check_reconstruct(results):
        found = []
        for tau, (state, _) in zip(RECONSTRUCT_TAUS, results):
            label = f"reconstructed state at tau={tau:g}"
            found += [
                Check(f"{label} trace distance", analysis.trace_distance(state, expected[tau]),
                      REFERENCE_TOL),
                Check(f"{label} trace", abs(np.trace(state) - 1.0), engine.TRACE_TOL),
                Check(f"{label} hermiticity", linalg.frobenius(state - linalg.dagger(state)),
                      engine.HERMITICITY_TOL),
            ]
        return found

    workload.items.append(Item(
        "reconstruct",
        lambda: [effective.reconstruct_full_state(rho_d, proto, ds, tau)
                 for tau in RECONSTRUCT_TAUS],
        check_reconstruct,
    ))
    return workload


#: the criteria the battery workload runs: 4 (holonomy triviality) and 5
#: (effective jump against its closed form) share the battery's acceptance
#: context and take about a second together; the others integrate for
#: several seconds each and would leave a run a single pass
BATTERY_CRITERIA = (4, 5)
#: the exit code of ``darklind check`` when every criterion run passes
BATTERY_EXIT_CODE = 0


def battery_numbers(payload: dict) -> dict:
    """The pass vector and the numbers criteria 4 and 5 report."""
    by_number = {c["number"]: c for c in payload["criteria"]}
    return {
        "passed": [by_number[n]["passed"] for n in sorted(by_number)],
        "criterion_4_defect": by_number[4]["detail"]["defect"],
        "criterion_5_max_deviation": by_number[5]["detail"]["max_deviation"],
    }


#: criteria 4 and 5 bounds at tolerance scale 1: |V - 1| and the jump's
#: deviation from 2 pi (1 - e^{-3 tau/2}) i sigma_z
BATTERY_BOUNDS = (("criterion_4_defect", 1e-8), ("criterion_5_max_deviation", 1e-6))


@contextlib.contextmanager
def battery_subset():
    """Have ``darklind check`` run only ``BATTERY_CRITERIA``, then restore it."""
    full = checks.CRITERIA
    checks.CRITERIA = tuple(full[n - 1] for n in BATTERY_CRITERIA)
    try:
        yield
    finally:
        checks.CRITERIA = full


def run_check(target: Path) -> tuple[int, dict]:
    """``darklind check --output target`` in-process on the criteria subset."""
    target.parent.mkdir(exist_ok=True)
    try:
        with battery_subset(), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check", "--output", str(target)])
        with open(target) as handle:
            return code, json.load(handle)
    finally:
        target.unlink(missing_ok=True)


def battery(seed: int, tracer=None) -> Workload:
    """``darklind check`` in-process on criteria 4 and 5; exit code 0 expected."""
    del seed, tracer  # the battery builds its own inputs
    pinned = load_references()["battery"]
    target = HERE / "out" / f"battery-check-{os.getpid()}.json"

    def check(result):
        code, payload = result
        seen = battery_numbers(payload)
        found = [
            window(f"battery exit code is {BATTERY_EXIT_CODE}",
                   float(code != BATTERY_EXIT_CODE), 0.0),
            window("battery pass vector matches the pinned one",
                   float(seen["passed"] != pinned["passed"]), 0.0),
        ]
        for key, tol in BATTERY_BOUNDS:
            found.append(Check(key.replace("_", " "), seen[key], tol))
        return found

    return Workload([Item("check", lambda: run_check(target), check)])


WORKLOADS = {"reference": reference, "reduced": reduced, "kernel": kernel, "battery": battery}
