"""Outside-in tracing: spans around calls into darklind, counters on callbacks.

Nothing here edits the package.  A traced pass swaps the module-level
bindings of a fixed list of public functions for recording wrappers (every
``darklind`` module that imported the function by name is patched, so calls
the program makes internally are seen too) and restores them afterwards.  The
callables the program accepts from outside -- ``Protocol.U``/``Protocol.dU``
and the ``gen_of_t`` callback of ``integrate`` -- are wrapped with call and
time counters instead of spans, because they run tens of thousands of times
per integration.

A span records its name, start, end, parent, item id and the deltas of every
counter between its start and end (inclusive of child spans).  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from contextlib import contextmanager

#: counters attributed to the enclosing span; the ``.s`` ones are seconds
COUNTERS = (
    "U.calls", "U.s", "dU.calls", "dU.s", "gen.calls", "gen.s",
    "rhs_evals", "steps_accepted", "steps_rejected",
)

#: (module, function) pairs whose calls become spans in a traced pass
INSTRUMENTED = (
    ("engine", "integrate"),
    ("effective", "evolve_effective"),
    ("effective", "end_of_cycle_state"),
    ("effective", "berry_holonomy"),
    ("effective", "x_tau_integral"),
    ("effective", "effective_jump"),
    ("effective", "c_tau_ode_residual"),
    ("effective", "reconstruct_full_state"),
    ("analysis", "purity_prediction_general"),
    ("analysis", "purity_prediction_spin32"),
    ("cli", "main"),
)


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    item: str | None
    start: float
    end: float = 0.0
    deltas: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span stack, counters and the wrappers that feed them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[tuple[Span, dict]] = []
        self.item: str | None = None
        #: per wrapped protocol: U calls made while it was being constructed
        #: and U calls in total, for the reconciliation self-test
        self.protocols: list[dict] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1][0].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.item, time.perf_counter())
        self.spans.append(span)
        self._stack.append((span, dict(self.counters)))
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _, before = self._stack.pop()
            span.deltas = {k: self.counters[k] - before[k] for k in COUNTERS}

    def counting(self, key: str, fn, own: dict | None = None):
        """Wrap a one-argument callback with call and time counters."""
        counters = self.counters
        clock = time.perf_counter
        calls, seconds = key + ".calls", key + ".s"

        def wrapped(arg):
            t0 = clock()
            try:
                return fn(arg)
            finally:
                counters[calls] += 1
                counters[seconds] += clock() - t0
                if own is not None:
                    own[key] += 1

        return wrapped

    def wrap_protocol(self, protocol):
        """Same protocol with counted U/dU; construction re-runs its checks."""
        own = {"U": 0, "dU": 0}
        wrapped = dataclasses.replace(
            protocol,
            U=self.counting("U", protocol.U, own),
            dU=None if protocol.dU is None else self.counting("dU", protocol.dU, own),
        )
        own["construction_U"] = own["U"]
        self.protocols.append(own)
        return wrapped, own

    def _spanning(self, name: str, fn):
        def wrapped(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    def _integrating(self, fn):
        counters = self.counters

        def wrapped(gen_of_t, *args, **kwargs):
            with self.span("engine.integrate"):
                traj = fn(self.counting("gen", gen_of_t), *args, **kwargs)
                stats = traj.step_stats
                counters["rhs_evals"] += stats.rhs_evaluations
                counters["steps_accepted"] += stats.accepted
                counters["steps_rejected"] += stats.rejected
            return traj

        return wrapped

    @contextmanager
    def patched(self):
        """Route the instrumented functions through span wrappers."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "darklind" or n.startswith("darklind."))]
        saved = []
        try:
            for module_name, func_name in INSTRUMENTED:
                original = getattr(sys.modules[f"darklind.{module_name}"], func_name)
                if func_name == "integrate":
                    wrapper = self._integrating(original)
                else:
                    wrapper = self._spanning(f"{module_name}.{func_name}", original)
                for module in modules:
                    if getattr(module, func_name, None) is original:
                        saved.append((module, func_name, original))
                        setattr(module, func_name, wrapper)
            yield self
        finally:
            for module, func_name, original in reversed(saved):
                setattr(module, func_name, original)

    def _children(self) -> dict:
        kids: dict = {}
        for s in self.spans:
            kids.setdefault(s.parent, []).append(s)
        return kids

    def self_times(self) -> dict:
        """Span id -> duration minus the durations of its child spans."""
        kids = self._children()
        return {s.id: s.duration - sum(c.duration for c in kids.get(s.id, ()))
                for s in self.spans}

    def structure_errors(self) -> list[str]:
        """Nesting, non-negative self time, and self times summing to each root."""
        errors = []
        by_id = {s.id: s for s in self.spans}
        kids = self._children()
        self_of = self.self_times()
        for s in self.spans:
            ordered = sorted(kids.get(s.id, []), key=lambda c: c.start)
            for a, b in zip(ordered, ordered[1:]):
                if b.start < a.end:
                    errors.append(f"siblings {a.name}#{a.id} and {b.name}#{b.id} overlap")
            if s.parent is not None:
                p = by_id[s.parent]
                if s.start < p.start or s.end > p.end:
                    errors.append(f"{s.name}#{s.id} leaves its parent {p.name}#{p.id}")
            if self_of[s.id] < -1e-9:
                errors.append(f"{s.name}#{s.id} has negative self time {self_of[s.id]:.3g}")
        for root in kids.get(None, []):
            total, todo = 0.0, [root]
            while todo:
                s = todo.pop()
                total += self_of[s.id]
                todo.extend(kids.get(s.id, []))
            if abs(total - root.duration) > 1e-9 * (1 + len(self.spans)):
                errors.append(f"self times under {root.name}#{root.id} sum to {total:.9g}, "
                              f"not its duration {root.duration:.9g}")
        return errors

    def export(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]
