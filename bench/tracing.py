"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps public functions and methods of hierwave's layers
with span recorders; ``Tracer.remove`` puts the originals back.  A span is
(name, layer, start, end, parent) plus a few facts read off the call's
arguments, result or exception.  Spans stay in memory; the metrics are
computed from them after the timed loop.  A target that no longer exists is
skipped, and the metrics that depend only on it are reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    facts: dict = field(default_factory=dict)
    child_s: float = 0.0


# (module, attribute path, span name, layer); the span name doubles as the
# key the metrics below are computed from.
TARGETS = (
    ("hierwave.wave_core", "WaveOperator.lu", "wave_core.lu", "wave_core"),
    ("hierwave.wave_core", "WaveOperator.solve_lu", "wave_core.solve", "wave_core"),
    ("hierwave.wave_core", "WaveOperator.solve_adjoint", "wave_core.solve", "wave_core"),
    ("hierwave.wave_core", "WaveOperator.march", "wave_core.march", "wave_core"),
    ("hierwave.coupled", "CoupledEngine.coupled_lu", "coupled.lu", "coupled"),
    ("hierwave.coupled", "CoupledEngine.direct_pair", "coupled.direct", "coupled"),
    ("hierwave.coupled", "CoupledEngine.direct_adjoint_pair", "coupled.direct", "coupled"),
    ("hierwave.coupled", "CoupledEngine.picard_pair", "coupled.picard", "coupled"),
    ("hierwave.coupled", "CoupledEngine.picard_adjoint_pair", "coupled.picard", "coupled"),
    ("hierwave.coupled", "solve_nash_system", "coupled.nash", "coupled"),
    ("hierwave.coupled", "apply_A", "coupled.apply", "coupled"),
    ("hierwave.coupled", "apply_A_star", "coupled.apply", "coupled"),
    ("hierwave.leader_dual", "minimize_dual", "leader_dual.minimize", "leader_dual"),
    ("hierwave.leader_dual", "vi_residual", "leader_dual.certificate", "leader_dual"),
    ("hierwave.grid", "save_field_csv", "grid.csv_write", "grid"),
    ("hierwave.grid", "save_profile_csv", "grid.csv_write", "grid"),
    ("hierwave.grid", "save_trace_csv", "grid.csv_write", "grid"),
    ("hierwave.grid", "load_field_csv", "grid.csv_read", "grid"),
    ("hierwave.grid", "load_profile_csv", "grid.csv_read", "grid"),
    ("hierwave.grid", "load_trace_csv", "grid.csv_read", "grid"),
)
# Called thousands of times per leader op from inside the dual loop: counted,
# not timed, so that its cost stays in the caller's self time.
COUNTED = (("hierwave.grid", "PoissonRiesz.solve_values", "grid.riesz_solve"),)

LAYERS = ("cli", "grid", "wave_core", "coupled", "leader_dual")

# metric name -> (unit, span names it needs)
METRICS = {
    "wave_core.factor_count": ("count", ("wave_core.lu",)),
    "wave_core.factor_s": ("s", ("wave_core.lu",)),
    "wave_core.lu_nnz": ("count", ("wave_core.lu",)),
    "wave_core.solve_count": ("count", ("wave_core.solve",)),
    "wave_core.solve_s": ("s", ("wave_core.solve",)),
    "wave_core.march_count": ("count", ("wave_core.march",)),
    "wave_core.march_s": ("s", ("wave_core.march",)),
    "wave_core.self_s": ("s", ()),
    "coupled.factor_count": ("count", ("coupled.lu",)),
    "coupled.factor_s": ("s", ("coupled.lu",)),
    "coupled.lu_nnz": ("count", ("coupled.lu",)),
    "coupled.direct_solve_count": ("count", ("coupled.direct",)),
    "coupled.direct_solve_s": ("s", ("coupled.direct",)),
    "coupled.picard_sweeps": ("count", ("coupled.picard",)),
    "coupled.picard_s": ("s", ("coupled.picard",)),
    "coupled.picard_wasted_sweeps": ("count", ("coupled.picard",)),
    "coupled.fallback_count": ("count", ("coupled.nash",)),
    "coupled.nash_s": ("s", ("coupled.nash",)),
    "coupled.apply_count": ("count", ("coupled.apply",)),
    "coupled.apply_s": ("s", ("coupled.apply",)),
    "coupled.self_s": ("s", ()),
    "leader_dual.iterations": ("count", ("leader_dual.minimize",)),
    "leader_dual.minimize_s": ("s", ("leader_dual.minimize",)),
    "leader_dual.self_s": ("s", ("leader_dual.minimize",)),
    "leader_dual.certificate_s": ("s", ("leader_dual.certificate",)),
    "grid.csv_write_s": ("s", ("grid.csv_write",)),
    "grid.csv_read_s": ("s", ("grid.csv_read",)),
    "grid.riesz_solve_count": ("count", ("grid.riesz_solve",)),
    "grid.self_s": ("s", ()),
    "cli.op_s": ("s", ()),
    "cli.self_s": ("s", ()),
    "trace.span_count": ("count", ()),
}


def _resolve(module: str, path: str):
    """(owner, attribute, original) or None when the target is gone."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._factored = weakref.WeakSet()

    # -- recording -----------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.end - span.start
        return span

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span = tracer.close(index)
                history = getattr(err, "residual_history", None)
                if history is not None:
                    span.facts["sweeps"] = len(history)
                    span.facts["wasted"] = len(history)
                raise
            span = tracer.close(index)
            tracer._facts(span, args, result)
            return result

        return traced

    def _facts(self, span: Span, args, result) -> None:
        """Read counts off a finished call; runs outside the span's interval."""
        if span.name in ("wave_core.lu", "coupled.lu"):
            owner = args[0]
            if owner not in self._factored:
                self._factored.add(owner)
                span.facts["factored"] = 1
                span.facts["nnz"] = int(getattr(result, "nnz", 0))
        elif span.name == "coupled.picard":
            span.facts["sweeps"] = int(result[3])
        elif span.name == "coupled.nash":
            span.facts["fallback"] = int("fallback" in str(getattr(result, "method", "")))

    def _count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        hierwave_modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "hierwave"]
        for module, path, name, layer in TARGETS + tuple((m, p, n, None) for m, p, n in COUNTED):
            found = _resolve(module, path)
            if found is None:
                continue
            owner, attr, original = found
            wrapper = self._wrap(original, name, layer) if layer else self._count(original, name)
            self.present.add(name)
            if "." in path:
                self._patch(owner, attr, original, wrapper)
                continue
            # module-level functions are also bound by name in importing modules
            for mod in hierwave_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- metrics -------------------------------------------------------------

    def metrics(self, first: int, last: int, leader_iterations: int | None) -> dict[str, float]:
        """Per-layer metrics over spans[first:last]: the ops of one round."""
        spans = self.spans[first:last]
        total: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            total[key] = total.get(key, 0.0) + value

        for span in spans:
            dur = span.end - span.start
            add(f"{span.layer}.self_s", dur - span.child_s)
            add(f"{span.name}#n", 1)
            add(f"{span.name}#s", dur)
            add(f"{span.name}#self", dur - span.child_s)
            for key, value in span.facts.items():
                add(f"{span.name}#{key}", value)
                if key == "factored":
                    add(f"{span.name}#factor_s", dur)

        def get(key: str) -> float:
            return total.get(key, 0.0)

        out = {
            "wave_core.factor_count": get("wave_core.lu#factored"),
            "wave_core.factor_s": get("wave_core.lu#factor_s"),
            "wave_core.lu_nnz": get("wave_core.lu#nnz"),
            "wave_core.solve_count": get("wave_core.solve#n"),
            # the first solve on an operator also pays its factorization
            "wave_core.solve_s": get("wave_core.solve#self"),
            "wave_core.march_count": get("wave_core.march#n"),
            "wave_core.march_s": get("wave_core.march#s"),
            "wave_core.self_s": get("wave_core.self_s"),
            "coupled.factor_count": get("coupled.lu#factored"),
            "coupled.factor_s": get("coupled.lu#factor_s"),
            "coupled.lu_nnz": get("coupled.lu#nnz"),
            "coupled.direct_solve_count": get("coupled.direct#n"),
            "coupled.direct_solve_s": get("coupled.direct#self"),
            "coupled.picard_sweeps": get("coupled.picard#sweeps"),
            "coupled.picard_s": get("coupled.picard#s"),
            "coupled.picard_wasted_sweeps": get("coupled.picard#wasted"),
            "coupled.fallback_count": get("coupled.nash#fallback"),
            "coupled.nash_s": get("coupled.nash#s"),
            "coupled.apply_count": get("coupled.apply#n"),
            "coupled.apply_s": get("coupled.apply#s"),
            "coupled.self_s": get("coupled.self_s"),
            "leader_dual.minimize_s": get("leader_dual.minimize#s"),
            "leader_dual.self_s": get("leader_dual.self_s"),
            "leader_dual.certificate_s": get("leader_dual.certificate#s"),
            "grid.csv_write_s": get("grid.csv_write#s"),
            "grid.csv_read_s": get("grid.csv_read#s"),
            "grid.riesz_solve_count": float(self.counts.get("grid.riesz_solve", 0)),
            "grid.self_s": get("grid.self_s"),
            "cli.op_s": get("cli.op#s"),
            "cli.self_s": get("cli.self_s"),
            "trace.span_count": float(len(spans)),
        }
        if leader_iterations is not None:
            out["leader_dual.iterations"] = float(leader_iterations)
        # a metric whose target is gone is absent, not zero
        return {
            key: value
            for key, value in out.items()
            if key in METRICS and all(name in self.present for name in METRICS[key][1])
        }
