"""Outside-in tracing of ergolab's modules, for the per-layer metrics.

The traced run replaces selected public functions and methods of ergolab
with timing wrappers, at every import site inside the package (a name that
`runner` imported from `suites` is a separate binding and is patched too).
Nothing inside ergolab changes, so a traced pass must emit the same bits as
an untraced one; run.py checks that through the result digest.

Each wrapped call is a span with a layer name, a start, an end and a parent
span.  Spans are aggregated in memory per (layer, parent) into call count,
inclusive busy time and self time (busy time minus the time of child
spans), because the joining workload makes about a million wrapped calls.
A call into a layer that is already active on the stack (a batch `step`
that steps point by point, `birkhoff_average` delegating to
`multilinear_average_linear`) folds into the enclosing span.  Work counts
(points, elements, tuples) are taken from arguments and results at the same
boundaries, so they repeat exactly from run to run.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

import numpy as np

SYSTEM_KINDS = (("rotation", "Rotation"), ("skew", "SkewProduct"),
                ("heisenberg", "HeisenbergTranslation"),
                ("automorphism", "ToralAutomorphism"))
AVERAGING_ENTRIES = ("birkhoff_average", "multilinear_average_linear",
                     "multilinear_average_square", "cube_average",
                     "linear_trajectory", "square_trajectory",
                     "folner_average")
CLOSED_FORMS = ("birkhoff_closed", "linear_closed", "square_closed",
                "cube_closed", "box_closed")
# Cap name -> (module, attribute) holding its value.
CAPS = {"GRID_CAP": ("averaging", "GRID_CAP"), "TUPLE_CAP": ("exact", "TUPLE_CAP"),
        "CLOUD_CAP": ("joinings", "CLOUD_CAP"), "TERM_CAP": ("observables", "TERM_CAP")}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []        # frames [layer, child time]
        self.active: set[str] = set()
        self.spans: dict[tuple, list] = {}  # (layer, parent) -> [calls, busy, self]
        self.counts: dict[str, int] = defaultdict(int)
        self.used: dict[str, int] = defaultdict(int)  # cap -> largest use seen

    def reset(self) -> None:
        self.stack.clear()
        self.active.clear()
        self.spans.clear()
        self.counts.clear()
        self.used.clear()

    def use(self, cap: str, amount: int) -> None:
        if amount > self.used[cap]:
            self.used[cap] = amount

    def wrap(self, layer: str, fn, counter=None):
        stack, active, spans = self.stack, self.active, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if layer in active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            active.add(layer)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active.discard(layer)
                if parent is not None:
                    parent[1] += dt
                key = (layer, parent[0] if parent is not None else None)
                rec = spans.get(key)
                if rec is None:
                    rec = spans[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if counter is not None:
                counter(self, layer, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_term_tuples(self, fn):
        """term_tuples is a generator: count the tuples as they are drawn."""
        counts = self.counts

        def traced(fs, *args, **kwargs):
            self.use("TUPLE_CAP", math.prod(max(1, f.term_count) for f in fs))
            for item in fn(fs, *args, **kwargs):
                counts["exact.term_tuples.tuples"] += 1
                yield item
        traced.__wrapped__ = fn
        return traced

    # -- aggregation --------------------------------------------------------

    def calls(self, layer: str) -> int:
        return sum(r[0] for (name, _), r in self.spans.items() if name == layer)

    def busy(self, layer: str) -> float:
        return sum(r[1] for (name, _), r in self.spans.items() if name == layer)

    def self_time(self, layer: str) -> float:
        return sum(r[2] for (name, _), r in self.spans.items() if name == layer)

    def table(self) -> list[dict]:
        return [{"layer": layer, "parent": parent, "calls": r[0],
                 "busy_s": r[1], "self_s": r[2]}
                for (layer, parent), r in sorted(
                    self.spans.items(), key=lambda kv: -kv[1][1])]


# -- work counters, called with (tracer, layer, args, kwargs, result) -------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_add(t, layer, a, kw, r):
    t.counts[layer + ".elems"] += int(np.size(a[1]))


def _count_evaluate(t, layer, a, kw, r):
    pts = r.size if isinstance(r, np.ndarray) else 1
    t.counts[layer + ".pts"] += pts
    t.counts[layer + ".pt_terms"] += pts * a[0].term_count


def _count_multiply(t, layer, a, kw, r):
    t.use("TERM_CAP", a[0].term_count * a[1].term_count)


def _count_rows(t, layer, a, kw, r):
    t.counts[layer + ".pts"] += len(r)


def _count_geometric(t, layer, a, kw, r):
    t.counts[layer + ".pts"] += max(_arg(a, kw, 1, "checkpoints"))


def _direct(system, mode) -> bool:
    return mode == "direct" or (mode == "auto" and system.phase_basis() is None)


def _grid_counter(entry: str):
    """GRID_CAP use of the direct grid walks, read from the entry's args."""
    def count(t, layer, a, kw, r):
        if entry == "folner_average":
            t.use("GRID_CAP", _arg(a, kw, 3, "box").size)
            return
        system, fs = a[0], _arg(a, kw, 1, "fs")
        if entry == "multilinear_average_square":
            n, mode = _arg(a, kw, 3, "N"), _arg(a, kw, 4, "mode", "auto")
            if _direct(system, mode):
                t.use("GRID_CAP", len(fs) * n * n)
        elif entry == "square_trajectory":
            n, mode = max(_arg(a, kw, 3, "checkpoints")), _arg(a, kw, 4, "mode", "auto")
            if _direct(system, mode):
                t.use("GRID_CAP", len(fs) * n * n)
        elif entry == "cube_average":
            n, mode = _arg(a, kw, 3, "N"), _arg(a, kw, 4, "mode", "auto")
            if _direct(system, mode):
                t.use("GRID_CAP", n ** len(next(iter(fs))))
    return count


def _count_cloud(t, layer, a, kw, r):
    t.counts["joinings.cloud_tuples"] += r.tuple_count
    t.use("CLOUD_CAP", r.tuple_count)


def _count_integrate(t, layer, a, kw, r):
    t.counts[layer + ".tuples"] += a[0].tuple_count


def _count_fallback(t, layer, a, kw, r):
    t.counts[layer + ".fallbacks"] += int(not r.exact)


def _targets():
    """(layer, module, qualified name, counter) for every wrapped callable."""
    out = [("phases.MeanAccumulator.add", "phases", "MeanAccumulator.add", _count_add),
           ("phases.exact_reductions", "phases", "frac_combo", None),
           ("phases.exact_reductions", "phases", "frac_fraction", None),
           ("observables.evaluate", "observables", "evaluate", _count_evaluate),
           ("observables.multiply", "observables", "multiply", _count_multiply),
           ("observables.compose_with_power", "observables", "compose_with_power", None)]
    for kind, cls in SYSTEM_KINDS:
        out.append((f"systems.orbit_points.{kind}", "systems",
                    f"{cls}.orbit_points", _count_rows))
        out.append(("systems.step", "systems", f"{cls}.step", None))
    out.append(("averaging.geometric_mean_streamed", "averaging",
                "geometric_mean_streamed", _count_geometric))
    out += [("averaging", "averaging", name, _grid_counter(name))
            for name in AVERAGING_ENTRIES]
    out += [("exact.closed", "exact", name, None) for name in CLOSED_FORMS]
    out += [("exact.geometric_mean_closed", "exact", "geometric_mean_closed", None),
            ("joinings.empirical_self_joining", "joinings", "empirical_self_joining",
             _count_cloud),
            ("joinings.fiber_measure", "joinings", "fiber_measure", _count_cloud),
            ("joinings.integrate_tensor", "joinings", "integrate_tensor",
             _count_integrate),
            ("seminorms.hk_seminorm", "seminorms", "hk_seminorm", _count_fallback),
            ("seminorms.van_der_corput_check", "seminorms", "van_der_corput_check",
             None),
            ("suites.vdc_family", "suites", "vdc_family", None),
            ("config.parse_config", "config", "parse_config", None),
            ("runner.run_experiment", "runner", "run_experiment", None),
            ("cli.main", "cli", "main", None)]
    return out


def _rebind(original, replacement) -> None:
    """Point every ergolab module-level name bound to `original` at
    `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if modname != "ergolab" and not modname.startswith("ergolab."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap ergolab's layers; call after the last import of the package."""
    for layer, modname, qualname, counter in _targets():
        mod = sys.modules["ergolab." + modname]
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(layer, cls.__dict__[meth], counter))
        else:
            original = getattr(mod, qualname)
            _rebind(original, tracer.wrap(layer, original, counter))
    exact = sys.modules["ergolab.exact"]
    _rebind(exact.term_tuples, tracer.wrap_term_tuples(exact.term_tuples))


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass; zero where a workload does
    not reach the layer."""
    t, c = tracer, tracer.counts
    m: dict[str, float] = {}

    def span(layer, *fields):
        for f in fields:
            m[f"{layer}.{f}"] = {"calls": t.calls, "busy_s": t.busy,
                                 "self_s": t.self_time}[f](layer)

    span("phases.MeanAccumulator.add", "calls", "busy_s")
    m["phases.MeanAccumulator.add.elems"] = c["phases.MeanAccumulator.add.elems"]
    m["phases.MeanAccumulator.add.elems_per_s"] = _rate(
        c["phases.MeanAccumulator.add.elems"], t.busy("phases.MeanAccumulator.add"))
    span("phases.exact_reductions", "calls", "busy_s")
    span("observables.evaluate", "calls", "busy_s")
    m["observables.evaluate.pt_terms"] = c["observables.evaluate.pt_terms"]
    m["observables.evaluate.pt_terms_per_s"] = _rate(
        c["observables.evaluate.pt_terms"], t.busy("observables.evaluate"))
    m["observables.evaluate.pts_per_call"] = _rate(
        c["observables.evaluate.pts"], t.calls("observables.evaluate"))
    span("observables.multiply", "calls", "busy_s")
    span("observables.compose_with_power", "calls", "busy_s")
    for kind, _ in SYSTEM_KINDS:
        layer = f"systems.orbit_points.{kind}"
        span(layer, "calls", "busy_s")
        m[layer + ".pts"] = c[layer + ".pts"]
        m[layer + ".pts_per_s"] = _rate(c[layer + ".pts"], t.busy(layer))
    span("systems.step", "calls", "busy_s")
    layer = "averaging.geometric_mean_streamed"
    span(layer, "calls", "busy_s")
    m[layer + ".pts"] = c[layer + ".pts"]
    m[layer + ".pts_per_s"] = _rate(c[layer + ".pts"], t.busy(layer))
    span("averaging", "busy_s", "self_s")
    span("exact.closed", "busy_s")
    m["exact.term_tuples.tuples"] = c["exact.term_tuples.tuples"]
    span("exact.geometric_mean_closed", "calls")
    span("joinings.empirical_self_joining", "busy_s")
    span("joinings.fiber_measure", "busy_s")
    m["joinings.cloud_tuples"] = c["joinings.cloud_tuples"]
    m["joinings.tuples_built_per_s"] = _rate(
        c["joinings.cloud_tuples"], t.busy("joinings.empirical_self_joining")
        + t.busy("joinings.fiber_measure"))
    layer = "joinings.integrate_tensor"
    span(layer, "calls", "busy_s", "self_s")
    m[layer + ".tuples"] = c[layer + ".tuples"]
    m[layer + ".tuples_per_s"] = _rate(c[layer + ".tuples"], t.busy(layer))
    span("seminorms.hk_seminorm", "calls", "busy_s")
    m["seminorms.hk_seminorm.fallbacks"] = c["seminorms.hk_seminorm.fallbacks"]
    span("seminorms.van_der_corput_check", "busy_s")
    span("suites.vdc_family", "busy_s")
    span("config.parse_config", "busy_s")
    span("runner.run_experiment", "busy_s", "self_s")
    m["runner.artifact_bytes"] = c["runner.artifact_bytes"]
    span("cli.main", "busy_s")
    for cap, (modname, attr) in CAPS.items():
        limit = getattr(sys.modules["ergolab." + modname], attr)
        m[f"caps.{cap}.used_frac"] = t.used[cap] / limit
    return m
