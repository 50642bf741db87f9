"""Spans around the program's layers, for the traced run only.

Entering a ``Tracer`` replaces each function of TRACED with a wrapper on every
trisched module that holds it (``heuristics`` imports ``evaluate`` from
``schedule``, ``fork`` imports ``single_task_optimal`` from ``model``, and so
on), so calls through those imports are counted too.  A span is
(name, start, end, parent); spans stay in memory and are written out when the
run ends.  ``heuristics.run`` spans are named by heuristic kind, so the seven
kinds BEST runs show separately.
"""

from __future__ import annotations

import bisect
import gzip
import json
import sys
import time

TRACED = (
    ("graph", "generate_random"),
    ("schedule", "list_schedule"),
    ("schedule", "evaluate"),
    ("schedule", "slack_reclaim"),
    ("schedule", "critical_path_tasks"),
    ("schedule", "sus_sort"),
    ("schedule", "cohort_of"),
    ("heuristics", "feasibility_probe"),
    ("heuristics", "run"),
    ("heuristics", "min_deadline"),
    ("model", "f_inf"),
    ("model", "single_task_optimal"),
    ("fork", "fork_optimal"),
    ("harness", "chain_oracle"),
    ("vdd", "vdd_schedule_convert"),
)
KINDS = ("hfmax", "hno-reex", "a.greedy", "a.sus-crit", "b.greedy", "b.sus-crit", "b.sus-crit-slow")
# Layers reported per op; graph.generate_random and schedule.list_schedule
# run in set-up and are reported per set-up; heuristics.run is reported per
# heuristic kind.
SETUP_LAYERS = ("graph.generate_random", "schedule.list_schedule")
OP_LAYERS = [
    f"{mod}.{fn}" for mod, fn in TRACED if f"{mod}.{fn}" not in (*SETUP_LAYERS, "heuristics.run")
]

# Span fields.
NAME, START, END, PARENT, ACCEPTED = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        per_kind = name == "heuristics.run"
        probe = name == "heuristics.feasibility_probe"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [f"{name}.{args[0].value}" if per_kind else name, 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if probe:
                span[ACCEPTED] = result[0]
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n == "trisched" or n.startswith("trisched.")]
        for mod, fn in TRACED:
            orig = getattr(sys.modules[f"trisched.{mod}"], fn)
            wrapper = self._wrap(f"{mod}.{fn}", orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def normalised_times(self, clock, intervals) -> tuple[list[float], list[float]]:
        """Normalised (self, inclusive) time of every span.

        Each span is normalised with the reference samples of the interval
        (an op or a set-up) that holds it; self time is the span's work time
        minus that of its direct children.
        """
        starts = [a for a, _ in intervals]
        scales = [clock.scale(a, b) for a, b in intervals]
        work = [clock.work_time(s[START], s[END]) for s in self.spans]
        own = list(work)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                own[s[PARENT]] -= work[i]
        scale = [scales[bisect.bisect_right(starts, s[START]) - 1] for s in self.spans]
        return [o * k for o, k in zip(own, scale)], [w * k for w, k in zip(work, scale)]

    def write(self, path, self_s, t_origin: float) -> None:
        """Gzipped JSON lines: [name, start, end, parent, self_s], times from t_origin."""
        with gzip.open(path, "wt") as fh:
            for s, own in zip(self.spans, self_s):
                fh.write(json.dumps([s[NAME], s[START] - t_origin, s[END] - t_origin, s[PARENT], own]))
                fh.write("\n")


def layer_metrics(tracer: Tracer, self_s, incl_s, n_ops: int, setup_span_count: int) -> dict:
    """Per-layer metrics: per op for the op layers, per set-up for SETUP_LAYERS.

    The first ``setup_span_count`` spans belong to one traced set-up.
    """
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    kind_s = {k: 0.0 for k in KINDS}
    accepts = 0
    setup_own = {name: 0.0 for name in SETUP_LAYERS}
    for i, s in enumerate(tracer.spans):
        name = s[NAME]
        if i < setup_span_count:
            if name in setup_own:
                setup_own[name] += self_s[i]
            continue
        if name.startswith("heuristics.run."):
            kind = name[len("heuristics.run."):]
            if kind in kind_s:
                kind_s[kind] += incl_s[i]
            name = "heuristics.run"
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_s[i]
        if s[ACCEPTED]:
            accepts += 1

    metrics = {}
    for layer in OP_LAYERS:
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) / n_ops, "calls/op")
        metrics[f"{layer}.self_s"] = (own.get(layer, 0.0) / n_ops, "s/op")
    probes = calls.get("heuristics.feasibility_probe", 0)
    metrics["heuristics.feasibility_probe.accepts"] = (accepts / n_ops, "calls/op")
    metrics["heuristics.feasibility_probe.accept_ratio"] = (accepts / probes if probes else 0.0, "ratio")
    for kind, total in kind_s.items():
        metrics[f"heuristics.run.{kind}.s"] = (total / n_ops, "s/op")
    for name, total in setup_own.items():
        metrics[f"{name}.self_s"] = (total, "s")
    return metrics
