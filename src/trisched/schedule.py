"""Mappings, schedule evaluation, critical paths, super-weights, slack reclamation.

A schedule is a value object: a mapping (ordered task list per processor)
plus one execution plan per task. Evaluation derives start/finish times
under worst-case accounting (both executions of a re-executed task always
counted), total energy, per-task reliability slack and a feasibility verdict.

The augmented DAG (precedence edges plus processor-order edges) and its
topological order are derived once per (graph, mapping) and shared by every
evaluation, critical-path search and slack reclaim on that pair; callers
must not mutate it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .graph import TaskGraph, bottom_levels
from .model import (
    SLACK_TOL,
    ExecutionPlan,
    PlatformModel,
    _speed_fault,
    energy,
    exe_time,
    reliability,
    reliability_threshold,
)


@dataclass(frozen=True)
class Mapping:
    """Ordered task list per processor; together a partition of the tasks."""

    proc_lists: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for lst in self.proc_lists:
            for tid in lst:
                if tid in seen:
                    raise ValueError(f"task {tid} mapped more than once")
                seen.add(tid)

    @property
    def proc_count(self) -> int:
        return len(self.proc_lists)

    def processor_of(self) -> dict[int, int]:
        return {tid: p for p, lst in enumerate(self.proc_lists) for tid in lst}

    def all_tasks(self) -> set[int]:
        return {tid for lst in self.proc_lists for tid in lst}


@dataclass(frozen=True)
class Schedule:
    mapping: Mapping
    plans: dict[int, ExecutionPlan]

    def with_plan(self, tid: int, plan: ExecutionPlan) -> "Schedule":
        plans = dict(self.plans)
        plans[tid] = plan
        return Schedule(self.mapping, plans)

    def with_plans(self, updates: dict[int, ExecutionPlan]) -> "Schedule":
        plans = dict(self.plans)
        plans.update(updates)
        return Schedule(self.mapping, plans)


@dataclass(frozen=True)
class ScheduleMetrics:
    makespan: float
    energy: float
    start_times: dict[int, float]
    finish_times: dict[int, float]
    reliability_slack: dict[int, float]
    feasible: bool
    deadline: float


def list_schedule(g: TaskGraph, p: int) -> Mapping:
    """Critical-path list scheduling at unit speed f_max.

    Repeatedly dispatches the ready task with the largest bottom-level
    (ties: smaller id) to the earliest-available processor (ties: smaller
    processor id).
    """
    if p < 1:
        raise ValueError("need at least one processor")
    bl = bottom_levels(g)
    n = len(g)
    indeg = {t.id: len(g.predecessors(t.id)) for t in g.tasks}
    pred_finish = {t.id: 0.0 for t in g.tasks}
    ready = [tid for tid, d in indeg.items() if d == 0]
    avail = [0.0] * p
    lists: list[list[int]] = [[] for _ in range(p)]
    finish: dict[int, float] = {}
    for _ in range(n):
        tid = max(ready, key=lambda t: (bl[t], -t))
        ready.remove(tid)
        proc = min(range(p), key=lambda q: (avail[q], q))
        start = max(avail[proc], pred_finish[tid])
        finish[tid] = start + g.weight(tid)  # unit speed: duration = weight
        avail[proc] = finish[tid]
        lists[proc].append(tid)
        for s in g.successors(tid):
            indeg[s] -= 1
            pred_finish[s] = max(pred_finish[s], finish[tid])
            if indeg[s] == 0:
                ready.append(s)
    return Mapping(tuple(tuple(lst) for lst in lists))


def uniform_schedule(g: TaskGraph, mapping: Mapping, speed: float) -> Schedule:
    return Schedule(mapping, {t.id: ExecutionPlan(speed) for t in g.tasks})


@functools.lru_cache(maxsize=4)
def _augmented_dag(g: TaskGraph, mapping: Mapping):
    """Successors, predecessors and topological order of the augmented DAG.

    The augmented DAG holds the precedence edges plus the processor-order
    edges (consecutive tasks of one list). A solve keeps one mapping, so the
    result is memoised on (g, mapping); callers share it and must not mutate it.
    """
    succs = {t.id: set(g.successors(t.id)) for t in g.tasks}
    preds = {t.id: set(g.predecessors(t.id)) for t in g.tasks}
    for lst in mapping.proc_lists:
        for a, b in zip(lst, lst[1:]):
            succs[a].add(b)
            preds[b].add(a)
    indeg = {tid: len(ps) for tid, ps in preds.items()}
    stack = sorted((tid for tid, d in indeg.items() if d == 0), reverse=True)
    order = []
    while stack:
        u = stack.pop()
        order.append(u)
        for v in sorted(succs[u], reverse=True):
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    if len(order) != len(indeg):
        raise ValueError("mapping order conflicts with task precedence (cycle)")
    return (
        {tid: tuple(vs) for tid, vs in succs.items()},
        {tid: tuple(ps) for tid, ps in preds.items()},
        tuple(order),
    )


def _start_times(preds, order, dur):
    """Forward pass: earliest start and finish of every task under durations dur."""
    start: dict[int, float] = {}
    finish: dict[int, float] = {}
    for tid in order:
        s = max((finish[p] for p in preds[tid]), default=0.0)
        start[tid] = s
        finish[tid] = s + dur[tid]
    return start, finish


@functools.lru_cache(maxsize=4)
def _thresholds(g: TaskGraph, platform: PlatformModel) -> dict[int, float]:
    """Reliability threshold of every task, memoised on (g, platform); do not mutate."""
    return {t.id: reliability_threshold(t.weight, platform) for t in g.tasks}


def task_feasible(w: float, plan: ExecutionPlan, threshold: float, platform: PlatformModel) -> bool:
    """The task's constraints other than time: the speed rules and its reliability threshold.

    The same float operations as ``evaluate``, so the verdicts agree.
    """
    return not _speed_fault(plan, platform) and reliability(w, plan, platform) - threshold >= -SLACK_TOL


def schedule_energy(g: TaskGraph, schedule: Schedule) -> float:
    """Total energy, summed in augmented topological order (the order evaluate uses)."""
    _, _, order = _augmented_dag(g, schedule.mapping)
    plans = schedule.plans
    total = 0.0
    for tid in order:
        total += energy(g.weight(tid), plans[tid])
    return total


def evaluate(g: TaskGraph, schedule: Schedule, D: float, platform: PlatformModel) -> ScheduleMetrics:
    """Forward pass over precedence plus processor-order constraints."""
    _, preds, order = _augmented_dag(g, schedule.mapping)
    plans = schedule.plans
    dur = {tid: exe_time(g.weight(tid), plans[tid]) for tid in order}
    start, finish = _start_times(preds, order, dur)
    makespan = max(finish.values(), default=0.0)
    threshold = _thresholds(g, platform)
    slack = {t.id: reliability(t.weight, plans[t.id], platform) - threshold[t.id] for t in g.tasks}
    feasible = (
        makespan <= D + SLACK_TOL
        and all(v >= -SLACK_TOL for v in slack.values())
        and not any(_speed_fault(plans[tid], platform) for tid in order)
    )
    return ScheduleMetrics(makespan, schedule_energy(g, schedule), start, finish, slack, feasible, D)


def time_windows(
    g: TaskGraph, schedule: Schedule, D: float, platform: PlatformModel, check: bool = True
) -> tuple[dict[int, float], dict[int, float]] | None:
    """Earliest starts and latest finishes ``(est, lft)`` of every task, or None.

    ``est`` is the forward pass; ``lft`` the backward pass from D, taking
    ``lft[u] = min(lft[s] - dur[s])`` over the augmented successors s of u
    (D for a task without successors). With ``check``, the schedule must
    also be feasible, decided from the same forward pass with the same float
    operations as ``evaluate`` (makespan, every task's reliability threshold,
    the speed rules), so the two verdicts agree; None when it is not. Pass
    ``check=False`` only for a schedule already known to be feasible.
    """
    succs, preds, order = _augmented_dag(g, schedule.mapping)
    plans = schedule.plans
    weights = {t.id: t.weight for t in g.tasks}
    dur = {tid: exe_time(weights[tid], plans[tid]) for tid in order}
    est, finish = _start_times(preds, order, dur)
    if check:
        if not max(finish.values(), default=0.0) <= D + SLACK_TOL:
            return None
        threshold = _thresholds(g, platform)
        if not all(task_feasible(weights[tid], plans[tid], threshold[tid], platform) for tid in order):
            return None
    lft: dict[int, float] = {}
    for tid in reversed(order):
        lft[tid] = min((lft[s] - dur[s] for s in succs[tid]), default=D)
    return est, lft


def critical_path_tasks(g: TaskGraph, schedule: Schedule, metrics: ScheduleMetrics) -> list[int]:
    """Tasks on some longest path of the augmented DAG under current durations."""
    succs, _, order = _augmented_dag(g, schedule.mapping)
    dur = {t.id: exe_time(t.weight, schedule.plans[t.id]) for t in g.tasks}
    bot: dict[int, float] = {}
    for tid in reversed(order):
        bot[tid] = dur[tid] + max((bot[s] for s in succs[tid]), default=0.0)
    return [tid for tid in order if metrics.start_times[tid] + bot[tid] >= metrics.makespan - SLACK_TOL]


def super_weight(g: TaskGraph, metrics: ScheduleMetrics, tid: int) -> float:
    """Sum of weights of tasks whose execution interval nests inside tid's.

    This measures the work that can be slowed down together with the task —
    i.e. the slack reclaimable around it.
    """
    s, f = metrics.start_times[tid], metrics.finish_times[tid]
    total = 0.0
    for t in g.tasks:
        if metrics.start_times[t.id] >= s - SLACK_TOL and metrics.finish_times[t.id] <= f + SLACK_TOL:
            total += t.weight
    return total


def sus_sort(g: TaskGraph, metrics: ScheduleMetrics, task_ids) -> list[int]:
    """Sort by decreasing super-weight; ties by decreasing weight, then id."""
    sw = {tid: super_weight(g, metrics, tid) for tid in task_ids}
    return sorted(task_ids, key=lambda tid: (-sw[tid], -g.weight(tid), tid))


def cohort_of(g: TaskGraph, metrics: ScheduleMetrics, tid: int) -> list[int]:
    """Tasks counted in tid's super-weight, excluding tid itself."""
    s, f = metrics.start_times[tid], metrics.finish_times[tid]
    return [
        t.id
        for t in g.tasks
        if t.id != tid
        and metrics.start_times[t.id] >= s - SLACK_TOL
        and metrics.finish_times[t.id] <= f + SLACK_TOL
    ]


def slack_reclaim(
    g: TaskGraph,
    schedule: Schedule,
    D: float,
    platform: PlatformModel,
    targets,
    lower_bounds: dict[int, float],
) -> Schedule:
    """Slow the target tasks toward their lower bounds without losing feasibility.

    One sweep in reverse topological order of the augmented DAG: each target
    may expand into the window between its earliest start (forward pass) and
    its latest allowed finish (backward pass from D), down to its lower bound
    (f_rel when it has none). Speeds never increase, so energy never
    increases. A re-executed target must run both copies at one speed
    (within SLACK_TOL); ValueError otherwise.

    The sweep does one forward pass, at its start, and builds the backward
    pass as it goes: a task's latest finish is taken from its successors just
    before the task is examined. The windows are exactly those of a full
    recomputation after every accepted change. Slowing task i moves only the
    earliest starts of its descendants, which come after i in the order and
    so were examined earlier in the sweep, and the latest finishes of its
    ancestors, which the sweep reaches later and derives from the current
    durations, with the same float operations in the same order.

    One sweep is also exact: a second one could change nothing. A slowed
    target runs below both of its former copy speeds, so durations only
    grow; with rounding monotone, every earliest start can then only grow,
    while every latest finish is rebuilt from the same descendant durations
    and comes out the same. Every window can only shrink, so no target could
    slow further.
    """
    targets = set(targets)
    succs, preds, order = _augmented_dag(g, schedule.mapping)
    plans = dict(schedule.plans)
    for tid in targets:
        plan = plans[tid]
        if plan.re_executed and abs(plan.speed1 - plan.speed2) > SLACK_TOL:
            raise ValueError(f"task {tid}: re-executed copies at different speeds {plan}")
    weights = {t.id: t.weight for t in g.tasks}
    dur = {tid: exe_time(weights[tid], plans[tid]) for tid in order}
    est, _ = _start_times(preds, order, dur)
    lft: dict[int, float] = {}
    for tid in reversed(order):
        lft[tid] = min((lft[s] - dur[s] for s in succs[tid]), default=D)
        if tid not in targets:
            continue
        window = lft[tid] - est[tid]
        if window <= 0.0:
            continue
        plan = plans[tid]
        w = weights[tid]
        if plan.re_executed:
            needed = 2.0 * w / window
        else:
            needed = w / window
        new_speed = max(lower_bounds.get(tid, platform.f_rel), needed)
        if new_speed < plan.speed1 - SLACK_TOL:
            plans[tid] = ExecutionPlan(new_speed, new_speed) if plan.re_executed else ExecutionPlan(new_speed)
            dur[tid] = exe_time(w, plans[tid])
    return Schedule(schedule.mapping, plans)


def format_schedule(g: TaskGraph, schedule: Schedule) -> str:
    """Per task one line: id proc order speed1 [speed2]."""
    lines = []
    for proc, lst in enumerate(schedule.mapping.proc_lists):
        for k, tid in enumerate(lst):
            plan = schedule.plans[tid]
            parts = [str(tid), str(proc), str(k), repr(plan.speed1)]
            if plan.speed2 is not None:
                parts.append(repr(plan.speed2))
            lines.append(" ".join(parts))
    lines.sort(key=lambda ln: int(ln.split()[0]))
    return "\n".join(lines) + "\n"
