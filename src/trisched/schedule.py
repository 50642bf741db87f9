"""Mappings, schedule evaluation, critical paths, super-weight order, slack reclamation.

A schedule is a value object: a mapping (ordered task list per processor)
plus one execution plan per task. Evaluation derives start/finish times
under worst-case accounting (both executions of a re-executed task always
counted), total energy, per-task reliability slack and a feasibility verdict.

The augmented DAG (precedence edges plus processor-order edges) has one
form, ``_indexed``, built once per (graph, mapping) and kept on the graph:
its topological order, each task's position in it, by position the edges
that no other path implies, and whether those edges are the chain 0 -> 1
-> ... -> n - 1 (at one processor, the processor's list). Every pass over
these edges gives the full augmented DAG's times bit for bit. Evaluation,
the time windows (``_window_state``, moved in place by ``_retime``), the
reclaims, and the ReExec walks' critical paths (``critical_path_tasks``, by
``_backward`` from the makespan), super-weight order (``sus_sort``) and
cohorts (``cohort_of``), which read a walk's window state, all run on lists
indexed by position; only ``ScheduleMetrics`` keys its times by task id.
Incremental passes visit the positions they mark (a ``bytearray``, searched
with ``find`` and ``rfind``) in position order, which is topological.

On a chain, the passes (``_forward``, ``_backward``, ``_retime``) and the
trials of ``swap_reclaims`` read one neighbour per position, without a
queue or a list copy: the passes are running sums and differences
(``itertools.accumulate``), which add and subtract the same floats in the
same order as the general loops, so every output is the same, bit for bit;
a trial's sweep carries in locals the one latest finish and duration that
a position reads. The reclaim's sweep (``_reclaim_sweep``) decides as it
builds the backward pass, so it keeps its own loop. Starts and finishes do not
decrease with position, so ``sus_sort`` and ``cohort_of`` find the tasks
nested in an interval as a range of positions, by bisection
(``_nested_on_chain``).

Elsewhere the general loops (``_forward``, ``_backward``, ``_push_starts``,
``_retime``, ``_reclaim_sweep`` and ``swap_reclaims``' backward
sweep) take the max of the predecessors' finishes, or the min of ``lft[s] -
dur[s]`` over the successors, by an inline scan: start from the first term,
then take each term x that is greater (``x > m``), or smaller (``x < m``).
So do the two-term maxima of ``_slowed`` and of ``swap_reclaims``' trials.
The builtins ``max`` and ``min`` compare the same terms in the same order
with the same operator and keep the first of equal terms, so the scan
returns the same float, bit for bit (no time here is NaN); it only skips
building a list and calling a builtin once per position.

Type B's tail keeps its schedule as one position-indexed state
(``_swap_state``: speeds, re-execution flags, durations, energies and their
running sum), built once from plans. The reclaim's sweep (``_reclaim_sweep``,
which ``slack_reclaim`` wraps) moves it in place, ``swap_reclaims`` scores
an unjam round's trials from it and ``_keep_swap`` moves it to the kept
swap, so the tail builds plans only at its exit.
"""

from __future__ import annotations

import bisect
import collections
import heapq
import itertools
import operator
from dataclasses import dataclass, field

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
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for lst in self.proc_lists:
            for tid in lst:
                if tid in seen:
                    raise ValueError(f"task {tid} mapped more than once")
                seen.add(tid)
        object.__setattr__(self, "_hash", hash((self.proc_lists,)))

    def __hash__(self) -> int:
        # The value the dataclass would compute, but once: every ``_indexed``
        # lookup in the graph's memo hashes the mapping.
        return self._hash


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
    processor id). Both choices are heap pops: the ready tasks keyed
    ``(-bottom level, id)``, the processors ``(available time, id)``; only
    the popped processor's time moves, so it alone is pushed back.
    """
    if p < 1:
        raise ValueError("need at least one processor")
    bl = bottom_levels(g)
    indeg = {t.id: len(g._preds[t.id]) for t in g.tasks}
    pred_finish = dict.fromkeys(indeg, 0.0)
    ready = [(-bl[tid], tid) for tid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    procs = [(0.0, q) for q in range(p)]  # sorted, so already a heap
    lists: list[list[int]] = [[] for _ in range(p)]
    while ready:
        _, tid = heapq.heappop(ready)
        avail, proc = procs[0]
        f = max(avail, pred_finish[tid]) + g.weight(tid)  # unit speed: duration = weight
        heapq.heapreplace(procs, (f, proc))
        lists[proc].append(tid)
        for s in g._succs[tid]:
            indeg[s] -= 1
            pred_finish[s] = max(pred_finish[s], f)
            if indeg[s] == 0:
                heapq.heappush(ready, (-bl[s], s))
    return Mapping(tuple(tuple(lst) for lst in lists))


def uniform_schedule(g: TaskGraph, mapping: Mapping, speed: float) -> Schedule:
    # Plans are immutable, so every task can share one.
    return Schedule(mapping, dict.fromkeys((t.id for t in g.tasks), ExecutionPlan(speed)))


def _indexed(g: TaskGraph, mapping: Mapping):
    """The augmented DAG, numbered by topological position: ``(order, pos, succ, pred, chain, weights)``.

    The augmented DAG holds the precedence edges plus the processor-order
    edges (consecutive tasks of one list). ``order`` is its topological order
    (Kahn's algorithm on a stack: the sources, then each popped task's newly
    ready successors, the smallest id on top) and ``pos`` maps a task id to
    its position in it. ``succ[i]``/``pred[i]`` are the positions of the
    successors and predecessors of position i in the transitive reduction,
    in increasing order: each position's successors are scanned in
    increasing order, and one is kept unless a kept one already reaches it
    (reachability as int bitsets, built in reverse order). ``chain`` is
    whether that reduction is the path ``0 -> 1 -> ... -> n - 1`` (n >= 1),
    as it is at one processor, and for a chain graph on any number.
    ``weights[i]`` is the weight of the task at position i, so the passes
    read weights by position, as they read times. Built once per (g,
    mapping) and kept in ``g._memo``, keyed by the mapping (which hashes
    once), for as long as the graph lives (a solve keeps one mapping); do
    not mutate.
    ValueError unless the mapping is a partition of g's tasks whose order
    agrees with precedence.

    Every pass over the reduction gives that of the full augmented DAG, bit
    for bit. Let an edge u -> v be implied by a path u -> w -> ... -> v of
    kept edges. Durations are non-negative and float addition and
    subtraction round monotonically, so finish[u] <= est[w] <= finish[w] <=
    ... <= est[v] forward, lft[w] - dur[w] <= lft[w] <= ... <= lft[v] -
    dur[v] backward, and bot[w] >= ... >= bot[v] for bottom levels. The
    dropped edge's term is never above a ``max`` nor below a ``min`` over
    the kept edges, and both return one of their inputs, so every time comes
    out the same float.

    On a chain every position but the first has one predecessor, the one
    below it, and every position but the last one successor, the one above
    it. A pass then reads one term per position: the finishes are the
    running sum of the durations from 0.0, and the latest finishes the
    running difference from D down. The chain kernels compute these with
    ``itertools.accumulate``, which adds or subtracts the same floats in the
    same order as the general loops, so their bits are the same.
    """
    indexed = g._memo.get(mapping)
    if indexed is None:
        indexed = g._memo[mapping] = _build_indexed(g, mapping)
    return indexed


def _build_indexed(g: TaskGraph, mapping: Mapping):
    """``_indexed(g, mapping)``, built afresh."""
    mapped = {tid for lst in mapping.proc_lists for tid in lst}
    ids = {t.id for t in g.tasks}
    if mapped != ids:
        raise ValueError(
            f"mapping is not a partition of the graph's tasks: unmapped {sorted(ids - mapped)}, "
            f"unknown {sorted(mapped - ids)}"
        )
    succs = {t.id: set(g.successors(t.id)) for t in g.tasks}
    for lst in mapping.proc_lists:
        for a, b in zip(lst, lst[1:]):
            succs[a].add(b)
    indeg = collections.Counter(v for vs in succs.values() for v in vs)
    stack = sorted((tid for tid in succs if not indeg[tid]), reverse=True)
    order = []
    while stack:
        u = stack.pop()
        order.append(u)
        for v in sorted(succs[u], reverse=True):
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    if len(order) != len(succs):
        raise ValueError("mapping order conflicts with task precedence (cycle)")
    n = len(order)
    pos = {tid: i for i, tid in enumerate(order)}
    succ = [()] * n
    pred = [[] for _ in range(n)]
    reach = [0] * n  # bit j of reach[i]: position j is i or a descendant of i
    for i in reversed(range(n)):
        kept = []
        below = 0
        for s in sorted(pos[tid] for tid in succs[order[i]]):
            if not below >> s & 1:
                kept.append(s)
                below |= reach[s]
        reach[i] = below | 1 << i
        succ[i] = tuple(kept)
    for i, ss in enumerate(succ):
        for s in ss:
            pred[s].append(i)
    # Every position below the last has the one successor above it; the
    # last has none, as successors sit higher.
    chain = n > 0 and all(ss == (i + 1,) for i, ss in enumerate(succ[:-1]))
    weights = tuple(g._by_id[tid].weight for tid in order)
    return tuple(order), pos, tuple(succ), tuple(map(tuple, pred)), chain, weights


def _forward(pred, dur, chain):
    """Forward pass over ``_indexed``'s edges: earliest starts and finishes, as lists by position.

    Equal to the pass over the full augmented DAG, bit for bit (see
    ``_indexed``). A lone predecessor is read directly; on a chain the
    finishes are the running sum of the durations from 0.0.
    """
    if chain:
        acc = list(itertools.accumulate(dur, initial=0.0))
        return acc[:-1], acc[1:]
    est = [0.0] * len(dur)
    finish = est[:]
    for i, ps in enumerate(pred):
        if len(ps) == 1:
            s = finish[ps[0]]
        elif ps:
            s = finish[ps[0]]
            for p in ps:
                x = finish[p]
                if x > s:
                    s = x
        else:
            s = 0.0
        est[i] = s
        finish[i] = s + dur[i]
    return est, finish


def _backward(succ, dur, D, chain):
    """Backward pass from D over ``_indexed``'s edges: latest finishes, as a list by position.

    ``lft[u] = min(lft[s] - dur[s])`` over the successors s of u, D for a
    position without successors; equal to the pass over the full augmented
    DAG, bit for bit (see ``_indexed``). A lone successor is read directly;
    on a chain the latest finishes are the running difference from D of the
    durations above, from the top down.
    """
    if chain:
        lft = list(itertools.accumulate(reversed(dur[1:]), operator.sub, initial=D))
        lft.reverse()
        return lft
    lft = [D] * len(dur)
    for i in reversed(range(len(dur))):
        ss = succ[i]
        if len(ss) == 1:
            s = ss[0]
            lft[i] = lft[s] - dur[s]
        elif ss:
            s = ss[0]
            m = lft[s] - dur[s]
            for s in ss:
                x = lft[s] - dur[s]
                if x < m:
                    m = x
            lft[i] = m
    return lft


def _thresholds(g: TaskGraph, platform: PlatformModel) -> dict[int, float]:
    """Reliability threshold of every task, kept in ``g._memo`` keyed by the platform; do not mutate."""
    threshold = g._memo.get(platform)
    if threshold is None:
        threshold = g._memo[platform] = {t.id: reliability_threshold(t.weight, platform) for t in g.tasks}
    return threshold


def task_feasible(w: float, plan: ExecutionPlan, threshold: float, platform: PlatformModel) -> bool:
    """The task's constraints other than time: the speed rules and its reliability threshold.

    The same float operations as ``evaluate``, so the verdicts agree.
    """
    return not _speed_fault(plan, platform) and reliability(w, plan, platform) - threshold >= -SLACK_TOL


def _plans_at(schedule: Schedule, tids) -> list[ExecutionPlan]:
    """The plans of ``tids``, in their order; ValueError naming the first task without one."""
    try:
        return [schedule.plans[tid] for tid in tids]
    except KeyError as exc:
        raise ValueError(f"no execution plan for task {exc.args[0]}") from None


def schedule_energy(g: TaskGraph, schedule: Schedule) -> float:
    """Total energy, summed in augmented topological order (the order evaluate uses)."""
    order, _, _, _, _, weights = _indexed(g, schedule.mapping)
    plans = schedule.plans
    total = 0.0
    for tid, w in zip(order, weights):
        total += energy(w, plans[tid])
    return total


def _timeline(pred, chain, weights, plans):
    """``evaluate``'s times for plans by position: ``(est, finish, makespan)``, from ``_forward``."""
    est, finish = _forward(pred, list(map(exe_time, weights, plans)), chain)
    return est, finish, max(finish, default=0.0)


def uniform_makespan(g: TaskGraph, mapping: Mapping, speed: float) -> float:
    """``evaluate``'s makespan of ``uniform_schedule(g, mapping, speed)``, bit for bit, without its other metrics."""
    _, _, _, pred, chain, weights = _indexed(g, mapping)
    return _timeline(pred, chain, weights, [ExecutionPlan(speed)] * len(weights))[2]


def evaluate(g: TaskGraph, schedule: Schedule, D: float, platform: PlatformModel) -> ScheduleMetrics:
    """Forward pass (``_forward``) over precedence plus processor-order constraints."""
    order, _, _, pred, chain, weights = _indexed(g, schedule.mapping)
    plans = _plans_at(schedule, order)
    est, finish, makespan = _timeline(pred, chain, weights, plans)
    threshold = _thresholds(g, platform)
    slack = {t.id: reliability(t.weight, schedule.plans[t.id], platform) - threshold[t.id] for t in g.tasks}
    feasible = (
        makespan <= D + SLACK_TOL
        and all(v >= -SLACK_TOL for v in slack.values())
        and not any(_speed_fault(plan, platform) for plan in plans)
    )
    return ScheduleMetrics(
        makespan, schedule_energy(g, schedule), dict(zip(order, est)), dict(zip(order, finish)), slack, feasible, D
    )


def _window_state(g: TaskGraph, schedule: Schedule, D: float, platform: PlatformModel, check: bool = True):
    """``[est, finish, lft, dur]`` of every task, as lists indexed by position, or None.

    Position i is the task ``order[i]`` of ``_indexed(g, schedule.mapping)``.
    Both passes run over ``_indexed``'s transitive reduction, which gives
    the full augmented DAG's windows bit for bit, and read a lone
    predecessor or successor directly. ``est`` and ``finish`` are the
    forward pass (``_forward``), equal to evaluate's start and finish times
    bit for bit; ``lft`` is the backward pass from D (``_backward``), taking
    ``lft[u] = min(lft[s] - dur[s])`` over the successors s of u (D for a
    task without successors). With ``check``, the schedule must also be
    feasible, decided from the same forward pass with the same float
    operations as ``evaluate`` (makespan, every task's reliability
    threshold, the speed rules), so the two verdicts agree; None when it
    is not. Pass ``check=False`` only for a schedule already known to be
    feasible. ``_retime`` updates the state in place.
    """
    order, _, succ, pred, chain, weights = _indexed(g, schedule.mapping)
    plans = [schedule.plans[tid] for tid in order]
    dur = list(map(exe_time, weights, plans))
    est, finish = _forward(pred, dur, chain)
    if check:
        if not max(finish, default=0.0) <= D + SLACK_TOL:
            return None
        threshold = _thresholds(g, platform)
        if not all(task_feasible(w, plan, threshold[tid], platform)
                   for tid, w, plan in zip(order, weights, plans)):
            return None
    return [est, finish, _backward(succ, dur, D, chain), dur]


def _push_starts(succ, pred, est, finish, dur, r: int, d: float, end: int) -> list[int]:
    """Give position r the duration d, and move the earliest starts and finishes that follow, in place.

    Only r's descendants can start elsewhere. They are recomputed with
    ``_forward``'s expressions, in position order (a topological order),
    visiting only the successors of r and of each position whose finish
    moved, and stopping where a start or a finish comes out bit-equal to the
    old one. Descendants from position ``end`` on are left as they are:
    each position reads only lower ones, so the starts below ``end`` come
    out the same whatever ``end`` is, and ``len(est)`` moves them all.
    Returns the positions below ``end`` whose start moved, in increasing
    order.
    """
    dur[r] = d
    f = est[r] + d
    if f == finish[r]:
        return []
    finish[r] = f
    moved = []
    queued = bytearray(len(est))
    for x in succ[r]:
        queued[x] = 1
    v = queued.find(1, r + 1, end)
    while v >= 0:
        ps = pred[v]  # never empty: v succeeds r or a moved position
        s = finish[ps[0]]
        if len(ps) > 1:
            for p in ps:
                x = finish[p]
                if x > s:
                    s = x
        if s != est[v]:
            est[v] = s
            moved.append(v)
            f = s + dur[v]
            if f != finish[v]:
                finish[v] = f
                for x in succ[v]:
                    queued[x] = 1
        v = queued.find(1, v + 1, end)
    return moved


def _retime(g: TaskGraph, mapping: Mapping, state, r: int, d: float) -> None:
    """Give position r the duration d in a ``_window_state`` of (g, mapping, D), in place.

    Afterwards the state equals a fresh ``_window_state`` (without the check)
    of the changed schedule, bit for bit. The earliest starts move as
    ``_push_starts`` moves them; only r's ancestors can have another latest
    finish, so those are recomputed next, with ``_backward``'s expression,
    in reverse topological order, stopping where one comes out bit-equal.

    On a chain (``_indexed``'s flag) r's finish and the starts and finishes
    above it are one running sum of the durations from r's new finish, and
    the latest finishes below r one running difference from r's latest
    finish, each written whole. Past the first start that comes out
    bit-equal to the old one, each start is the same float plus the same
    duration, so writing them all changes nothing there.
    """
    _, _, succ, pred, chain, _ = _indexed(g, mapping)
    est, finish, lft, dur = state
    if chain:
        dur[r] = d
        acc = list(itertools.accumulate(dur[r + 1:], initial=est[r] + d))  # acc[k]: the finish of r + k
        finish[r:] = acc
        acc.pop()
        est[r + 1:] = acc
        lft[r::-1] = itertools.accumulate(dur[r:0:-1], operator.sub, initial=lft[r])
        return
    _push_starts(succ, pred, est, finish, dur, r, d, len(est))
    queued = bytearray(len(lft))
    for p in pred[r]:
        queued[p] = 1
    u = queued.rfind(1, 0, r)
    while u >= 0:
        ss = succ[u]  # never empty: u precedes r or a moved position
        s = ss[0]
        lf = lft[s] - dur[s]
        if len(ss) > 1:
            for s in ss:
                x = lft[s] - dur[s]
                if x < lf:
                    lf = x
        if lf != lft[u]:
            lft[u] = lf
            for p in pred[u]:
                queued[p] = 1
        u = queued.rfind(1, 0, u)


def critical_path_tasks(g: TaskGraph, mapping: Mapping, state) -> list[int]:
    """Tasks on some longest path of the augmented DAG under ``state``'s durations, in topological order.

    ``state`` is a ``_window_state`` of a schedule on (g, mapping), by
    position in ``_indexed``. A task is critical when its latest start
    against the makespan, by ``_backward`` from ``max(finish)``, is at most
    its earliest start plus SLACK_TOL.
    """
    order, _, succ, _, chain, _ = _indexed(g, mapping)
    est, finish, _, dur = state
    lft = _backward(succ, dur, max(finish, default=0.0), chain)
    return [tid for tid, s, lf, d in zip(order, est, lft, dur) if lf - d <= s + SLACK_TOL]


def _ranks(g: TaskGraph, mapping: Mapping) -> tuple[int, ...]:
    """``rank[i]``, the index in ``g.tasks`` of the task at position i of ``_indexed(g, mapping)``.

    Kept in ``g._memo``, keyed by ``("rank", mapping)``, as ``_indexed`` is; do not mutate.
    """
    key = ("rank", mapping)
    rank = g._memo.get(key)
    if rank is None:
        pos = _indexed(g, mapping)[1]
        ranks = [0] * len(pos)
        for k, t in enumerate(g.tasks):
            ranks[pos[t.id]] = k
        rank = g._memo[key] = tuple(ranks)
    return rank


def _nested_on_chain(rank, est, finish, lo: float, hi: float) -> list[int]:
    """The tasks that start at or after lo and finish at or before hi, as increasing indices in ``g.tasks``.

    For a chain (``_indexed``'s flag), its ``_ranks`` and its windows by
    position. Each start is the finish below it and durations are
    non-negative, so neither the starts nor the finishes decrease with
    position: the tasks that start at or after lo are the positions from
    ``bisect_left(est, lo)`` on, those that finish at or before hi the
    positions below ``bisect_right(finish, hi)``, and the tasks inside are
    the range between.
    """
    return sorted(rank[bisect.bisect_left(est, lo):bisect.bisect_right(finish, hi)])


def sus_sort(g: TaskGraph, mapping: Mapping, state, task_ids) -> list[int]:
    """Sort by decreasing super-weight; ties by decreasing weight, then id.

    A task's super-weight is the weight of the tasks running inside its
    interval [s, f] of ``state`` (a ``_window_state`` of a schedule on (g,
    mapping)), itself included: those that start at or after lo = s -
    SLACK_TOL and finish at or before hi = f + SLACK_TOL, added in
    ``g.tasks`` order. It measures the work that can be slowed down with the
    task. No task of a window state finishes before it starts, so the
    candidates are those whose start lies in [lo, hi], found by bisection in
    the tasks sorted by start. On a chain (``_indexed``'s flag) the tasks
    inside are a position range (``_nested_on_chain``).
    """
    _, pos, _, _, chain, weights = _indexed(g, mapping)
    est, finish = state[0], state[1]
    tasks = g.tasks
    if chain:
        rank = _ranks(g, mapping)
    else:
        by_start = sorted((est[pos[t.id]], k) for k, t in enumerate(tasks))
        starts = [s for s, _ in by_start]
    sw = {}
    for tid in task_ids:
        r = pos[tid]
        lo, hi = est[r] - SLACK_TOL, finish[r] + SLACK_TOL
        if chain:
            inside = _nested_on_chain(rank, est, finish, lo, hi)
        else:
            inside = sorted(k for _, k in by_start[bisect.bisect_left(starts, lo):bisect.bisect_right(starts, hi)]
                            if finish[pos[tasks[k].id]] <= hi)
        total = 0.0
        for k in inside:
            total += tasks[k].weight
        sw[tid] = total
    return sorted(task_ids, key=lambda tid: (-sw[tid], -weights[pos[tid]], tid))


def cohort_of(g: TaskGraph, mapping: Mapping, state, tid: int) -> list[int]:
    """Tasks counted in tid's super-weight, excluding tid, in ``g.tasks`` order.

    The times are the starts and finishes of ``state``, a ``_window_state``
    of a schedule on (g, mapping), indexed by position in ``_indexed``.
    On a chain (``_indexed``'s flag) they are a position range
    (``_nested_on_chain``). Elsewhere every task is scanned: the windows
    move between lookups, so an index by start would be rebuilt for every
    lookup.
    """
    _, pos, _, _, chain, _ = _indexed(g, mapping)
    est, finish = state[0], state[1]
    r = pos[tid]
    lo, hi = est[r] - SLACK_TOL, finish[r] + SLACK_TOL
    tasks = g.tasks
    if chain:
        return [tasks[k].id for k in _nested_on_chain(_ranks(g, mapping), est, finish, lo, hi) if tasks[k].id != tid]
    return [t.id for t in tasks if est[i := pos[t.id]] >= lo and finish[i] <= hi and i != r]


def slack_reclaim(
    g: TaskGraph,
    schedule: Schedule,
    D: float,
    platform: PlatformModel,
    targets,
    lower_bounds: dict[int, float],
) -> Schedule:
    """Slow the target tasks toward their lower bounds without losing feasibility.

    The reclaim's sweep (``_reclaim_sweep``), given the targets' speeds and
    re-execution flags as dicts by position: each target may expand into the
    window between its earliest start and its latest allowed finish, down to
    its lower bound (f_rel when it has none). Speeds never increase, so
    energy never increases. ValueError unless each re-executed target runs
    both copies at one speed (``_one_speed``).
    """
    targets = set(targets)
    _one_speed(schedule.plans, targets)
    order, pos, _, _, _, weights = _indexed(g, schedule.mapping)
    rs = {pos[tid] for tid in targets}
    plans = [schedule.plans[tid] for tid in order]
    state = [{r: plans[r].speed1 for r in rs}, {r: plans[r].re_executed for r in rs}, list(map(exe_time, weights, plans))]
    slowed = _reclaim_sweep(g, schedule.mapping, D, platform, state, rs, lower_bounds)
    return schedule.with_plans({
        order[i]: ExecutionPlan(f, f) if plans[i].re_executed else ExecutionPlan(f) for i, f in slowed.items()
    })


def _reclaim_sweep(g: TaskGraph, mapping: Mapping, D: float, platform: PlatformModel, state, rs,
                   floors: dict[int, float]) -> dict[int, float]:
    """The reclaim's sweep over ``state``'s ``[speeds, redone, dur, ...]`` by position, in place.

    Slows each position of ``rs`` into its window, down to its floor (by
    task id in ``floors``, f_rel when it has none), and returns the new
    speeds of the positions it slowed. Only those move: their speed, and
    their duration by ``exe_time``'s expression for one run, or for two at
    that speed when re-executed. ``speeds`` and ``redone`` are read only at
    the positions of ``rs``.

    One sweep in reverse topological order, over ``_indexed``'s positions
    and reduced edges (the augmented DAG's windows, bit for bit). It does one
    forward pass, at its start, and builds the backward pass from D as it
    goes: a position's latest finish is taken from its successors just
    before the position is examined. The windows are exactly those of a
    full recomputation after every accepted change. Slowing position i
    moves only the earliest starts of its descendants, which come after i
    in the order and so were examined earlier in the sweep, and the latest
    finishes of its ancestors, which the sweep reaches later and derives
    from the current durations, with the same float operations in the same
    order.

    One sweep is also exact: a second one could change nothing. A slowed
    target runs below its former speed, so durations only grow; with
    rounding monotone, every earliest start can then only grow, while every
    latest finish is rebuilt from the same descendant durations and comes
    out the same. Every window can only shrink, so no target could slow
    further.
    """
    order, _, succ, pred, chain, weights = _indexed(g, mapping)
    speeds, redone, dur = state[0], state[1], state[2]
    est, _ = _forward(pred, dur, chain)
    f_rel = platform.f_rel
    slowed = {}
    lft = [D] * len(dur)
    for i in reversed(range(len(dur))):
        ss = succ[i]
        if len(ss) == 1:
            s = ss[0]
            lft[i] = lft[s] - dur[s]
        elif ss:
            s = ss[0]
            m = lft[s] - dur[s]
            for s in ss:
                x = lft[s] - dur[s]
                if x < m:
                    m = x
            lft[i] = m
        if i not in rs:
            continue
        w = weights[i]
        f = _slowed(w, speeds[i], redone[i], lft[i] - est[i], floors.get(order[i], f_rel))
        if f is not None:
            slowed[i] = speeds[i] = f
            d = w / f
            if redone[i]:
                d += w / f
            dur[i] = d
    return slowed


def _one_speed(plans: dict[int, ExecutionPlan], tids) -> None:
    """ValueError unless each re-executed task of ``tids`` runs both copies at one speed, within SLACK_TOL."""
    for tid in tids:
        plan = plans[tid]
        if plan.re_executed and abs(plan.speed1 - plan.speed2) > SLACK_TOL:
            raise ValueError(f"task {tid}: re-executed copies at different speeds {plan}")


def _slowed(w: float, speed: float, redone: bool, window: float, floor: float) -> float | None:
    """The reclaim's decision for one target running at ``speed``: its slower speed, or None to keep it.

    The target (its two runs when ``redone``) expands into ``window``
    (latest finish minus earliest start), down to ``floor``, and changes
    only when that is slower by SLACK_TOL.
    """
    if window <= 0.0:
        return None
    if redone:
        needed = 2.0 * w / window
    else:
        needed = w / window
    new_speed = needed if needed > floor else floor  # max(floor, needed)
    return new_speed if new_speed < speed - SLACK_TOL else None


def _swap_state(g: TaskGraph, schedule: Schedule):
    """Type B's tail state of ``schedule``: ``[speeds, redone, dur, energies, prefix]`` by position.

    Position i is the task ``order[i]`` of ``_indexed(g, schedule.mapping)``:
    ``speeds[i]`` is its plan's first speed, ``redone[i]`` whether it is
    re-executed, ``dur[i]`` and ``energies[i]`` its ``exe_time`` and
    ``energy``, and ``prefix`` the running sum of the energies from 0.0
    (``itertools.accumulate``), the additions ``schedule_energy`` makes in
    the same order, so ``prefix[-1]`` is its value, bit for bit. The
    reclaims (``_reclaim_sweep``) and the unjam rounds (``swap_reclaims``
    scores a round, ``_keep_swap`` moves it to the swap kept) run on it.
    """
    order, _, _, _, _, weights = _indexed(g, schedule.mapping)
    plans = [schedule.plans[tid] for tid in order]
    energies = list(map(energy, weights, plans))
    return [
        [plan.speed1 for plan in plans],
        [plan.re_executed for plan in plans],
        list(map(exe_time, weights, plans)),
        energies,
        list(itertools.accumulate(energies, initial=0.0)),
    ]


def _keep_swap(g: TaskGraph, mapping: Mapping, state, changes: dict[int, float]) -> None:
    """Move a ``_swap_state`` in place so that the positions of ``changes`` run once at their new speeds.

    That is a trial of ``swap_reclaims``, or the single runs a
    ``_reclaim_sweep`` slowed. Only those positions move, with the trial's
    own expressions: a single run at f lasts ``w / f`` and burns ``w * f **
    2`` (``exe_time`` and ``energy`` of ``ExecutionPlan(f)``); the running
    sum is rebuilt from the first of them. The state then equals
    ``_swap_state`` of the schedule with those plans, bit for bit.
    """
    if not changes:
        return
    weights = _indexed(g, mapping)[5]
    speeds, redone, dur, energies, prefix = state
    for i, f in changes.items():
        w = weights[i]
        speeds[i] = f
        redone[i] = False
        dur[i] = w / f
        energies[i] = w * f ** 2
    first = min(changes)
    prefix[first:] = itertools.accumulate(energies[first:], initial=prefix[first])


def swap_reclaims(g: TaskGraph, mapping: Mapping, D: float, platform: PlatformModel, state, rs):
    """Score each swap "r runs once at f_rel" of a round, then a reclaim of the single runs.

    ``state`` is the round's ``_swap_state`` on (g, mapping), of a schedule
    ``base``; for each position r of ``rs`` (re-executed in ``base``) yields
    ``(energy, speeds)``: ``speeds`` maps r to f_rel and every single run
    the reclaim slows to its new speed, all by position, all of them single
    runs. ``base.with_plans({order[i]: ExecutionPlan(f) for i, f in
    speeds.items()})`` equals ``slack_reclaim(g, trial, D, platform,
    singles, {})``, where ``trial`` is ``base`` with ``order[r]`` at
    ``ExecutionPlan(f_rel)`` and ``singles`` its single-run tasks, and
    ``energy`` equals ``schedule_energy`` of that schedule, bit for bit. A
    trial builds no plan: a single run at speed f lasts ``w / f`` and burns
    ``w * f ** 2``, ``exe_time``'s and ``energy``'s expressions, and the
    slow-down is ``_slowed``'s, ``max(f_rel, w / window)``, kept when it is
    below the old speed by SLACK_TOL. The caller builds plans for the swap
    it keeps.

    Precondition: ``base`` is a reclaim fixpoint of its single runs, i.e.
    ``slack_reclaim(g, base, D, platform, singles of base, {})`` changes
    nothing, as a schedule that such a reclaim returned is (a second sweep
    changes nothing). Then the reclaim of a trial decides, for every task
    whose earliest start and latest finish are bit-equal to base's, what the
    base sweep decided: no change. So the base's windows (``_forward`` and
    ``_backward`` over the state's durations, ``_window_state``'s passes)
    are built once per round, and each trial recomputes on a copy only what
    the swap moves, with slack_reclaim's float expressions: the earliest
    starts of r's descendants (``_push_starts``); then, in reverse
    topological order from the last moved position, a latest finish wherever
    a successor's latest finish or duration moved, and the slow-down
    decision only where the earliest start or latest finish moved, plus r.
    The energy continues the state's running sum from the first changed
    position, one term at a time in the same order, as ``schedule_energy``
    adds it.

    On a chain (``_indexed``'s flag) a trial copies no list. The starts
    above r, up to hi, are one running sum from r's new finish, and the
    sweep carries the latest finish and the duration of the position above,
    all that a chain position reads. It decides every position from hi down
    to r, though the general loop starts at the last moved start: between
    the two every start is base's (past the first bit-equal start each is
    the same float plus the same duration), and so is every latest finish,
    built from base's durations, so each decision there is base's, no
    change. Below r it goes on while a latest finish moves or a task slows
    down: the positions the general queue would visit, in the same order.

    Each trial is clipped to the slow span: ``low`` and ``hi``, the lowest
    and highest positions of a single run above its floor, the only ones
    the sweep can slow. Past ``hi`` no duration changes but r's, so the
    starts there would only mark positions to decide, none of which can
    slow, and ``_push_starts`` stops after ``hi``; the latest finishes past
    ``hi``, built from the same durations, are base's. Below ``low`` nothing
    is decided, and a latest finish there is read only by lower positions,
    so the sweep stops at ``low``. Without a single run above its floor a
    trial changes r alone.
    """
    _, _, succ, pred, chain, weights = _indexed(g, mapping)
    speeds, redone, dur, energies, prefix = state
    n = len(dur)
    est, finish = _forward(pred, dur, chain)
    lft = _backward(succ, dur, D, chain)
    f_rel = platform.f_rel
    # Whether the sweep could slow the position: a single run above its
    # floor. Otherwise max(f_rel, needed) >= speed1 - SLACK_TOL, and
    # ``_slowed`` returns None. That holds for r's swap too, at f_rel, and
    # slow[r] is False, as r is re-executed in base.
    slow = [not x and f - SLACK_TOL > f_rel for x, f in zip(redone, speeds)]
    # The slow span, low to hi; without a slow position both passes are empty.
    span = [i for i, s in enumerate(slow) if s]
    low, hi = (span[0], span[-1]) if span else (n, -1)
    lim = [f - SLACK_TOL for f in speeds]  # a slow-down must reach below lim[u]
    for r in rs:
        d = weights[r] / f_rel
        changes = {r: f_rel}
        if chain:
            # One sweep from hi down (from r when hi is below it), carrying the
            # latest finish and the duration of the position above; starts[k]
            # is the new earliest start of r + 1 + k. Below r it goes on
            # while a latest finish moves or a task slows down.
            top = hi if hi > r else r
            lf, d_up = (lft[top + 1], dur[top + 1]) if top + 1 < n else (D, 0.0)
            starts = list(itertools.accumulate(dur[r + 1:top], initial=est[r] + d))
            for u in range(top, low - 1, -1):
                lf -= d_up
                if u <= r:
                    if u == r:  # no single run
                        d_up = d
                        continue
                    if lf == lft[u]:
                        break
                d_up = dur[u]
                if slow[u]:
                    window = lf - (starts[u - r - 1] if u > r else est[u])
                    if window > 0.0:
                        f = weights[u] / window
                        if not f > f_rel:  # max(f_rel, f)
                            f = f_rel
                        if f < lim[u]:
                            changes[u] = f
                            d_up = weights[u] / f
        else:
            # Forward: the earliest starts up to hi that the shorter task r moves.
            t_dur, t_est, t_finish, t_lft = dur[:], est[:], finish[:], lft[:]
            decide = _push_starts(succ, pred, t_est, t_finish, t_dur, r, d, hi + 1)
            # Backward: the sweep, from the last moved task down to low.
            # queued[u] is 2 for r and the tasks whose earliest start moved, 1
            # for the others whose latest finish may move.
            queued = bytearray(n)
            queued[r] = 2
            for u in decide:
                queued[u] = 2
            left = 1 + len(decide)
            for u in range(decide[-1] if decide else r, low - 1, -1):
                if not left:
                    break
                q = queued[u]
                if not q:
                    continue
                left -= 1
                ss = succ[u]
                if len(ss) == 1:
                    s = ss[0]
                    lf = t_lft[s] - t_dur[s]
                elif ss:
                    s = ss[0]
                    lf = t_lft[s] - t_dur[s]
                    for s in ss:
                        x = t_lft[s] - t_dur[s]
                        if x < lf:
                            lf = x
                else:
                    lf = D
                moved = lf != lft[u]
                t_lft[u] = lf
                if slow[u] and (moved or q == 2):
                    # ``_slowed`` on a single run; the window is never NaN, as
                    # every earliest start is finite.
                    window = lf - t_est[u]
                    if window > 0.0:
                        f = weights[u] / window
                        if not f > f_rel:  # max(f_rel, f)
                            f = f_rel
                        if f < lim[u]:
                            changes[u] = f
                            t_dur[u] = weights[u] / f
                            moved = True
                if moved or u == r:
                    for p in pred[u]:
                        if not queued[p]:
                            queued[p] = 1
                            left += 1
        first = min(changes)
        terms = energies[first:]
        for i, f in changes.items():
            terms[i - first] = weights[i] * f ** 2
        total = prefix[first]
        for e in terms:
            total += e
        yield total, changes


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
