"""Mappings, schedule evaluation, critical paths, super-weights, slack reclamation.

A schedule is a value object: a mapping (ordered task list per processor)
plus one execution plan per task. Evaluation derives start/finish times
under worst-case accounting (both executions of a re-executed task always
counted), total energy, per-task reliability slack and a feasibility verdict.

The augmented DAG (precedence edges plus processor-order edges) and its
topological order are derived once per (graph, mapping) and shared by every
evaluation and critical-path search on that pair; callers must not mutate
it. So is its transitive reduction, numbered by topological position
(``_indexed``): it keeps only the edges that no other path implies (at one
processor, the chain of the processor's list) and gives the same time
windows bit for bit. The time windows (``_window_state``) that the
feasibility probe, ``_retime``, ``slack_reclaim`` and ``swap_reclaims``
compute are lists indexed by that position, and each pass over them reads a
lone predecessor or successor directly. Incremental passes visit the
positions they mark in position order, which is topological.
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
    ValueError unless the mapping is a partition of g's tasks.
    """
    mapped = {tid for lst in mapping.proc_lists for tid in lst}
    ids = {t.id for t in g.tasks}
    if mapped != ids:
        raise ValueError(
            f"mapping is not a partition of the graph's tasks: unmapped {sorted(ids - mapped)}, "
            f"unknown {sorted(mapped - ids)}"
        )
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


@functools.lru_cache(maxsize=4)
def _indexed(g: TaskGraph, mapping: Mapping):
    """The augmented DAG's transitive reduction, numbered by topological position: ``(order, pos, succ, pred)``.

    ``order`` is ``_augmented_dag``'s topological order and ``pos`` maps a
    task id to its position in it. ``succ[i]``/``pred[i]`` are the positions
    of the successors and predecessors of position i in the transitive
    reduction, in increasing order: an augmented edge is kept only when no
    other path joins its ends. Each position's successors are scanned in
    increasing order, and one is kept unless a kept one already reaches it
    (reachability as int bitsets, built in reverse order). At one processor
    the augmented DAG is a total order and the reduction is the chain
    ``i -> i + 1``. Memoised on (g, mapping); do not mutate.

    Every pass over the reduction gives the windows of the full augmented
    DAG, bit for bit. Let an edge u -> v be implied by a path u -> w -> ...
    -> v of kept edges. Durations are non-negative and float addition and
    subtraction round monotonically, so in any forward pass finish[u] <=
    est[w] <= finish[w] <= ... <= est[v], and in any backward pass lft[w] -
    dur[w] <= lft[w] <= ... <= lft[v] - dur[v]. The dropped edge's term is
    therefore never above the forward ``max``, nor below the backward
    ``min``, over the kept edges, and both return one of their inputs, so
    each window comes out the same float.
    """
    succs, _, order = _augmented_dag(g, mapping)
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
    return order, pos, tuple(succ), tuple(map(tuple, pred))


def _start_times(preds, order, dur):
    """Forward pass: earliest start and finish of every task under durations dur."""
    start: dict[int, float] = {}
    finish: dict[int, float] = {}
    for tid in order:
        s = max((finish[p] for p in preds[tid]), default=0.0)
        start[tid] = s
        finish[tid] = s + dur[tid]
    return start, finish


def _forward(pred, dur):
    """Forward pass over ``_indexed``'s edges: earliest starts and finishes, as lists by position.

    Bit-equal to ``_start_times`` over the full augmented DAG (see
    ``_indexed``). A lone predecessor is read directly.
    """
    est = [0.0] * len(dur)
    finish = est[:]
    for i, ps in enumerate(pred):
        if len(ps) == 1:
            s = finish[ps[0]]
        else:
            s = max([finish[p] for p in ps], default=0.0)
        est[i] = s
        finish[i] = s + dur[i]
    return est, finish


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
    try:
        dur = {tid: exe_time(g.weight(tid), plans[tid]) for tid in order}
    except KeyError as exc:
        raise ValueError(f"no execution plan for task {exc.args[0]}") from None
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


def _window_state(g: TaskGraph, schedule: Schedule, D: float, platform: PlatformModel, check: bool = True):
    """``[est, finish, lft, dur]`` of every task, as lists indexed by position, or None.

    Position i is the task ``order[i]`` of ``_indexed(g, schedule.mapping)``.
    Both passes run over ``_indexed``'s transitive reduction, which gives
    the full augmented DAG's windows bit for bit, and read a lone
    predecessor or successor directly. ``est`` and ``finish`` are the
    forward pass (``_forward``), equal to evaluate's start and finish times
    bit for bit; ``lft`` is the backward pass from D, taking ``lft[u] =
    min(lft[s] - dur[s])`` over the successors s of u (D for a task without
    successors). With ``check``, the schedule must also be feasible, decided
    from the same forward pass with the same float operations as
    ``evaluate`` (makespan, every task's reliability threshold, the speed
    rules), so the two verdicts agree; None when it is not. Pass
    ``check=False`` only for a schedule already known to be feasible.
    ``_retime`` updates the state in place.
    """
    order, _, succ, pred = _indexed(g, schedule.mapping)
    weights = [g.weight(tid) for tid in order]
    plans = [schedule.plans[tid] for tid in order]
    dur = [exe_time(w, plan) for w, plan in zip(weights, plans)]
    est, finish = _forward(pred, dur)
    if check:
        if not max(finish, default=0.0) <= D + SLACK_TOL:
            return None
        threshold = _thresholds(g, platform)
        if not all(task_feasible(w, plan, threshold[tid], platform)
                   for tid, w, plan in zip(order, weights, plans)):
            return None
    lft = [D] * len(order)
    for i in reversed(range(len(order))):
        ss = succ[i]
        if len(ss) == 1:
            s = ss[0]
            lft[i] = lft[s] - dur[s]
        elif ss:
            lft[i] = min([lft[s] - dur[s] for s in ss])
    return [est, finish, lft, dur]


def _push_starts(succ, pred, est, finish, dur, r: int, d: float) -> list[int]:
    """Give position r the duration d, and move the earliest starts and finishes that follow, in place.

    Only r's descendants can start elsewhere. They are recomputed with
    ``_forward``'s expressions, in position order (a topological order),
    visiting only the successors of r and of each position whose finish
    moved, and stopping where a start or a finish comes out bit-equal to the
    old one. Returns the positions whose start moved, in increasing order.
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
    left = len(succ[r])
    for v in range(r + 1, len(est)):
        if not left:
            break
        if not queued[v]:
            continue
        left -= 1
        ps = pred[v]  # never empty: v succeeds r or a moved position
        s = finish[ps[0]] if len(ps) == 1 else max([finish[p] for p in ps])
        if s == est[v]:
            continue
        est[v] = s
        moved.append(v)
        f = s + dur[v]
        if f == finish[v]:
            continue
        finish[v] = f
        for x in succ[v]:
            if not queued[x]:
                queued[x] = 1
                left += 1
    return moved


def _retime(g: TaskGraph, mapping: Mapping, state, r: int, d: float) -> list[int]:
    """Give position r the duration d in a ``_window_state`` of (g, mapping, D), in place.

    Afterwards the state equals a fresh ``_window_state`` (without the check)
    of the changed schedule, bit for bit. The earliest starts move as
    ``_push_starts`` moves them; only r's ancestors can have another latest
    finish, so those are recomputed next, with ``_window_state``'s
    expression, in reverse topological order, stopping where one comes out
    bit-equal. Returns the positions whose start moved.
    """
    _, _, succ, pred = _indexed(g, mapping)
    est, finish, lft, dur = state
    moved = _push_starts(succ, pred, est, finish, dur, r, d)
    queued = bytearray(len(lft))
    for p in pred[r]:
        queued[p] = 1
    left = len(pred[r])
    for u in range(r - 1, -1, -1):
        if not left:
            break
        if not queued[u]:
            continue
        left -= 1
        ss = succ[u]  # never empty: u precedes r or a moved position
        if len(ss) == 1:
            s = ss[0]
            lf = lft[s] - dur[s]
        else:
            lf = min([lft[s] - dur[s] for s in ss])
        if lf == lft[u]:
            continue
        lft[u] = lf
        for p in pred[u]:
            if not queued[p]:
                queued[p] = 1
                left += 1
    return moved


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
    return _nested_weight(_intervals(g, metrics), metrics.start_times[tid], metrics.finish_times[tid])


def _intervals(g: TaskGraph, metrics: ScheduleMetrics) -> list[tuple[float, float, float]]:
    """``(start, finish, weight)`` of every task, in ``g.tasks`` order."""
    start, finish = metrics.start_times, metrics.finish_times
    return [(start[t.id], finish[t.id], t.weight) for t in g.tasks]


def _nested_weight(rows, s: float, f: float) -> float:
    """``super_weight`` of the interval [s, f] over ``_intervals`` rows, added in their order."""
    lo, hi = s - SLACK_TOL, f + SLACK_TOL
    total = 0.0
    for start, finish, w in rows:
        if start >= lo and finish <= hi:
            total += w
    return total


def sus_sort(g: TaskGraph, metrics: ScheduleMetrics, task_ids) -> list[int]:
    """Sort by decreasing super-weight; ties by decreasing weight, then id."""
    rows = _intervals(g, metrics)
    start, finish = metrics.start_times, metrics.finish_times
    sw = {tid: _nested_weight(rows, start[tid], finish[tid]) for tid in task_ids}
    return sorted(task_ids, key=lambda tid: (-sw[tid], -g.weight(tid), tid))


def cohort_of(g: TaskGraph, start_times: dict[int, float], finish_times: dict[int, float], tid: int) -> list[int]:
    """Tasks counted in tid's super-weight under these start and finish times, excluding tid."""
    s, f = start_times[tid], finish_times[tid]
    return [
        t.id
        for t in g.tasks
        if t.id != tid and start_times[t.id] >= s - SLACK_TOL and finish_times[t.id] <= f + SLACK_TOL
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

    One sweep in reverse topological order, over ``_indexed``'s positions
    and reduced edges (the augmented DAG's windows, bit for bit): each target
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
    order, _, succ, pred = _indexed(g, schedule.mapping)
    plans = dict(schedule.plans)
    for tid in targets:
        plan = plans[tid]
        if plan.re_executed and abs(plan.speed1 - plan.speed2) > SLACK_TOL:
            raise ValueError(f"task {tid}: re-executed copies at different speeds {plan}")
    weights = [g.weight(tid) for tid in order]
    dur = [exe_time(w, plans[tid]) for w, tid in zip(weights, order)]
    est, _ = _forward(pred, dur)
    lft = [D] * len(order)
    for i in reversed(range(len(order))):
        ss = succ[i]
        if len(ss) == 1:
            s = ss[0]
            lft[i] = lft[s] - dur[s]
        elif ss:
            lft[i] = min([lft[s] - dur[s] for s in ss])
        tid = order[i]
        if tid not in targets:
            continue
        slowed = _slowed(weights[i], plans[tid], lft[i] - est[i], lower_bounds.get(tid, platform.f_rel))
        if slowed is not None:
            plans[tid] = slowed
            dur[i] = exe_time(weights[i], slowed)
    return Schedule(schedule.mapping, plans)


def _slowed(w: float, plan: ExecutionPlan, window: float, floor: float) -> ExecutionPlan | None:
    """``slack_reclaim``'s decision for one target: its slower plan, or None to keep ``plan``.

    The target expands into ``window`` (latest finish minus earliest start),
    down to ``floor``, and changes only when that is slower by SLACK_TOL.
    """
    if window <= 0.0:
        return None
    if plan.re_executed:
        needed = 2.0 * w / window
    else:
        needed = w / window
    new_speed = max(floor, needed)
    if new_speed < plan.speed1 - SLACK_TOL:
        return ExecutionPlan(new_speed, new_speed) if plan.re_executed else ExecutionPlan(new_speed)
    return None


def swap_reclaims(g: TaskGraph, base: Schedule, D: float, platform: PlatformModel, tids):
    """Score each swap "tid runs once at f_rel" of ``base``, then a reclaim of the single runs.

    For each tid of ``tids`` (re-executed in ``base``) yields ``(energy,
    changes)``: ``base.with_plans(changes)`` equals ``slack_reclaim(g, trial,
    D, platform, singles, {})``, where ``trial`` is ``base`` with tid at
    ``ExecutionPlan(f_rel)`` and ``singles`` its single-run tasks, and
    ``energy`` equals ``schedule_energy`` of that schedule, bit for bit.

    Precondition: ``base`` is a reclaim fixpoint of its single runs, i.e.
    ``slack_reclaim(g, base, D, platform, singles of base, {})`` changes
    nothing, as a schedule that such a reclaim returned is (a second sweep
    changes nothing). Then the reclaim of a trial decides, for every task
    whose earliest start and latest finish are bit-equal to base's, what the
    base sweep decided: no change. So the base's windows
    (``_window_state``) and energies are built once per call, as lists
    indexed by position in ``_indexed``'s order, and each trial recomputes
    on a copy only what the swap moves, with slack_reclaim's float
    expressions: the earliest starts of tid's descendants
    (``_push_starts``); then, in reverse topological order from the last
    moved position, a latest finish wherever a successor's latest finish or
    duration moved, and the slow-down decision only where the earliest start
    or latest finish moved, plus tid. The energy continues base's running
    sum from the first changed position, one term at a time in the same
    order, as ``schedule_energy`` adds it.
    """
    order, pos, succ, pred = _indexed(g, base.mapping)
    n = len(order)
    est, finish, lft, dur = _window_state(g, base, D, platform, check=False)
    weights = [g.weight(tid) for tid in order]
    plans = [base.plans[tid] for tid in order]
    energies = [energy(w, plan) for w, plan in zip(weights, plans)]
    prefix = [0.0]
    for e in energies:
        prefix.append(prefix[-1] + e)
    f_rel = platform.f_rel
    swap = ExecutionPlan(f_rel)
    # Whether the sweep could slow the position: a single run above its
    # floor. Otherwise max(f_rel, needed) >= speed1 - SLACK_TOL, and
    # ``_slowed`` returns None. That holds for r's swap too, at f_rel, and
    # slow[r] is False, as r is re-executed in base.
    slow = [not plan.re_executed and plan.speed1 - SLACK_TOL > f_rel for plan in plans]
    for r in map(pos.__getitem__, tids):
        # Forward: the earliest starts that the shorter task r moves.
        t_dur, t_est, t_finish, t_lft = dur[:], est[:], finish[:], lft[:]
        decide = _push_starts(succ, pred, t_est, t_finish, t_dur, r, exe_time(weights[r], swap))
        # Backward: the sweep, from the last moved task down. queued[u] is 2
        # for r and the tasks whose earliest start moved, 1 for the others
        # whose latest finish may move.
        changes = {r: swap}
        queued = bytearray(n)
        queued[r] = 2
        for u in decide:
            queued[u] = 2
        left = 1 + len(decide)
        for u in range(decide[-1] if decide else r, -1, -1):
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
            else:
                lf = min([t_lft[s] - t_dur[s] for s in ss], default=D)
            moved = lf != lft[u]
            t_lft[u] = lf
            if slow[u] and (moved or q == 2):
                slowed = _slowed(weights[u], plans[u], lf - t_est[u], f_rel)
                if slowed is not None:
                    changes[u] = slowed
                    t_dur[u] = exe_time(weights[u], slowed)
                    moved = True
            if moved or u == r:
                for p in pred[u]:
                    if not queued[p]:
                        queued[p] = 1
                        left += 1
        first = min(changes)
        terms = energies[first:]
        for i, plan in changes.items():
            terms[i - first] = energy(weights[i], plan)
        total = prefix[first]
        for e in terms:
            total += e
        yield total, {order[i]: plan for i, plan in changes.items()}


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
