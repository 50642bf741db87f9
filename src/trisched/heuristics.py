"""The seven scheduling heuristics plus their envelope.

Each heuristic is a table entry: a start speed for every task, then phases
``(g, sched, D, platform, f_re_ex, windows) -> (sched, windows)`` applied in
order. Type A starts at f_dec and then tries to re-execute (good when
parallelism is low); type B re-executes first from f_max and slows what is
left (good for tight deadlines and many processors). A phase is a ReExec
walk over a task order, the critical-path fixpoint, or type A's closing
reclaim of re-executed tasks; HFMAX and HNO_REEX have none. Every type-B
kind then runs its tail, found by kind: the unjam of single runs, then the
reclaim of re-executed ones. Every accepted change passes a feasibility
probe whose verdict is exactly that of evaluating the whole changed
schedule, so intermediate states are always feasible. A probe that changes one task of a feasible schedule is decided in
O(1) from that schedule's time windows.

A kind's phases hand their time windows on: the earliest starts and
finishes, latest finishes and durations of the schedule, as lists indexed
by position in the augmented DAG's topological order (``schedule._indexed``,
built once per graph and mapping, with the weights by position); a task id
is looked up as ``pos[tid]``. Each start speed's uniform schedule and its
checked windows (``schedule._window_state``) are built once per solve, on
its ``DerivedSpeeds``, and each kind starting there inherits a copy. A walk
passes its windows to its order and to each probe, slow-down and cohort
lookup. An accepted one-task probe, a task slowed alone after a rejected
one, and each task a cohort reclaim slowed move them in place, recomputing
only the descendants' starts and the ancestors' latest finishes that the
change moves (``schedule._retime``, which keeps them equal, bit for bit, to
a fresh ``_window_state``); only the changed tasks and the makespan are
then checked, as every other task passed already. A walk that ends without
windows, after a failed check, hands on ``UNKNOWN``, and the next walk
checks afresh. Its order and its cohorts are read from the same windows,
whose starts, finishes and durations are evaluate's, bit for bit: the
critical path (``schedule.critical_path_tasks``, latest finishes by
``schedule._backward`` from the makespan) and the super-weight order
(``schedule.sus_sort``) of the schedule it starts from. So a walk calls
evaluate only for a probe the windows cannot decide; evaluate judges and
reports: the probe's fallback, ``min_deadline`` and ``run``'s result.
Windows travel in arguments and on the solve's ``speeds``, so concurrent
solves do not interfere.

Type B's reclaims are incremental and exact. A task slowed alone after a
rejected probe takes its window from the walk's windows, which hold the window
a one-target sweep would compute. Each unjam round scores every swap from
the round's schedule, a reclaim fixpoint of its single runs: a task whose
earliest start and latest finish are bit-equal to that schedule's would be
left as it is by a full reclaim of the trial, so only the tasks the swap
reaches are recomputed, with the same float operations and the same
start propagation as ``schedule._retime`` (``schedule.swap_reclaims``).
A trial carries plain speeds, not plans, and is clipped to the slow span,
the positions of the single runs above f_rel, since no other position can
be slowed. The rounds keep the schedule as position-indexed state
(``schedule._swap_state``): each takes its windows, energy and stuck single
runs from it, a kept swap moves only its own positions, and plans are built
once, after the last round. Outputs are bit-identical to full reclaims.

Type B's tail (the unjam rounds, then the reclaim of re-executed tasks)
runs once per distinct entering schedule of a solve. The kinds BEST runs
share one ``DerivedSpeeds``, which carries a memo from the entering plans,
in ``g.tasks`` order, with the graph, mapping, deadline and platform, to
the tail's plans; two type-B walks often hand the tail equal plans. Speeds
are positive, so equal plans hold identical bits, and the memo returns what
the tail would. It lives and dies with the solve's ``speeds``: a new solve
starts an empty one.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum

from .graph import TaskGraph
from .model import (
    SLACK_TOL,
    ExecutionPlan,
    PlatformModel,
    exe_time,
    f_inf,
    reexec_speed,
)
from .schedule import (
    Mapping,
    Schedule,
    ScheduleMetrics,
    _indexed,
    _keep_swap,
    _retime,
    _slowed,
    _swap_state,
    _thresholds,
    _window_state,
    cohort_of,
    critical_path_tasks,
    evaluate,
    slack_reclaim,
    sus_sort,
    swap_reclaims,
    task_feasible,
    uniform_schedule,
)


class _Windows(Enum):
    UNKNOWN = "unknown"


# What a phase hands on when it ends without windows: the next walk checks
# its schedule afresh.
UNKNOWN = _Windows.UNKNOWN


class HeuristicKind(Enum):
    HFMAX = "hfmax"
    HNO_REEX = "hno-reex"
    A_GREEDY = "a.greedy"
    A_SUS_CRIT = "a.sus-crit"
    B_GREEDY = "b.greedy"
    B_SUS_CRIT = "b.sus-crit"
    B_SUS_CRIT_SLOW = "b.sus-crit-slow"
    BEST = "best"


TYPE_A = (HeuristicKind.A_GREEDY, HeuristicKind.A_SUS_CRIT)
TYPE_B = (HeuristicKind.B_GREEDY, HeuristicKind.B_SUS_CRIT, HeuristicKind.B_SUS_CRIT_SLOW)
ALL_HEURISTICS = (
    HeuristicKind.HFMAX,
    HeuristicKind.HNO_REEX,
    *TYPE_A,
    *TYPE_B,
)


@dataclass(frozen=True)
class DerivedSpeeds:
    """The start speeds of a solve: f_dec for type A, f_re_ex for every re-execution.

    ``_tails`` is the solve's memo of type B's tail (``_tail``), and
    ``_starts`` its memo of each start speed's uniform schedule and checked
    windows (``_start``): they take no part in equality, hashing or repr,
    and every ``derived_speeds`` call starts empty ones.
    """

    f_dec: float
    f_re_ex: float
    _tails: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _starts: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def min_deadline(g: TaskGraph, mapping: Mapping, platform: PlatformModel) -> float:
    """Makespan with every task once at f_max."""
    base = uniform_schedule(g, mapping, platform.f_max)
    return evaluate(g, base, math.inf, platform).makespan


def derived_speeds(g: TaskGraph, mapping: Mapping, D: float, platform: PlatformModel) -> DerivedSpeeds:
    dmin = min_deadline(g, mapping, platform)
    f_dec = max(platform.f_rel, dmin / D * platform.f_max)
    return DerivedSpeeds(f_dec, reexec_speed(platform))


def feasibility_probe(
    g: TaskGraph,
    schedule: Schedule,
    D: float,
    platform: PlatformModel,
    deltas: dict[int, ExecutionPlan],
    windows,
) -> tuple[bool, Schedule]:
    """Apply tentative plan changes; accept only if the whole schedule stays feasible.

    The verdict is ``evaluate(g, schedule.with_plans(deltas), D,
    platform).feasible``. ``windows`` is ``schedule``'s
    ``schedule._window_state(g, schedule, D, platform)``, or None to decide
    with evaluate. When it is given and one task changes, only that task's
    constraints can break: it must keep its reliability threshold and the
    speed rules, and finish in its window, ``est + exe_time <= lft +
    SLACK_TOL``, with est and lft its earliest start and latest finish in
    ``schedule``. Every path through the task is no longer than D +
    SLACK_TOL exactly when that holds, and every other path is unchanged.

    In floats, each addition or subtraction errs by at most eps/2 of its
    result. A finish past 2 * max(D, 1) is rejected by both checks (no
    forward sum through it is smaller). Below that, with M = max(D, 1) and
    n tasks, the margin and evaluate's makespan test together stray
    from exact arithmetic by at most (2n + 2) * eps * M: n roundings of
    forward sums under 3M, n - 1 of backward differences under M, and lft +
    SLACK_TOL, the margin and D + SLACK_TOL (under M, 3M and M). A margin
    within 4n * eps * M of zero, where the verdicts could differ, is
    settled by evaluate, as are deltas of zero or several tasks.

    On accept, ``windows`` is moved to the candidate in place: by
    ``schedule._retime`` for one task, rebuilt unchecked otherwise. A
    rejected probe leaves it as it is and builds no candidate.
    """
    verdict = None
    one = windows is not None and len(deltas) == 1
    if one:
        est, _, lft, _ = windows
        ((tid, plan),) = deltas.items()
        _, pos, _, _, _, weights = _indexed(g, schedule.mapping)
        r = pos[tid]
        w = weights[r]
        d = exe_time(w, plan)
        margin = lft[r] + SLACK_TOL - (est[r] + d)
        band = 4 * len(est) * sys.float_info.epsilon * max(D, 1.0)
        if margin > band:
            verdict = task_feasible(w, plan, _thresholds(g, platform)[tid], platform)
        elif margin < -band:
            verdict = False
    if verdict is None:
        verdict = evaluate(g, schedule.with_plans(deltas), D, platform).feasible
    if not verdict:
        return False, schedule
    candidate = schedule.with_plans(deltas)
    if one:
        _retime(g, schedule.mapping, windows, r, d)
    elif windows is not None:
        windows[:] = _window_state(g, candidate, D, platform, check=False)
    return True, candidate


def _reexecuted(schedule: Schedule) -> list[int]:
    return [tid for tid, plan in schedule.plans.items() if plan.re_executed]


def _singles(schedule: Schedule) -> list[int]:
    return [tid for tid, plan in schedule.plans.items() if not plan.re_executed]


def _greedy_order(g, sched, state):
    """Every task by decreasing weight, ties by id (kept on the graph)."""
    return g._by_weight


def _critical_order(g, sched, state):
    """The tasks on a critical path of ``sched``, in super-weight order."""
    return sus_sort(g, sched.mapping, state, critical_path_tasks(g, sched.mapping, state))


def _singles_order(g, sched, state):
    """The single-execution tasks of ``sched``, in super-weight order."""
    return sus_sort(g, sched.mapping, state, _singles(sched))


def _reexec_over(g, schedule, D, platform, f_re_ex, windows, *, order, with_cohort=False, slowdown_on_fail=False):
    """ReExec (optionally ReExec&SlowDown) walk over ``order(g, schedule, state)``; returns ``(schedule, windows)``.

    The order is taken from the schedule the walk starts from. Each task still
    running once is probed at f_re_ex. With ``with_cohort`` the tasks running
    inside an accepted task's enlarged interval are probed too. With
    ``slowdown_on_fail`` a rejected task, plus its cohort when
    ``with_cohort``, is slowed into the slack around it instead.

    ``windows`` holds the current schedule's time windows, as handed on by
    the phase before (``UNKNOWN`` to check afresh), None while the schedule
    is infeasible. The order and every cohort are read from them, or from
    unchecked windows of the schedule while it has none (``times``); their
    starts, finishes and durations are evaluate's. A walk calls evaluate only
    for a probe the windows cannot decide. It hands on the windows it ends
    with, ``UNKNOWN`` when it has none.
    """
    reexec = ExecutionPlan(f_re_ex, f_re_ex)
    if windows is UNKNOWN:
        windows = _window_state(g, schedule, D, platform)

    def times():
        return windows or _window_state(g, schedule, D, platform, check=False)

    for tid in order(g, schedule, times()):
        if schedule.plans[tid].re_executed:
            continue
        ok, schedule = feasibility_probe(g, schedule, D, platform, {tid: reexec}, windows)
        if ok:
            if with_cohort:
                # The super-weight set is taken after the task stretched to
                # its two slow executions, so everything running inside that
                # enlarged interval is pulled along.
                for cid in cohort_of(g, schedule.mapping, times(), tid):
                    if not schedule.plans[cid].re_executed:
                        _, schedule = feasibility_probe(g, schedule, D, platform, {cid: reexec}, windows)
        elif slowdown_on_fail:
            cohort = cohort_of(g, schedule.mapping, times(), tid) if with_cohort else []
            if cohort:
                schedule, windows = _slow_group(g, schedule, D, platform, [tid, *cohort], windows)
            else:
                schedule, windows = _slow_single(g, schedule, D, platform, tid, windows)
    return schedule, UNKNOWN if windows is None else windows


def _slow_group(g, schedule, D, platform, group, windows):
    """``slack_reclaim`` of a rejected task and its cohort; returns the schedule and its windows.

    Singles keep the default floor, f_rel; re-executed tasks their f_inf.
    ``windows``, ``schedule``'s ``_window_state`` or None, moves to the
    result by ``_retime`` of each slowed task (each yields the fresh state of
    the schedule so far), and only the makespan and those tasks are checked,
    as ``_slow_single`` does. Without windows they are built afresh.
    """
    _, pos, _, _, _, weights = _indexed(g, schedule.mapping)
    bounds = {cid: f_inf(weights[pos[cid]], platform) for cid in group if schedule.plans[cid].re_executed}
    out = slack_reclaim(g, schedule, D, platform, group, bounds)
    if windows is None:
        return out, _window_state(g, out, D, platform)
    threshold = _thresholds(g, platform)
    feasible = True
    for tid in group:
        plan = out.plans[tid]
        if plan is not schedule.plans[tid]:  # slowed: slack_reclaim builds a new plan
            r = pos[tid]
            _retime(g, schedule.mapping, windows, r, exe_time(weights[r], plan))
            feasible = feasible and task_feasible(weights[r], plan, threshold[tid], platform)
    if not (feasible and max(windows[1], default=0.0) <= D + SLACK_TOL):
        windows = None
    return out, windows


def _slow_single(g, schedule, D, platform, tid, windows):
    """``slack_reclaim(g, schedule, D, platform, [tid], {})`` for a tid that runs once.

    ``windows`` is ``schedule``'s ``_window_state``. With one target, the
    sweep's window for it is the plain forward and backward pass, which
    ``windows`` holds with the same float operations, so only the decision
    is left to make. ``windows`` then moves to the slowed schedule in place
    and is returned with it, or None when ``_window_state``'s check fails,
    of which only the makespan and the slowed task can change, as every
    other task already passed. An infeasible ``schedule``, whose windows are
    None, gets the full reclaim and None.
    """
    if windows is None:
        return slack_reclaim(g, schedule, D, platform, [tid], {}), None
    est, finish, lft, _ = windows
    _, pos, _, _, _, weights = _indexed(g, schedule.mapping)
    r = pos[tid]
    w = weights[r]
    slowed = _slowed(w, schedule.plans[tid], lft[r] - est[r], platform.f_rel)
    if slowed is None:
        return schedule, windows
    _retime(g, schedule.mapping, windows, r, exe_time(w, slowed))
    if not (
        max(finish, default=0.0) <= D + SLACK_TOL
        and task_feasible(w, slowed, _thresholds(g, platform)[tid], platform)
    ):
        windows = None
    return schedule.with_plan(tid, slowed), windows


def _reexec_critical_fixpoint(g, sched, D, platform, f_re_ex, windows):
    """Exhaustive ReExec driven by the critical-path SUS list; returns ``(sched, windows)``.

    Passes over the critical-path list (re-derived each time, as re-executed
    tasks stretch and shift the critical paths) until a pass adds nothing;
    then remaining single-execution tasks are probed in super-weight order
    so abundant off-path slack is not left on the table.  Re-executions only
    accumulate, so the loop terminates within one pass per task. Each walk
    hands its windows to the next.
    """
    for _ in range(len(g)):
        before = len(_reexecuted(sched))
        sched, windows = _critical_walk(g, sched, D, platform, f_re_ex, windows)
        after = len(_reexecuted(sched))
        if after == before:
            sched, windows = _reexec_over(g, sched, D, platform, f_re_ex, windows, order=_singles_order)
            if len(_reexecuted(sched)) == after:
                break
    return sched, windows


def _unjam_singles(g, sched, D, platform, f_re_ex):
    """Slow single-execution tasks down to f_rel, then unjam them.

    Singles go first because their appetite for slack is bounded by the f_rel
    floor, whereas the re-executed reclaim can absorb every bit of slack and
    would otherwise leave the singles pinned at f_max.

    Type-B acceptance can saturate a path so thoroughly that a task left
    running once is stuck near f_max, burning far more than the re-execution
    of a neighbour saves.  Converting a re-executed task back to a single run
    at f_rel strictly shortens it, so it is always feasible; we keep the best
    such swap, followed by a reclaim of the single runs, whenever it lowers
    total energy, and stop when none does. Every reclaim here uses
    slack_reclaim's default floor, f_rel.

    Each round's schedule is the output of a reclaim of its single runs, so
    a second such reclaim would change nothing (slack_reclaim's sweep is
    exact in one pass). That is the precondition of ``swap_reclaims``, which
    scores every swap of the round from that schedule's windows, moving only
    the tasks the swap reaches, with the same float operations as a full
    reclaim and energy sum; the result is bit-identical to reclaiming each
    trial in full.

    The rounds run on position-indexed state (``schedule._swap_state``):
    speeds, re-execution flags, durations, energies and their running sum,
    from which each round takes its windows, its energy (the sum's last
    term, ``schedule_energy``'s value) and its stuck single runs. The trials
    are scored in ``sched.plans`` order, so ties go to the same swap. A kept
    swap moves only its own positions (``schedule._keep_swap``), and plans
    are built once, at the end, for the positions that changed.
    """
    sched = slack_reclaim(g, sched, D, platform, _singles(sched), {})
    mapping = sched.mapping
    order, pos, _, _, _, _ = _indexed(g, mapping)
    state = _swap_state(g, sched)
    speeds, redone, _, _, prefix = state
    in_plans_order = [pos[tid] for tid in sched.plans]
    stuck_above = platform.f_rel + SLACK_TOL
    kept = {}
    while any(not x and f > stuck_above for x, f in zip(redone, speeds)):
        current = prefix[-1]
        best = None
        for e, changes in swap_reclaims(g, mapping, D, platform, state, [r for r in in_plans_order if redone[r]]):
            if e < current - SLACK_TOL and (best is None or e < best[0]):
                best = (e, changes)
        if best is None:
            break
        _keep_swap(g, mapping, state, best[1])
        kept.update(best[1])
    return sched.with_plans({order[i]: ExecutionPlan(f) for i, f in kept.items()})


def _reclaim_redone(g, sched, D, platform, f_re_ex, windows):
    """Hand the remaining slack to the re-executed tasks, down to their f_inf floors.

    Returns ``(sched, UNKNOWN)``: no walk follows it, so it moves no windows.
    """
    redone = _reexecuted(sched)
    bounds = {tid: f_inf(g.weight(tid), platform) for tid in redone}
    return slack_reclaim(g, sched, D, platform, redone, bounds), UNKNOWN


_greedy_walk = functools.partial(_reexec_over, order=_greedy_order)
_critical_walk = functools.partial(_reexec_over, order=_critical_order, with_cohort=True)

# Per kind: whether every task starts at f_dec (else at f_max), and the
# phases applied in order. Type B then runs its tail (``_tail``).
_PHASES = {
    HeuristicKind.HFMAX: (False, ()),
    HeuristicKind.HNO_REEX: (True, ()),
    HeuristicKind.A_GREEDY: (True, (_greedy_walk, _reclaim_redone)),
    HeuristicKind.A_SUS_CRIT: (True, (_reexec_critical_fixpoint, _reclaim_redone)),
    HeuristicKind.B_GREEDY: (False, (_greedy_walk,)),
    HeuristicKind.B_SUS_CRIT: (False, (_critical_walk, _greedy_walk)),
    HeuristicKind.B_SUS_CRIT_SLOW: (False, (functools.partial(_critical_walk, slowdown_on_fail=True),
                                            functools.partial(_greedy_walk, slowdown_on_fail=True))),
}


def run(
    kind: HeuristicKind,
    g: TaskGraph,
    mapping: Mapping,
    D: float,
    platform: PlatformModel,
    *,
    speeds: DerivedSpeeds | None = None,
) -> tuple[Schedule, ScheduleMetrics]:
    """Run one heuristic; returns the schedule and its metrics.

    For a deadline below the full-speed makespan every heuristic reports the
    full-speed schedule with an infeasible verdict. ``speeds``, when given,
    must be ``derived_speeds(g, mapping, D, platform)``; BEST derives them
    once and passes them to every kind it runs, so the type-B kinds share
    one memo of their tail (``_tail``) and every kind that starts at one
    speed shares its start (``_start``). ValueError for a NaN or
    non-positive deadline.
    """
    if not D > 0.0:  # NaN too
        raise ValueError(f"deadline must be positive, got {D}")
    if speeds is None:
        speeds = derived_speeds(g, mapping, D, platform)
    if kind is HeuristicKind.BEST:
        best = None
        for k in ALL_HEURISTICS:
            sched, metrics = run(k, g, mapping, D, platform, speeds=speeds)
            if best is None:
                best = (sched, metrics)
            elif metrics.feasible and (not best[1].feasible or metrics.energy < best[1].energy):
                best = (sched, metrics)
        return best

    at_f_dec, phases = _PHASES[kind]
    tail = kind in TYPE_B
    if speeds.f_dec > platform.f_max + SLACK_TOL:
        # A deadline below the minimum makespan: nothing is feasible.
        at_f_dec, phases, tail = False, (), False
    f = speeds.f_dec if at_f_dec else platform.f_max
    if phases:
        sched, windows = _start(g, mapping, D, platform, speeds, f)
        for phase in phases:
            sched, windows = phase(g, sched, D, platform, speeds.f_re_ex, windows)
    else:
        sched = uniform_schedule(g, mapping, f)
    if tail:
        sched = _tail(g, sched, D, platform, speeds)
    return sched, evaluate(g, sched, D, platform)


def _start(g, mapping, D, platform, speeds, f):
    """The uniform schedule at speed f and its checked windows, built once per solve.

    The memo is ``speeds._starts``, keyed like the tail's by everything the
    two read (graph, mapping, deadline, platform and f), so it lives as long
    as the solve's ``speeds``. Every call returns its own plans dict and its
    own copy of the windows, which the walks move in place; None windows
    (an infeasible start) stay None.
    """
    key = (g, mapping, D, platform, f)
    start = speeds._starts.get(key)
    if start is None:
        sched = uniform_schedule(g, mapping, f)
        start = speeds._starts[key] = (sched, _window_state(g, sched, D, platform))
    sched, windows = start
    return Schedule(mapping, dict(sched.plans)), None if windows is None else [col[:] for col in windows]


def _tail(g, sched, D, platform, speeds):
    """Type B's tail from ``sched``: the unjam rounds, then the reclaim of re-executed tasks.

    It runs once per distinct entry of a solve. The memo is
    ``speeds._tails``, so it lives as long as the solve's ``speeds`` and is
    shared by the kinds BEST runs. Its key is the entering plans in
    ``g.tasks`` order, with the graph, mapping, deadline and platform, which
    is everything the tail reads. Speeds are positive, so equal plans hold
    identical bits and the tail's answer is the same. A hit returns a fresh
    ``Schedule`` with its own copy of the plans.
    """
    key = (g, sched.mapping, D, platform, tuple(sched.plans[t.id] for t in g.tasks))
    plans = speeds._tails.get(key)
    if plans is None:
        sched = _unjam_singles(g, sched, D, platform, speeds.f_re_ex)
        sched, _ = _reclaim_redone(g, sched, D, platform, speeds.f_re_ex, UNKNOWN)
        speeds._tails[key] = dict(sched.plans)
        return sched
    return Schedule(sched.mapping, dict(plans))
