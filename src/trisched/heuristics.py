"""The seven scheduling heuristics plus their envelope.

Each heuristic is a table entry: a start speed for every task, then phases
``(g, sched, D, platform, f_re_ex) -> sched`` applied in order. Type A starts
at f_dec and then tries to re-execute (good when parallelism is low); type B
re-executes first from f_max and slows what is left (good for tight deadlines
and many processors). A phase is a ReExec walk over a task order, the
critical-path fixpoint, type B's reclaim and unjam of single runs, or the
closing reclaim of re-executed tasks; HFMAX and HNO_REEX have none. Every
accepted change passes a feasibility probe whose verdict is exactly that of
evaluating the whole changed schedule, so intermediate states are always
feasible. A probe that changes one task of a feasible schedule is decided in
O(1) from that schedule's time windows.

Each ReExec walk owns its windows: the earliest starts and finishes, latest
finishes and durations of the schedule it is at, as lists indexed by
position in the augmented DAG's topological order (``schedule._indexed``,
numbered once per graph and mapping); a task id is looked up as
``pos[tid]``. The walk builds them once, at its start, and passes them to
each probe, slow-down and cohort lookup. An accepted one-task probe, and a
task slowed alone after a rejected one, move them in place, recomputing
only the descendants' starts and the ancestors' latest finishes that the
change moves (``schedule._retime``), so a walk rebuilds its windows only
after a multi-task reclaim. Its cohorts are read from the same windows,
whose starts and finishes are evaluate's, bit for bit. Nothing is shared
between walks, so concurrent solves do not interfere.

Type B's reclaims are incremental and exact. A task slowed alone after a
rejected probe takes its window from the walk's windows, which hold the window
a one-target sweep would compute. Each unjam round scores every swap from
the round's schedule, a reclaim fixpoint of its single runs: a task whose
earliest start and latest finish are bit-equal to that schedule's would be
left as it is by a full reclaim of the trial, so only the tasks the swap
reaches are recomputed, with the same float operations and the same
start propagation as ``schedule._retime`` (``schedule.swap_reclaims``).
Outputs are bit-identical to full reclaims.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
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
    _retime,
    _slowed,
    _thresholds,
    _window_state,
    cohort_of,
    critical_path_tasks,
    evaluate,
    schedule_energy,
    slack_reclaim,
    sus_sort,
    swap_reclaims,
    task_feasible,
    uniform_schedule,
)


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
    f_dec: float
    f_re_ex: float


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
    rejected probe leaves it as it is.
    """
    candidate = schedule.with_plans(deltas)
    verdict = None
    one = windows is not None and len(deltas) == 1
    if one:
        est, _, lft, _ = windows
        ((tid, plan),) = deltas.items()
        r = _indexed(g, schedule.mapping)[1][tid]
        w = g.weight(tid)
        d = exe_time(w, plan)
        margin = lft[r] + SLACK_TOL - (est[r] + d)
        band = 4 * len(est) * sys.float_info.epsilon * max(D, 1.0)
        if margin > band:
            verdict = task_feasible(w, plan, _thresholds(g, platform)[tid], platform)
        elif margin < -band:
            verdict = False
    if verdict is None:
        verdict = evaluate(g, candidate, D, platform).feasible
    if not verdict:
        return False, schedule
    if one:
        _retime(g, schedule.mapping, windows, r, d)
    elif windows is not None:
        windows[:] = _window_state(g, candidate, D, platform, check=False)
    return True, candidate


def _reexecuted(schedule: Schedule) -> list[int]:
    return [tid for tid, plan in schedule.plans.items() if plan.re_executed]


def _singles(schedule: Schedule) -> list[int]:
    return [tid for tid, plan in schedule.plans.items() if not plan.re_executed]


def _greedy_order(g, sched, D, platform):
    """Every task by decreasing weight, ties by id."""
    return sorted((t.id for t in g.tasks), key=lambda tid: (-g.weight(tid), tid))


def _critical_order(g, sched, D, platform):
    """The tasks on a critical path of ``sched``, in super-weight order."""
    metrics = evaluate(g, sched, D, platform)
    return sus_sort(g, metrics, critical_path_tasks(g, sched, metrics))


def _singles_order(g, sched, D, platform):
    """The single-execution tasks of ``sched``, in super-weight order."""
    metrics = evaluate(g, sched, D, platform)
    return sus_sort(g, metrics, _singles(sched))


def _reexec_over(g, schedule, D, platform, f_re_ex, *, order, with_cohort=False, slowdown_on_fail=False):
    """ReExec (optionally ReExec&SlowDown) walk over ``order(g, schedule, D, platform)``.

    The order is taken from the schedule the walk starts from. Each task still
    running once is probed at f_re_ex. With ``with_cohort`` the tasks running
    inside an accepted task's enlarged interval are probed too. With
    ``slowdown_on_fail`` a rejected task, plus its cohort when
    ``with_cohort``, is slowed into the slack around it instead.

    ``windows`` holds the current schedule's time windows, None while it is
    infeasible.
    """
    reexec = ExecutionPlan(f_re_ex, f_re_ex)
    windows = _window_state(g, schedule, D, platform)
    for tid in order(g, schedule, D, platform):
        if schedule.plans[tid].re_executed:
            continue
        ok, schedule = feasibility_probe(g, schedule, D, platform, {tid: reexec}, windows)
        if ok:
            if with_cohort:
                # The super-weight set is taken after the task stretched to
                # its two slow executions, so everything running inside that
                # enlarged interval is pulled along.
                for cid in cohort_of(g, *_times(g, schedule, D, platform, windows), tid):
                    if not schedule.plans[cid].re_executed:
                        _, schedule = feasibility_probe(g, schedule, D, platform, {cid: reexec}, windows)
        elif slowdown_on_fail:
            cohort = cohort_of(g, *_times(g, schedule, D, platform, windows), tid) if with_cohort else []
            if cohort:
                group = [tid, *cohort]
                # Singles keep slack_reclaim's default floor, f_rel.
                bounds = {cid: f_inf(g.weight(cid), platform) for cid in group if schedule.plans[cid].re_executed}
                schedule = slack_reclaim(g, schedule, D, platform, group, bounds)
                windows = _window_state(g, schedule, D, platform)
            else:
                schedule, windows = _slow_single(g, schedule, D, platform, tid, windows)
    return schedule


def _times(g, schedule, D, platform, windows):
    """Start and finish times of ``schedule`` by task id, bit-equal to ``evaluate``'s.

    They are read from ``windows``, ``schedule``'s ``_window_state``, through
    the position order, or taken from ``evaluate`` when ``windows`` is None.
    """
    if windows is None:
        metrics = evaluate(g, schedule, D, platform)
        return metrics.start_times, metrics.finish_times
    order = _indexed(g, schedule.mapping)[0]
    return dict(zip(order, windows[0])), dict(zip(order, windows[1]))


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
    r = _indexed(g, schedule.mapping)[1][tid]
    w = g.weight(tid)
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


def _reexec_critical_fixpoint(g, sched, D, platform, f_re_ex):
    """Exhaustive ReExec driven by the critical-path SUS list.

    Passes over the critical-path list (re-derived each time, as re-executed
    tasks stretch and shift the critical paths) until a pass adds nothing;
    then remaining single-execution tasks are probed in super-weight order
    so abundant off-path slack is not left on the table.  Re-executions only
    accumulate, so the loop terminates within one pass per task.
    """
    for _ in range(len(g)):
        before = len(_reexecuted(sched))
        sched = _critical_walk(g, sched, D, platform, f_re_ex)
        after = len(_reexecuted(sched))
        if after == before:
            sched = _reexec_over(g, sched, D, platform, f_re_ex, order=_singles_order)
            if len(_reexecuted(sched)) == after:
                break
    return sched


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
    """
    sched = slack_reclaim(g, sched, D, platform, _singles(sched), {})
    while True:
        stuck = [
            tid for tid, plan in sched.plans.items()
            if not plan.re_executed and plan.speed1 > platform.f_rel + SLACK_TOL
        ]
        if not stuck:
            return sched
        current = schedule_energy(g, sched)
        best = None
        for e, changes in swap_reclaims(g, sched, D, platform, _reexecuted(sched)):
            if e < current - SLACK_TOL and (best is None or e < best[0]):
                best = (e, changes)
        if best is None:
            return sched
        sched = sched.with_plans(best[1])


def _reclaim_redone(g, sched, D, platform, f_re_ex):
    """Hand the remaining slack to the re-executed tasks, down to their f_inf floors."""
    redone = _reexecuted(sched)
    bounds = {tid: f_inf(g.weight(tid), platform) for tid in redone}
    return slack_reclaim(g, sched, D, platform, redone, bounds)


_greedy_walk = functools.partial(_reexec_over, order=_greedy_order)
_critical_walk = functools.partial(_reexec_over, order=_critical_order, with_cohort=True)
_TAIL_B = (_unjam_singles, _reclaim_redone)

# Per kind: whether every task starts at f_dec (else at f_max), and the
# phases applied in order.
_PHASES = {
    HeuristicKind.HFMAX: (False, ()),
    HeuristicKind.HNO_REEX: (True, ()),
    HeuristicKind.A_GREEDY: (True, (_greedy_walk, _reclaim_redone)),
    HeuristicKind.A_SUS_CRIT: (True, (_reexec_critical_fixpoint, _reclaim_redone)),
    HeuristicKind.B_GREEDY: (False, (_greedy_walk, *_TAIL_B)),
    HeuristicKind.B_SUS_CRIT: (False, (_critical_walk, _greedy_walk, *_TAIL_B)),
    HeuristicKind.B_SUS_CRIT_SLOW: (False, (functools.partial(_critical_walk, slowdown_on_fail=True),
                                            functools.partial(_greedy_walk, slowdown_on_fail=True), *_TAIL_B)),
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
    once and passes them to every kind it runs. ValueError for a NaN or
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
    if speeds.f_dec > platform.f_max + SLACK_TOL:
        # A deadline below the minimum makespan: nothing is feasible.
        at_f_dec, phases = False, ()
    sched = uniform_schedule(g, mapping, speeds.f_dec if at_f_dec else platform.f_max)
    for phase in phases:
        sched = phase(g, sched, D, platform, speeds.f_re_ex)
    return sched, evaluate(g, sched, D, platform)
