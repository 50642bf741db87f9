"""The seven scheduling heuristics plus their envelope.

Two families: type A decelerates every task first and then tries to
re-execute (good when parallelism is low), type B re-executes first from the
full-speed baseline and decelerates what is left (good for tight deadlines
and many processors). Every accepted change passes a feasibility probe whose
verdict is exactly that of evaluating the whole changed schedule, so
intermediate states are always feasible. A probe that changes one task of a
feasible schedule is decided in O(1) from that schedule's time windows.
"""

from __future__ import annotations

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
    _thresholds,
    cohort_of,
    critical_path_tasks,
    evaluate,
    schedule_energy,
    slack_reclaim,
    sus_sort,
    task_feasible,
    time_windows,
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


# The last probed schedule's time_windows, keyed on its mapping, the other
# arguments and a copy of its plans, so an equal schedule rebuilt by a
# reclaim that changed nothing still hits (the comparison is by identity for
# plans shared with the copy) and a plans dict changed in place misses. The
# windows are a pair (est, lft), None for an infeasible schedule, or _UNBUILT
# for one an accepted probe has just proved feasible.
_UNBUILT = object()
_last_probed = None


def _windows(g, schedule, D, platform):
    global _last_probed
    last = _last_probed
    if (
        last is not None
        and last[0] is schedule.mapping
        and last[1] is g
        and last[2] == D
        and last[3] is platform
        and last[4] == schedule.plans
    ):
        if last[5] is not _UNBUILT:
            return last[5]
        windows = time_windows(g, schedule, D, platform, check=False)
    else:
        windows = time_windows(g, schedule, D, platform)
    _last_probed = (schedule.mapping, g, D, platform, dict(schedule.plans), windows)
    return windows


def feasibility_probe(
    g: TaskGraph,
    schedule: Schedule,
    D: float,
    platform: PlatformModel,
    deltas: dict[int, ExecutionPlan],
) -> tuple[bool, Schedule]:
    """Apply tentative plan changes; accept only if the whole schedule stays feasible.

    The verdict is ``evaluate(g, schedule.with_plans(deltas), D,
    platform).feasible``. When ``schedule`` is feasible and one task changes,
    only that task's constraints can break: it must keep its reliability
    threshold and the speed rules, and finish in its window,
    ``est + exe_time <= lft + SLACK_TOL``, with est and lft the earliest
    start and latest finish in ``schedule`` (``time_windows``). Every path
    through the task is no longer than D + SLACK_TOL exactly when that holds,
    and every other path is unchanged.

    In floats, each addition or subtraction errs by at most eps/2 of its
    result. A finish past 2 * max(D, 1) is rejected by both checks (no
    forward sum through it is smaller). Below that, with M = max(D, 1) and
    n tasks, the margin and evaluate's makespan test together stray
    from exact arithmetic by at most (2n + 2) * eps * M: n roundings of
    forward sums under 3M, n - 1 of backward differences under M, and lft +
    SLACK_TOL, the margin and D + SLACK_TOL (under M, 3M and M). A margin
    within 4n * eps * M of zero, where the verdicts could differ, is
    settled by evaluate, as are deltas of zero or several tasks and an
    infeasible ``schedule``.
    """
    global _last_probed
    candidate = schedule.with_plans(deltas)
    verdict = None
    if len(deltas) == 1:
        windows = _windows(g, schedule, D, platform)
        if windows is not None:
            est, lft = windows
            ((tid, plan),) = deltas.items()
            w = g.weight(tid)
            margin = lft[tid] + SLACK_TOL - (est[tid] + exe_time(w, plan))
            band = 4 * len(est) * sys.float_info.epsilon * max(D, 1.0)
            if margin > band:
                verdict = task_feasible(w, plan, _thresholds(g, platform)[tid], platform)
            elif margin < -band:
                verdict = False
    if verdict is None:
        verdict = evaluate(g, candidate, D, platform).feasible
    if verdict:
        _last_probed = (candidate.mapping, g, D, platform, dict(candidate.plans), _UNBUILT)
        return True, candidate
    return False, schedule


def _greedy_list(g: TaskGraph) -> list[int]:
    return sorted((t.id for t in g.tasks), key=lambda tid: (-g.weight(tid), tid))


def _reexec_over(g, schedule, D, platform, order, f_re_ex, with_cohort, slowdown_on_fail):
    """ReExec (optionally ReExec&SlowDown) walk over the given task order."""
    reexec = ExecutionPlan(f_re_ex, f_re_ex)
    for tid in order:
        if schedule.plans[tid].re_executed:
            continue
        ok, schedule = feasibility_probe(g, schedule, D, platform, {tid: reexec})
        if ok:
            if with_cohort:
                # The super-weight set is taken after the task stretched to
                # its two slow executions, so everything running inside that
                # enlarged interval is pulled along.
                metrics = evaluate(g, schedule, D, platform)
                for cid in cohort_of(g, metrics, tid):
                    if not schedule.plans[cid].re_executed:
                        _, schedule = feasibility_probe(g, schedule, D, platform, {cid: reexec})
        elif slowdown_on_fail:
            metrics = evaluate(g, schedule, D, platform)
            group = [tid] + cohort_of(g, metrics, tid)
            bounds = {
                cid: f_inf(g.weight(cid), platform)
                if schedule.plans[cid].re_executed
                else platform.f_rel
                for cid in group
            }
            schedule = slack_reclaim(g, schedule, D, platform, group, bounds)
    return schedule


def _reexec_critical_fixpoint(g, sched, D, platform, f_re_ex):
    """Exhaustive ReExec driven by the critical-path SUS list.

    Passes over the critical-path list (re-derived each time, as re-executed
    tasks stretch and shift the critical paths) until a pass adds nothing;
    then remaining single-execution tasks are probed in super-weight order
    so abundant off-path slack is not left on the table.  Re-executions only
    accumulate, so the loop terminates within one pass per task.
    """
    for _ in range(len(g)):
        metrics = evaluate(g, sched, D, platform)
        list_sw = sus_sort(g, metrics, critical_path_tasks(g, sched, metrics))
        before = sum(1 for p in sched.plans.values() if p.re_executed)
        sched = _reexec_over(g, sched, D, platform, list_sw, f_re_ex,
                             with_cohort=True, slowdown_on_fail=False)
        after = sum(1 for p in sched.plans.values() if p.re_executed)
        if after == before:
            metrics = evaluate(g, sched, D, platform)
            rest = sus_sort(g, metrics,
                            [t.id for t in g.tasks if not sched.plans[t.id].re_executed])
            sched = _reexec_over(g, sched, D, platform, rest, f_re_ex,
                                 with_cohort=False, slowdown_on_fail=False)
            if sum(1 for p in sched.plans.values() if p.re_executed) == after:
                break
    return sched


def _reexecuted(schedule: Schedule) -> list[int]:
    return [tid for tid, plan in schedule.plans.items() if plan.re_executed]


def run(
    kind: HeuristicKind,
    g: TaskGraph,
    mapping: Mapping,
    D: float,
    platform: PlatformModel,
) -> tuple[Schedule, ScheduleMetrics]:
    """Run one heuristic; returns the schedule and its metrics.

    For a deadline below the full-speed makespan every heuristic reports the
    full-speed schedule with an infeasible verdict.
    """
    if math.isnan(D):
        raise ValueError("deadline must not be NaN")
    if kind is HeuristicKind.BEST:
        best = None
        for k in ALL_HEURISTICS:
            sched, metrics = run(k, g, mapping, D, platform)
            if best is None:
                best = (sched, metrics)
            elif metrics.feasible and (not best[1].feasible or metrics.energy < best[1].energy):
                best = (sched, metrics)
        return best

    speeds = derived_speeds(g, mapping, D, platform)
    f_dec, f_re_ex = speeds.f_dec, speeds.f_re_ex
    greedy = _greedy_list(g)

    if f_dec > platform.f_max + SLACK_TOL or kind is HeuristicKind.HFMAX:
        # Also the answer to a deadline below the minimum makespan, where
        # nothing is feasible.
        sched = uniform_schedule(g, mapping, platform.f_max)
    elif kind is HeuristicKind.HNO_REEX:
        sched = uniform_schedule(g, mapping, f_dec)
    elif kind in TYPE_A:
        sched = uniform_schedule(g, mapping, f_dec)
        if kind is HeuristicKind.A_GREEDY:
            sched = _reexec_over(g, sched, D, platform, greedy, f_re_ex,
                                 with_cohort=False, slowdown_on_fail=False)
        else:
            sched = _reexec_critical_fixpoint(g, sched, D, platform, f_re_ex)
        redone = _reexecuted(sched)
        bounds = {tid: f_inf(g.weight(tid), platform) for tid in redone}
        sched = slack_reclaim(g, sched, D, platform, redone, bounds)
    elif kind in TYPE_B:
        sched = uniform_schedule(g, mapping, platform.f_max)
        slow = kind is HeuristicKind.B_SUS_CRIT_SLOW
        if kind is not HeuristicKind.B_GREEDY:
            metrics = evaluate(g, sched, D, platform)
            list_sw = sus_sort(g, metrics, critical_path_tasks(g, sched, metrics))
            sched = _reexec_over(g, sched, D, platform, list_sw, f_re_ex,
                                 with_cohort=True, slowdown_on_fail=slow)
        if slow:
            reexec = ExecutionPlan(f_re_ex, f_re_ex)
            for tid in greedy:
                if sched.plans[tid].re_executed:
                    continue
                ok, sched = feasibility_probe(g, sched, D, platform, {tid: reexec})
                if not ok:
                    sched = slack_reclaim(g, sched, D, platform, [tid], {tid: platform.f_rel})
        else:
            sched = _reexec_over(g, sched, D, platform, greedy, f_re_ex,
                                 with_cohort=False, slowdown_on_fail=False)
        sched = _b_final_reclaims(g, sched, D, platform)
    else:
        raise ValueError(f"unknown heuristic {kind}")
    return sched, evaluate(g, sched, D, platform)


def _unjam_singles(g, sched, D, platform):
    """Trade re-executions away while that unpins jammed single tasks.

    Type-B acceptance can saturate a path so thoroughly that a task left
    running once is stuck near f_max, burning far more than the re-execution
    of a neighbour saves.  Converting a re-executed task back to a single run
    at f_rel strictly shortens it, so it is always feasible; we keep the best
    such swap whenever it lowers total energy, and stop when none does.
    """
    while True:
        stuck = [
            tid for tid, plan in sched.plans.items()
            if not plan.re_executed and plan.speed1 > platform.f_rel + SLACK_TOL
        ]
        if not stuck:
            return sched
        current = schedule_energy(g, sched)
        singles_floor = {t.id: platform.f_rel for t in g.tasks}
        best = None
        for rid in _reexecuted(sched):
            trial = sched.with_plan(rid, ExecutionPlan(platform.f_rel))
            rest = [t.id for t in g.tasks if not trial.plans[t.id].re_executed]
            trial = slack_reclaim(g, trial, D, platform, rest, singles_floor)
            e = schedule_energy(g, trial)
            if e < current - SLACK_TOL and (best is None or e < best[0]):
                best = (e, trial)
        if best is None:
            return sched
        sched = best[1]


def _b_final_reclaims(g, sched, D, platform):
    """Type-B tail: slow single-execution tasks down to f_rel, then hand the
    remaining slack to the re-executed ones.

    Singles go first because their appetite for slack is bounded by the f_rel
    floor, whereas the re-executed reclaim can absorb every bit of slack and
    would otherwise leave the singles pinned at f_max.
    """
    rest = [t.id for t in g.tasks if not sched.plans[t.id].re_executed]
    sched = slack_reclaim(g, sched, D, platform, rest, {tid: platform.f_rel for tid in rest})
    sched = _unjam_singles(g, sched, D, platform)
    redone = _reexecuted(sched)
    bounds = {tid: f_inf(g.weight(tid), platform) for tid in redone}
    return slack_reclaim(g, sched, D, platform, redone, bounds)
