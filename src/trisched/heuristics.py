"""The seven scheduling heuristics plus their envelope.

Each heuristic is a table entry: a start speed for every task, then phases
``(g, sched, D, platform, f_re_ex, windows, dead) -> (sched, windows)``
applied in order. Type A starts at f_dec and then tries to re-execute
(good when parallelism is low); type B re-executes first from f_max and
slows what is left (good for tight deadlines and many processors). A phase is a ReExec
walk over a task order, the critical-path fixpoint, or type A's closing
reclaim of re-executed tasks; HFMAX and HNO_REEX have none. Every type-B
kind then runs its tail, found by kind: the reclaim and unjam of single
runs, then the reclaim of re-executed ones. Every accepted change passes a
feasibility probe whose verdict is exactly that of evaluating the whole
changed schedule, so intermediate states are always feasible. A probe that
changes one task of a feasible schedule is decided in O(1) from that
schedule's time windows.

A kind's phases hand their time windows on: the earliest starts and
finishes, latest finishes and durations of the schedule, as lists indexed
by position in the augmented DAG's topological order (``schedule._indexed``,
built once per graph and mapping, with the weights by position); a task id
is looked up as ``pos[tid]``. Each start speed's uniform schedule and its
checked windows (``schedule._window_state``) are built once per solve, on
its ``DerivedSpeeds``, and each kind starting there inherits a copy. A walk
passes its windows to its order and to each probe, slow-down and cohort
lookup. An accepted one-task probe and each task a slow-down slowed move
them in place, recomputing only the descendants' starts and the ancestors'
latest finishes that the change moves (``schedule._retime``, which keeps
them equal, bit for bit, to a fresh ``_window_state``); only the changed
tasks and the makespan are then checked, as every other task passed
already. Windows are such a checked list or None. None means the phase has
none: a start or a slow-down whose check failed, or type A's closing
reclaim, which moves none. A walk handed None checks its schedule afresh,
and holds None while the schedule is infeasible; windows only decide how a
verdict is reached, never what it is. Its order and its cohorts are read
from the same windows,
whose starts, finishes and durations are evaluate's, bit for bit: the
critical path (``schedule.critical_path_tasks``, latest finishes by
``schedule._backward`` from the makespan) and the super-weight order
(``schedule.sus_sort``) of the schedule it starts from. So a walk calls
evaluate only for a probe the windows cannot decide; evaluate judges and
reports: the probe's fallback, ``min_deadline`` and ``run``'s result.
Windows and dead sets travel in arguments and on the solve's ``speeds``,
so concurrent solves do not interfere.

A kind's walks also hand on a dead set: the tasks whose re-execution at
f_re_ex is ruled out. The start seeds it, once per start speed, from its
checked windows with the probe's own expressions: a margin below the band,
or a re-execution plan that fails ``task_feasible``. A walk adds each task
whose probe it rejects while it holds windows, that is, while its schedule
is feasible. A dead task is not probed: the walk treats it as a rejection,
so a ReExec&SlowDown walk still slows it; the walks without a slow-down,
for which it is a no-op, leave it out of their order (``sus_sort``'s key
is a total order, so the other tasks keep their relative order).

This is exact. Within a kind's walks every change makes a duration longer:
a re-execution at f_re_ex turns w/f into 2w/f_re_ex, with f_re_ex < f_rel
<= f <= f_max, and the slow-downs (``_slowed``, ``slack_reclaim``) only
lower speeds. Float addition, subtraction, max and min are monotone, so at
every position the earliest start only grows and the latest finish only
shrinks, and the makespan of "tid at f_re_ex" only grows. For that change
the duration d, the band 4n * eps * max(D, 1) and ``task_feasible`` (which
reads only w and the plan) are fixed. A probe's verdict is evaluate's on
the changed schedule. While the schedule is feasible, a rejection is
decided by that makespan or by tid's own rules; a later probe of tid sees
a makespan no smaller, the same rules, and perhaps other tasks' faults. So
a rejection made while the walk holds windows stays a rejection, whatever
the walk does next. The set lives and dies with one kind's solve.

Type B's reclaims are incremental and exact. A rejected task slowed alone
or with its cohort (``_slow_group``) takes each target's window, one at a
time in decreasing position, from the walk's windows, which the slowed
targets before it moved: the window the reclaim's sweep would compute.
Type B's tail (``_tail``) keeps one position-indexed state
(``schedule._swap_state``: speeds, re-execution flags, durations, energies
and their running sum), built once from the entering plans and moved in
place by both reclaims (``schedule._reclaim_sweep``, the sweep
``slack_reclaim`` runs) and by the unjam rounds. Each round scores every
swap from the round's state, a reclaim fixpoint of its single runs: a task
whose earliest start and latest finish are bit-equal to that state's would
be left as it is by a full reclaim of the trial, so only the tasks the swap
reaches are recomputed, with the same float operations and the same start
propagation as ``schedule._retime`` (``schedule.swap_reclaims``). A trial
carries plain speeds, not plans, and is clipped to the slow span, the
positions of the single runs above f_rel, since no other position can be
slowed. A kept swap moves only its own positions (``schedule._keep_swap``,
as does the opening reclaim), and plans are built once, at the tail's exit.
Outputs are bit-identical to full reclaims.

The tail runs once per distinct entering schedule of a solve. The kinds BEST runs
share one ``DerivedSpeeds``, which carries a memo from the entering plans,
in ``g.tasks`` order, with the graph, mapping, deadline and platform, to
the tail's plans; two type-B walks often hand the tail equal plans. Speeds
are positive, so equal plans hold identical bits, and the memo returns what
the tail would. It lives and dies with the solve's ``speeds``: a new solve
starts an empty one.
"""

from __future__ import annotations

import functools
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
    _one_speed,
    _reclaim_sweep,
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
    uniform_makespan,
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
    """The start speeds of a solve: f_dec for type A, f_re_ex for every re-execution.

    ``_tails`` is the solve's memo of type B's tail (``_tail``), and
    ``_starts`` its memo of each start speed's uniform schedule, checked
    windows and dead set (``_start``): they take no part in equality,
    hashing or repr, and every ``derived_speeds`` call starts empty ones.
    """

    f_dec: float
    f_re_ex: float
    _tails: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _starts: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def min_deadline(g: TaskGraph, mapping: Mapping, platform: PlatformModel) -> float:
    """Makespan with every task once at f_max (``schedule.uniform_makespan``)."""
    return uniform_makespan(g, mapping, platform.f_max)


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
        band = _band(len(est), D)
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


def _band(n: int, D: float) -> float:
    """The margin within which a one-task probe of n tasks defers to evaluate (see ``feasibility_probe``)."""
    return 4 * n * sys.float_info.epsilon * max(D, 1.0)


def _reexecuted(schedule: Schedule) -> list[int]:
    return [tid for tid, plan in schedule.plans.items() if plan.re_executed]


def _singles(schedule: Schedule) -> list[int]:
    return [tid for tid, plan in schedule.plans.items() if not plan.re_executed]


def _greedy_order(g, sched, state, skip):
    """Every task by decreasing weight, ties by id (kept on the graph); ``skip`` is left to the walk."""
    return g._by_weight


def _critical_order(g, sched, state, skip):
    """The single-execution tasks on a critical path of ``sched`` and not in ``skip``, in super-weight order."""
    plans = sched.plans
    live = [tid for tid in critical_path_tasks(g, sched.mapping, state)
            if not (plans[tid].re_executed or tid in skip)]
    return sus_sort(g, sched.mapping, state, live)


def _singles_order(g, sched, state, skip):
    """The single-execution tasks of ``sched`` not in ``skip``, in super-weight order."""
    return sus_sort(g, sched.mapping, state, [tid for tid in _singles(sched) if tid not in skip])


def _reexec_live(g, schedule, D, platform, tid, reexec, windows, dead):
    """``feasibility_probe`` of tid at ``reexec``, unless tid is dead; returns ``(ok, schedule)``.

    A dead task is rejected without a probe. A probe rejected while the walk
    holds ``windows`` (its schedule is feasible) adds tid to ``dead``.
    """
    if tid in dead:
        return False, schedule
    ok, schedule = feasibility_probe(g, schedule, D, platform, {tid: reexec}, windows)
    if not ok and windows is not None:
        dead.add(tid)
    return ok, schedule


def _reexec_over(g, schedule, D, platform, f_re_ex, windows, dead, *, order, with_cohort=False,
                 slowdown_on_fail=False):
    """ReExec (optionally ReExec&SlowDown) walk over ``order(g, schedule, state, skip)``; returns ``(schedule, windows)``.

    The order is taken from the schedule the walk starts from. Each task still
    running once is probed at f_re_ex. With ``with_cohort`` the tasks running
    inside an accepted task's enlarged interval are probed too. With
    ``slowdown_on_fail`` a rejected task, plus its cohort when
    ``with_cohort``, is slowed into the slack around it instead.

    ``dead`` is the kind's dead set (module docstring), moved in place: a
    dead task counts as rejected without a probe (``_reexec_live``). Without
    ``slowdown_on_fail`` a rejection changes nothing, so the order may leave
    out the dead tasks (``skip``).

    ``windows`` holds the current schedule's checked time windows, as
    handed on by the phase before; None, from the phase before or after a
    failed check, means the walk has none: it checks the schedule afresh at
    its start, and holds None while the schedule is infeasible. The order
    and every cohort are read from the windows, or from unchecked windows of
    the schedule while it has none (``times``); their starts, finishes and
    durations are evaluate's. A walk calls evaluate only for a probe the
    windows cannot decide. It hands on the windows it ends with, or None.
    """
    reexec = ExecutionPlan(f_re_ex, f_re_ex)
    if windows is None:
        windows = _window_state(g, schedule, D, platform)

    def times():
        return windows or _window_state(g, schedule, D, platform, check=False)

    for tid in order(g, schedule, times(), () if slowdown_on_fail else dead):
        if schedule.plans[tid].re_executed:
            continue
        ok, schedule = _reexec_live(g, schedule, D, platform, tid, reexec, windows, dead)
        if ok:
            if with_cohort:
                # The super-weight set is taken after the task stretched to
                # its two slow executions, so everything running inside that
                # enlarged interval is pulled along.
                for cid in cohort_of(g, schedule.mapping, times(), tid):
                    if not schedule.plans[cid].re_executed:
                        _, schedule = _reexec_live(g, schedule, D, platform, cid, reexec, windows, dead)
        elif slowdown_on_fail:
            group = [tid, *cohort_of(g, schedule.mapping, times(), tid)] if with_cohort else [tid]
            schedule, windows = _slow_group(g, schedule, D, platform, group, windows)
    return schedule, windows


def _slow_group(g, schedule, D, platform, group, windows):
    """``slack_reclaim`` of a rejected task, alone or with its cohort; returns the schedule and its windows.

    Singles keep the default floor, f_rel; re-executed tasks their f_inf.
    ``windows``, ``schedule``'s ``_window_state`` or None, moves to the
    result in place. With windows, the group is decided one target at a
    time in decreasing position, each by ``_slowed`` on its window in the
    moved windows, and a slowed target is retimed (``_retime``) before the
    next. That is the reclaim's sweep: a retime moves only the starts of the
    target's descendants, which sit higher and were decided before, and
    keeps every latest finish equal to the sweep's, which builds them from
    the current durations. Every other task passed ``_window_state``'s
    check, so only the makespan and the slowed targets are checked, and the
    windows become None when that fails. A group that slows nothing returns
    its arguments. Without windows the reclaim runs in full and they are
    built afresh.
    """
    plans = schedule.plans
    if windows is None:
        floors = _floors(g, platform)
        out = slack_reclaim(g, schedule, D, platform, group, {
            cid: floors[cid] for cid in group if plans[cid].re_executed})
        return out, _window_state(g, out, D, platform)
    _one_speed(plans, group)
    order, pos, _, _, _, weights = _indexed(g, schedule.mapping)
    est, finish, lft, _ = windows
    slowed = {}
    feasible = True
    # A lone target, the common case, skips the sort.
    for r in sorted((pos[cid] for cid in group), reverse=True) if len(group) > 1 else (pos[group[0]],):
        tid = order[r]
        w = weights[r]
        plan = plans[tid]
        x = plan.re_executed
        f = _slowed(w, plan.speed1, x, lft[r] - est[r], _floors(g, platform)[tid] if x else platform.f_rel)
        if f is not None:
            plan = slowed[tid] = ExecutionPlan(f, f) if x else ExecutionPlan(f)
            _retime(g, schedule.mapping, windows, r, exe_time(w, plan))
            feasible = feasible and task_feasible(w, plan, _thresholds(g, platform)[tid], platform)
    if not slowed:
        return schedule, windows
    if not (feasible and max(finish, default=0.0) <= D + SLACK_TOL):
        windows = None
    return schedule.with_plans(slowed), windows


def _reexec_critical_fixpoint(g, sched, D, platform, f_re_ex, windows, dead):
    """Exhaustive ReExec driven by the critical-path SUS list; returns ``(sched, windows)``.

    Passes over the critical-path list (re-derived each time, as re-executed
    tasks stretch and shift the critical paths) until a pass adds nothing;
    then remaining single-execution tasks are probed in super-weight order
    so abundant off-path slack is not left on the table.  Re-executions only
    accumulate, so the loop terminates within one pass per task. Each walk
    hands its windows and the dead set to the next.
    """
    for _ in range(len(g)):
        before = len(_reexecuted(sched))
        sched, windows = _critical_walk(g, sched, D, platform, f_re_ex, windows, dead)
        after = len(_reexecuted(sched))
        if after == before:
            sched, windows = _reexec_over(g, sched, D, platform, f_re_ex, windows, dead, order=_singles_order)
            if len(_reexecuted(sched)) == after:
                break
    return sched, windows


def _reclaim_redone(g, sched, D, platform, *_):
    """Hand the remaining slack to the re-executed tasks, down to their f_inf floors.

    Returns ``(sched, None)``: no walk follows it, so it moves no windows
    and reads none of a phase's other arguments (f_re_ex, windows, dead set).
    """
    redone = _reexecuted(sched)
    floors = _floors(g, platform)
    return slack_reclaim(g, sched, D, platform, redone, {tid: floors[tid] for tid in redone}), None


def _floors(g, platform):
    """Every task's f_inf, kept in ``g._memo`` keyed by ``("f_inf", platform)``; do not mutate.

    Built on first use, as ``schedule._thresholds`` is, from ``f_inf`` itself,
    so the floors are its floats.
    """
    key = ("f_inf", platform)
    floors = g._memo.get(key)
    if floors is None:
        floors = g._memo[key] = {t.id: f_inf(t.weight, platform) for t in g.tasks}
    return floors


_greedy_walk = functools.partial(_reexec_over, order=_greedy_order)
_critical_walk = functools.partial(_reexec_over, order=_critical_order, with_cohort=True)

# Per kind: whether every task starts at f_dec (else at f_max), and the
# phases ``(g, sched, D, platform, f_re_ex, windows, dead) -> (sched,
# windows)`` applied in order. Type B then runs its tail (``_tail``).
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
        sched, windows, dead = _start(g, mapping, D, platform, speeds, f)
        for phase in phases:
            sched, windows = phase(g, sched, D, platform, speeds.f_re_ex, windows, dead)
    else:
        sched = uniform_schedule(g, mapping, f)
    if tail:
        sched = _tail(g, sched, D, platform, speeds)
    return sched, evaluate(g, sched, D, platform)


def _start(g, mapping, D, platform, speeds, f):
    """The uniform schedule at speed f, its checked windows and its dead set, built once per solve.

    The memo is ``speeds._starts``, keyed like the tail's by everything the
    three read (graph, mapping, deadline, platform and f; f_re_ex is the
    solve's), so it lives as long as the solve's ``speeds``. Every call
    returns its own plans dict, its own copy of the windows and its own dead
    set, which the walks move in place; None windows (an infeasible start)
    stay None, with an empty dead set.

    The dead set holds the tasks whose probe at f_re_ex the start's windows
    reject, by ``feasibility_probe``'s expressions: a margin below minus the
    band, or a plan that fails ``task_feasible`` (rejected by every branch
    of the probe).
    """
    key = (g, mapping, D, platform, f)
    start = speeds._starts.get(key)
    if start is None:
        sched = uniform_schedule(g, mapping, f)
        windows = _window_state(g, sched, D, platform)
        dead = frozenset()
        if windows is not None:
            est, _, lft, _ = windows
            order, _, _, _, _, weights = _indexed(g, mapping)
            reexec = ExecutionPlan(speeds.f_re_ex, speeds.f_re_ex)
            band = _band(len(est), D)
            threshold = _thresholds(g, platform)
            dead = frozenset(
                tid for tid, w, s, lf in zip(order, weights, est, lft)
                if lf + SLACK_TOL - (s + exe_time(w, reexec)) < -band
                or not task_feasible(w, reexec, threshold[tid], platform)
            )
        start = speeds._starts[key] = (sched, windows, dead)
    sched, windows, dead = start
    return Schedule(mapping, dict(sched.plans)), None if windows is None else [col[:] for col in windows], set(dead)


def _tail(g, sched, D, platform, speeds):
    """Type B's tail from ``sched``: reclaim the single runs, unjam them, then reclaim the re-executed tasks.

    Singles go first because their appetite for slack is bounded by the
    f_rel floor, whereas the re-executed reclaim can absorb every bit of
    slack and would otherwise leave the singles pinned at f_max.

    Type-B acceptance can saturate a path so thoroughly that a task left
    running once is stuck near f_max, burning far more than the
    re-execution of a neighbour saves. Converting a re-executed task back to
    a single run at f_rel strictly shortens it, so it is always feasible;
    each unjam round keeps the best such swap, followed by a reclaim of the
    single runs (floor f_rel), whenever it lowers total energy by more than
    SLACK_TOL, and the rounds stop when none does or no single run is left
    above f_rel. Last, the re-executed tasks are reclaimed down to their
    f_inf floors (``_floors``).

    All of it moves one state (``schedule._swap_state``), built once from
    the entering plans (module docstring). The reclaims are
    ``schedule._reclaim_sweep``, the sweep of ``slack_reclaim``, so each
    round's state is a reclaim fixpoint of its single runs, as
    ``swap_reclaims`` requires; the trials are scored in ``sched.plans``
    order, so ties go to the first. Plans are built at the exit, in
    ``sched.plans`` order, for the tasks whose speed or re-execution changed.

    It runs once per distinct entry of a solve. The memo is
    ``speeds._tails``, so it lives as long as the solve's ``speeds`` and is
    shared by the kinds BEST runs. Its key is the entering plans in
    ``g.tasks`` order, with the graph, mapping, deadline and platform, which
    is everything the tail reads. Speeds are positive, so equal plans hold
    identical bits and the tail's answer is the same. A hit returns a fresh
    ``Schedule`` with its own copy of the plans.
    """
    mapping = sched.mapping
    key = (g, mapping, D, platform, tuple(sched.plans[t.id] for t in g.tasks))
    plans = speeds._tails.get(key)
    if plans is None:
        pos = _indexed(g, mapping)[1]
        state = _swap_state(g, sched)
        fs, redone, _, _, prefix = state
        singles = {i for i, x in enumerate(redone) if not x}
        _keep_swap(g, mapping, state, _reclaim_sweep(g, mapping, D, platform, state, singles, {}))
        in_plans_order = [pos[tid] for tid in sched.plans]
        stuck_above = platform.f_rel + SLACK_TOL
        while any(not x and f > stuck_above for x, f in zip(redone, fs)):
            current = prefix[-1]
            best = None
            for e, changes in swap_reclaims(g, mapping, D, platform, state, [r for r in in_plans_order if redone[r]]):
                if e < current - SLACK_TOL and (best is None or e < best[0]):
                    best = (e, changes)
            if best is None:
                break
            _keep_swap(g, mapping, state, best[1])
        _reclaim_sweep(g, mapping, D, platform, state, {i for i, x in enumerate(redone) if x}, _floors(g, platform))
        plans = {}
        for tid, plan in sched.plans.items():
            f, x = fs[pos[tid]], redone[pos[tid]]
            if f != plan.speed1 or x != plan.re_executed:
                plan = ExecutionPlan(f, f) if x else ExecutionPlan(f)
            plans[tid] = plan
        speeds._tails[key] = plans
    return Schedule(mapping, dict(plans))
