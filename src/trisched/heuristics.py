"""The seven scheduling heuristics plus their envelope.

Each heuristic is a table entry: a start speed for every task, then phases
``(g, state, D, platform, f_re_ex)`` applied in order. Type A starts at f_dec
and then tries to re-execute (good when parallelism is low); type B
re-executes first from f_max and slows what is left (good for tight
deadlines and many processors). A phase is a ReExec walk over a task order,
the critical-path fixpoint, or type A's closing reclaim of re-executed
tasks; HFMAX and HNO_REEX have none. Every type-B kind then runs its tail,
found by kind: the reclaim and unjam of single runs, then the reclaim of
re-executed ones. A re-execution is accepted only when a feasibility probe
finds the whole changed schedule feasible, with evaluate's verdict. A probe
that changes one task of a feasible schedule is decided in O(1) from that
schedule's time windows.

A kind's solve holds one state (``_State``), built by ``_start`` and moved
in place by every phase, slow-down and the tail; plans and a ``Schedule``
are built once, at ``run``'s exit. The state is indexed by position in the
augmented DAG's topological order (``schedule._indexed``, built once per
graph and mapping, with the weights by position); a task id is looked up as
``pos[tid]``. It holds each position's speed and re-execution flag, the time
windows of that schedule (``[est, finish, lft, dur]``: earliest starts and
finishes, latest finishes and durations, laid out as
``schedule._window_state`` lays them out), a flag that says whether the
schedule is feasible, and the kind's dead set. Up to the kind's closing step
(below), the windows are the fresh passes of the current schedule, bit for
bit, feasible or not, and the flag is the makespan test, ``max(finish) <= D
+ SLACK_TOL``, which is evaluate's verdict on it (below). Each start speed's
state is built once per solve, on its ``DerivedSpeeds``, and each kind
starting there moves its own copy. An accepted probe and each task a
slow-down slowed move the windows in place, recomputing only the
descendants' starts and the ancestors' latest finishes that the change moves
(``schedule._retime``, which keeps them equal, bit for bit, to a fresh
``_window_state``). A walk's order and cohorts are read from the same windows,
whose starts, finishes and durations are evaluate's, bit for bit: the
critical path (``schedule.critical_path_tasks``, latest finishes by
``schedule._backward`` from the makespan) and the super-weight order
(``schedule.sus_sort``) of the schedule it starts from. So no phase calls
evaluate; it judges and reports ``run``'s result. States travel in arguments
and on the solve's ``speeds``, so concurrent solves do not interfere.

The state's contract ends at the kind's closing step: type A's reclaim of
its re-executed tasks (``_reclaim_redone``), and type B's tail (``_tail``),
which ends with that reclaim. Nothing is decided after it: ``run`` builds
plans from the speeds and flags and judges them with evaluate. So the
closing step moves only the speeds, flags and durations (the reclaim's
sweep, ``schedule._reclaim_sweep``, builds its own windows), and leaves the
other windows and the flag as they were. A kind without phases ends at its
start.

Up to the closing step no task breaks its own rules, the speed rules and
its reliability threshold (``task_feasible``), so a state is infeasible only
by its makespan, and only the probe checks a task:

- A start runs every task once at f_dec or f_max, and ``run`` keeps that
  speed in [f_rel, f_max + SLACK_TOL]. So the speed rules hold, and so
  does the threshold, one run's reliability at f_rel, since the failure
  probability eps(f) = lambda(f) * w / f falls as f grows.
- The probe checks tid's own rules at its plan before it moves anything.
- A slow-down (``_slowed``) lowers a speed, never below its floor. A single
  run stays at or above f_rel. A re-execution stays at or above f_inf(w),
  which ``model.f_inf`` bisects to within ROOT_TOL of the root, far inside
  SLACK_TOL; it only slows from the speed the probe accepted, so it stays
  below f_rel / sqrt(2).

The flag is one-way: once False, it stays False up to the kind's closing
step. Within a kind's walks every move makes a duration longer: an accepted
re-execution turns w/f into 2w/f_re_ex, with f_re_ex < f_rel <= f, and a
slow-down only lowers a speed. Float addition, subtraction, max and min are
monotone, so at every position the earliest start only grows and the latest
finish only shrinks, and the makespan never shrinks: a state past D +
SLACK_TOL stays past it. So an infeasible state rejects every probe before
any move, and evaluate rejects each candidate a walk makes, as it only
lengthens tid; a walk without a slow-down, which then changes nothing,
returns at once.

A kind's state also holds its dead set: the tasks whose re-execution at
f_re_ex is ruled out. The start seeds it, once per start speed, from its
windows with the probe's own expression: a margin below minus the band. A
walk adds each task whose probe it rejects. A dead task is not probed: the
walk treats it as a rejection, so a ReExec&SlowDown walk still slows it;
the walks without a slow-down, for which it is a no-op, leave it out of
their order (``sus_sort``'s key is a total order, so the other tasks keep
their relative order).

This is exact. For the change "tid at f_re_ex" the duration d, the band 4n *
eps * max(D, 1) and ``task_feasible`` (which reads only w and the plan) are
fixed, and its makespan only grows as the walk moves (above). A probe
rejects on that makespan, on tid's own rules, or on an infeasible state; a
later probe of tid sees a makespan no smaller, the same rules, and a state
that stays infeasible. So a rejection, the seeds' included, stays a
rejection, whatever the walk does next. The set lives and dies with one
kind's solve.

Type B's reclaims are incremental and exact. A rejected task slowed alone
or with its cohort (``_slow_group``) takes each target's window, one at a
time in decreasing position, from the state's windows, which the slowed
targets before it moved: the window the reclaim's sweep would compute.
Type B's tail (``_tail``) moves the same state: both of its reclaims are
``schedule._reclaim_sweep`` on the state's speeds, re-execution flags and
durations, and the unjam rounds score their swaps from those three lists.
Each round scores every swap from the round's state, a reclaim fixpoint of
its single runs: a task whose earliest start and latest finish are
bit-equal to that state's would be left as it is by a full reclaim of the
trial, so only the tasks the swap reaches are recomputed, with the same
float operations and the same start propagation as ``schedule._retime``
(``schedule.swap_reclaims``). A trial carries plain speeds, not plans, and
is clipped to the slow span, the positions of the single runs above f_rel,
since no other position can be slowed. A kept swap moves only its own
positions' speeds, flags and durations, as does the opening reclaim, and
the round's energy becomes the kept trial's. Outputs are bit-identical to
full reclaims.

The tail runs once per distinct entering schedule of a solve. The kinds BEST
runs share one ``DerivedSpeeds``, which carries a memo from the entering
speeds and re-execution flags, by position, with the graph, mapping,
deadline and platform, to the speeds and flags the tail ends at; two
type-B walks often hand the tail equal schedules. Speeds are positive, so
equal speeds hold identical bits, and the memo returns what the tail would.
It lives and dies with the solve's ``speeds``: a new solve starts an empty
one.
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
    _forward,
    _indexed,
    _reclaim_sweep,
    _retime,
    _slowed,
    _thresholds,
    _window_state,
    cohort_of,
    critical_path_tasks,
    evaluate,
    schedule_energy,
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
    """The start speeds of a solve: f_dec for type A, f_re_ex for every re-execution.

    ``_tails`` is the solve's memo of type B's tail (``_tail``), and
    ``_starts`` its memo of each start speed's state (``_start``): they take
    no part in equality, hashing or repr, and every ``derived_speeds`` call
    starts empty ones.
    """

    f_dec: float
    f_re_ex: float
    _tails: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _starts: dict = field(default_factory=dict, init=False, compare=False, repr=False)


@dataclass(eq=False, slots=True)
class _State:
    """One kind's solve on (g, mapping), by position in ``_indexed(g, mapping)`` (module docstring).

    ``windows`` is the fresh ``_window_state(g, schedule, D)`` of the
    schedule whose position i runs at ``speeds[i]``, twice when
    ``redone[i]``; ``feasible`` is its makespan test, ``max(windows[1]) <= D +
    SLACK_TOL``, which is evaluate's verdict on it and once False stays False,
    and ``dead`` the kind's dead set, by task id. That holds
    until the kind's closing step, after which only ``speeds`` and ``redone``
    are read. The lists are only ever moved in place.
    """

    mapping: Mapping
    windows: list
    speeds: list
    redone: list
    feasible: bool
    dead: set

    def copy(self) -> "_State":
        return _State(self.mapping, [col[:] for col in self.windows], self.speeds[:], self.redone[:],
                      self.feasible, set(self.dead))


def _schedule(g: TaskGraph, state: _State) -> Schedule:
    """The state's schedule, plans in ``g.tasks`` order; positions of one speed and flag share a plan."""
    pos = _indexed(g, state.mapping)[1]
    keys = list(zip(state.speeds, state.redone))
    made = {(f, x): ExecutionPlan(f, f) if x else ExecutionPlan(f) for f, x in set(keys)}
    return Schedule(state.mapping, {t.id: made[keys[pos[t.id]]] for t in g.tasks})


def min_deadline(g: TaskGraph, mapping: Mapping, platform: PlatformModel) -> float:
    """Makespan with every task once at f_max: evaluate's forward pass (``schedule._forward``), bit for bit."""
    _, _, _, pred, chain, weights = _indexed(g, mapping)
    plan = ExecutionPlan(platform.f_max)
    return max(_forward(pred, [exe_time(w, plan) for w in weights], chain)[1], default=0.0)


def derived_speeds(g: TaskGraph, mapping: Mapping, D: float, platform: PlatformModel) -> DerivedSpeeds:
    dmin = min_deadline(g, mapping, platform)
    f_dec = max(platform.f_rel, dmin / D * platform.f_max)
    return DerivedSpeeds(f_dec, reexec_speed(platform))


def feasibility_probe(
    g: TaskGraph,
    state: _State,
    D: float,
    platform: PlatformModel,
    tid: int,
    plan: ExecutionPlan,
) -> tuple[bool, _State]:
    """Try task tid at ``plan``; accept only if the whole schedule stays feasible. Returns ``(verdict, state)``.

    ``state`` is a kind's solve state (``_State``); ``plan`` runs both copies
    at one speed when it re-executes. On a feasible state the verdict is that
    of ``evaluate`` on the state's schedule with tid at ``plan``, for any
    plan. An infeasible state is rejected before any move. A walk's state
    fails only on its makespan (module docstring), so that is evaluate's
    verdict for any plan that does not shorten tid, as no probe a walk makes
    does.

    On a feasible state only tid's constraints can break: it must keep its
    reliability threshold and the speed rules (``task_feasible``, checked
    first), and finish in its window, ``est + exe_time <= lft + SLACK_TOL``,
    with est and lft its earliest start and latest finish in the state's
    windows. Every path through the task is no longer than D + SLACK_TOL
    exactly when that holds, and every other path is unchanged.

    In floats, each addition or subtraction errs by at most eps/2 of its
    result. A finish past 2 * max(D, 1) is rejected by both checks (no
    forward sum through it is smaller). Below that, with M = max(D, 1) and
    n tasks, the margin and evaluate's makespan test together stray
    from exact arithmetic by at most (2n + 2) * eps * M: n roundings of
    forward sums under 3M, n - 1 of backward differences under M, and lft +
    SLACK_TOL, the margin and D + SLACK_TOL (under M, 3M and M). So a margin
    below minus 4n * eps * M rejects, and one above it accepts. A margin
    within it, where the verdicts could differ, is settled by evaluate's own
    makespan test on the candidate: the windows move to it by
    ``schedule._retime``, as on accept, and their finishes are evaluate's
    forward pass, bit for bit. A rejected candidate's windows are moved back
    by a second ``_retime`` to tid's old duration, which restores them bit
    for bit.

    On accept, the state moves to the candidate in place: its windows, then
    tid's speed and flag. A rejected probe leaves it as it was.
    """
    if not state.feasible:
        return False, state
    _, pos, _, _, _, weights = _indexed(g, state.mapping)
    est, _, lft, dur = windows = state.windows
    r = pos[tid]
    w = weights[r]
    d = exe_time(w, plan)
    margin = lft[r] + SLACK_TOL - (est[r] + d)
    band = _band(len(est), D)
    if margin < -band or not task_feasible(w, plan, _thresholds(g, platform)[tid], platform):
        return False, state
    before_dur = dur[r]
    _retime(g, state.mapping, windows, r, d)
    # Within the band, evaluate's own makespan test on the candidate.
    if not margin > band and not max(windows[1]) <= D + SLACK_TOL:
        _retime(g, state.mapping, windows, r, before_dur)
        return False, state
    state.speeds[r], state.redone[r] = plan.speed1, plan.re_executed
    return True, state


def _band(n: int, D: float) -> float:
    """The margin within which a one-task probe of n tasks defers to evaluate's test (see ``feasibility_probe``)."""
    return 4 * n * sys.float_info.epsilon * max(D, 1.0)


def _greedy_order(g, state, skip):
    """Every task by decreasing weight, ties by id (kept on the graph); ``skip`` is left to the walk."""
    return g._by_weight


def _critical_order(g, state, skip):
    """The single-execution tasks on a critical path of the state and not in ``skip``, in super-weight order."""
    pos = _indexed(g, state.mapping)[1]
    redone = state.redone
    live = [tid for tid in critical_path_tasks(g, state.mapping, state.windows)
            if not (redone[pos[tid]] or tid in skip)]
    return sus_sort(g, state.mapping, state.windows, live)


def _singles_order(g, state, skip):
    """The single-execution tasks of the state not in ``skip``, in super-weight order."""
    order = _indexed(g, state.mapping)[0]
    return sus_sort(g, state.mapping, state.windows,
                    [tid for tid, x in zip(order, state.redone) if not (x or tid in skip)])


def _reexec_live(g, state, D, platform, tid, reexec):
    """``feasibility_probe`` of tid at ``reexec``, unless tid is dead; returns the verdict.

    A dead task is rejected without a probe. A rejected probe adds tid to
    the dead set.
    """
    if tid in state.dead:
        return False
    ok = feasibility_probe(g, state, D, platform, tid, reexec)[0]
    if not ok:
        state.dead.add(tid)
    return ok


def _reexec_over(g, state, D, platform, f_re_ex, *, order, with_cohort=False, slowdown_on_fail=False):
    """ReExec (optionally ReExec&SlowDown) walk over ``order(g, state, skip)``, moving ``state``.

    The order is taken from the schedule the walk starts from. Each task still
    running once is probed at f_re_ex. With ``with_cohort`` the tasks running
    inside an accepted task's enlarged interval are probed too. With
    ``slowdown_on_fail`` a rejected task, plus its cohort when
    ``with_cohort``, is slowed into the slack around it instead.

    A dead task counts as rejected without a probe (``_reexec_live``).
    Without ``slowdown_on_fail`` a rejection changes nothing, so the order
    may leave out the dead tasks (``skip``), and on an infeasible state,
    where every probe rejects, the walk returns at once. The order and every
    cohort are read from the state's windows, whose starts, finishes and
    durations are evaluate's.
    """
    if not (state.feasible or slowdown_on_fail):
        return
    reexec = ExecutionPlan(f_re_ex, f_re_ex)
    mapping, windows, redone = state.mapping, state.windows, state.redone
    pos = _indexed(g, mapping)[1]
    for tid in order(g, state, () if slowdown_on_fail else state.dead):
        if redone[pos[tid]]:
            continue
        if _reexec_live(g, state, D, platform, tid, reexec):
            if with_cohort:
                # The super-weight set is taken after the task stretched to
                # its two slow executions, so everything running inside that
                # enlarged interval is pulled along.
                for cid in cohort_of(g, mapping, windows, tid):
                    if not redone[pos[cid]]:
                        _reexec_live(g, state, D, platform, cid, reexec)
        elif slowdown_on_fail:
            _slow_group(g, state, D, platform, [tid, *cohort_of(g, mapping, windows, tid)] if with_cohort else [tid])


def _slow_group(g, state, D, platform, group):
    """The reclaim of a rejected task, alone or with its cohort, on the state, in place.

    Singles keep the default floor, f_rel; re-executed tasks their f_inf.
    The group is decided one target at a time in decreasing position, each
    by ``_slowed`` on its window in the state's windows, and a slowed target
    is retimed (``_retime``) before the next. That is the reclaim's sweep
    (``slack_reclaim``): a retime moves only the starts of the target's
    descendants, which sit higher and were decided before, and keeps every
    latest finish equal to the sweep's, which builds them from the current
    durations. A slow-down keeps every target's own rules (module
    docstring), so when it slowed a target of a feasible state, the flag
    becomes the makespan test.
    """
    order, pos, _, _, _, weights = _indexed(g, state.mapping)
    est, _, lft, _ = windows = state.windows
    speeds, redone = state.speeds, state.redone
    slowed = False
    # A lone target, the common case, skips the sort.
    for r in sorted((pos[cid] for cid in group), reverse=True) if len(group) > 1 else (pos[group[0]],):
        w, x = weights[r], redone[r]
        f = _slowed(w, speeds[r], x, lft[r] - est[r], _floors(g, platform)[order[r]] if x else platform.f_rel)
        if f is not None:
            speeds[r] = f
            d = w / f  # exe_time's expression, for one run or two at f
            _retime(g, state.mapping, windows, r, d + d if x else d)
            slowed = True
    if slowed and state.feasible:
        state.feasible = max(windows[1]) <= D + SLACK_TOL


def _reexec_critical_fixpoint(g, state, D, platform, f_re_ex):
    """Exhaustive ReExec driven by the critical-path SUS list.

    Passes over the critical-path list (re-derived each time, as re-executed
    tasks stretch and shift the critical paths) until a pass adds nothing;
    then the remaining single-execution tasks are probed once, in
    super-weight order, so abundant off-path slack is not left on the table.
    Re-executions only accumulate, so the passes end within one per task.

    No later walk could accept anything, so the singles sweep ends the
    fixpoint. The sweep probes every single run but the dead ones, and a
    rejected task joins the dead set. A rejection stays one (module
    docstring), so every task still running once after the sweep is
    rejected by every later probe.
    """
    redone = state.redone
    while True:
        before = sum(redone)
        _critical_walk(g, state, D, platform, f_re_ex)
        if sum(redone) == before:
            break
    _reexec_over(g, state, D, platform, f_re_ex, order=_singles_order)


def _reclaim_redone(g, state, D, platform, f_re_ex):
    """Hand the remaining slack to the re-executed tasks, down to their f_inf floors.

    The reclaim's sweep on the state's speeds, flags and durations
    (``schedule._reclaim_sweep``). It is a kind's closing step: the other
    windows and the flag are left as they were (module docstring).
    """
    _reclaim_sweep(g, state.mapping, D, platform, (state.speeds, state.redone, state.windows[3]),
                   {i for i, x in enumerate(state.redone) if x}, _floors(g, platform))


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
# phases ``(g, state, D, platform, f_re_ex)`` applied in order, each moving
# the state in place. Type B then runs its tail (``_tail``).
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
    state = _start(g, mapping, D, platform, speeds, speeds.f_dec if at_f_dec else platform.f_max)
    for phase in phases:
        phase(g, state, D, platform, speeds.f_re_ex)
    if tail:
        _tail(g, state, D, platform, speeds)
    sched = _schedule(g, state)
    return sched, evaluate(g, sched, D, platform)


def _start(g, mapping, D, platform, speeds, f):
    """The state of the uniform schedule at speed f, with its dead set, built once per solve; returns a copy.

    The memo is ``speeds._starts``, keyed like the tail's by everything the
    state reads (graph, mapping, deadline, platform and f; f_re_ex is the
    solve's), so it lives as long as the solve's ``speeds``. Every call
    returns its own copy, which the kind's phases move in place.

    The flag is the makespan test: every task runs once at f, which keeps
    its own rules (module docstring). The dead set holds the tasks whose
    margin at f_re_ex is below minus the band (``feasibility_probe``); a walk
    adds the other rejected ones.
    """
    key = (g, mapping, D, platform, f)
    start = speeds._starts.get(key)
    if start is None:
        windows = _window_state(g, uniform_schedule(g, mapping, f), D)
        n = len(windows[0])
        est, _, lft, _ = windows
        order, _, _, _, _, weights = _indexed(g, mapping)
        reexec = ExecutionPlan(speeds.f_re_ex, speeds.f_re_ex)
        band = _band(n, D)
        start = _State(mapping, windows, [f] * n, [False] * n, max(windows[1], default=0.0) <= D + SLACK_TOL, {
            tid for tid, w, s, lf in zip(order, weights, est, lft)
            if lf + SLACK_TOL - (s + exe_time(w, reexec)) < -band
        })
        speeds._starts[key] = start
    return start.copy()


def _tail(g, state, D, platform, speeds):
    """Type B's tail on ``state``: reclaim the single runs, unjam them, then reclaim the re-executed tasks.

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
    f_inf floors (``_reclaim_redone``), the kind's closing step.

    The reclaims are ``schedule._reclaim_sweep`` on the state's speeds,
    flags and durations, so each round's state is a reclaim fixpoint of its
    single runs, as ``swap_reclaims`` requires. The rounds read those three
    lists. The round's energy is one float: ``schedule_energy`` of the state
    after the opening reclaim, then the kept trial's energy, which is the
    running sum of the state it moves to, bit for bit (``swap_reclaims``).
    A kept swap writes its positions' speeds, flags and durations. The
    trials are scored in ``g.tasks`` order, so ties go to the first.

    It runs once per distinct entry of a solve. The memo is
    ``speeds._tails``, shared by the kinds BEST runs. Its key is the
    entering speeds and flags, by position, with the graph, mapping,
    deadline and platform: everything the tail reads. Speeds are positive,
    so equal speeds hold identical bits and the tail's answer is the same.
    The memo keeps the speeds and flags the tail ends at, all that is read
    after it, and a hit moves the state to them.
    """
    mapping = state.mapping
    fs, redone, dur = state.speeds, state.redone, state.windows[3]
    key = (g, mapping, D, platform, tuple(fs), tuple(redone))
    out = speeds._tails.get(key)
    if out is not None:
        fs[:], redone[:] = out
        return
    _, pos, _, _, _, weights = _indexed(g, mapping)
    unjam = (fs, redone, dur)
    _reclaim_sweep(g, mapping, D, platform, unjam, {i for i, x in enumerate(redone) if not x}, {})
    current = schedule_energy(g, _schedule(g, state))
    stuck_above = platform.f_rel + SLACK_TOL
    while any(not x and f > stuck_above for x, f in zip(redone, fs)):
        best = None
        for e, changes in swap_reclaims(g, mapping, D, platform, unjam, [pos[t.id] for t in g.tasks if redone[pos[t.id]]]):
            if e < current - SLACK_TOL and (best is None or e < best[0]):
                best = (e, changes)
        if best is None:
            break
        current, changes = best
        for i, f in changes.items():
            fs[i], redone[i], dur[i] = f, False, weights[i] / f
    _reclaim_redone(g, state, D, platform, speeds.f_re_ex)
    speeds._tails[key] = fs[:], redone[:]
