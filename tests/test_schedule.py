"""Mappings, schedule evaluation, critical paths, super-weights, slack reclaim."""

import math
import random
import sys

import pytest

from conftest import make_platform
from trisched.graph import TaskGraph, chain, fork, generate_random
from trisched.heuristics import HeuristicKind, min_deadline, run
from trisched.model import SLACK_TOL, ExecutionPlan, Task, exe_time, f_inf
from trisched.schedule import (
    Mapping,
    Schedule,
    ScheduleMetrics,
    _augmented_dag,
    _indexed,
    _retime,
    _start_times,
    _window_state,
    cohort_of,
    critical_path_tasks,
    evaluate,
    format_schedule,
    list_schedule,
    schedule_energy,
    slack_reclaim,
    super_weight,
    sus_sort,
    uniform_schedule,
)


def _metrics(start_times, finish_times, weights):
    """Hand-built metrics for interval-geometry tests."""
    return ScheduleMetrics(
        makespan=max(finish_times.values()),
        energy=0.0,
        start_times=start_times,
        finish_times=finish_times,
        reliability_slack={tid: 0.0 for tid in start_times},
        feasible=True,
        deadline=math.inf,
    )


class TestMapping:
    def test_partition_enforced(self):
        with pytest.raises(ValueError):
            Mapping(((0, 1), (1,)))

    @pytest.mark.parametrize("lists", [((0, 1),), ((0, 1, 2, 7),), ((0, 1), (2, 3))])
    def test_mapping_must_partition_the_graph(self, platform, lists):
        # A task left unmapped, an unknown task id, or both.
        g = chain([1.0, 2.0, 3.0])
        mapping = Mapping(lists)
        sched = Schedule(mapping, {tid: ExecutionPlan(1.0) for lst in lists for tid in lst})
        with pytest.raises(ValueError, match="partition"):
            evaluate(g, sched, 10.0, platform)
        with pytest.raises(ValueError, match="partition"):
            run(HeuristicKind.BEST, g, mapping, 10.0, platform)

    def test_missing_plan_named(self, platform):
        g = chain([1.0, 2.0, 3.0])
        sched = Schedule(list_schedule(g, 1), {0: ExecutionPlan(1.0), 1: ExecutionPlan(1.0)})
        with pytest.raises(ValueError, match="task 2"):
            evaluate(g, sched, 10.0, platform)


class TestListSchedule:
    def test_chain_on_one_processor_keeps_chain_order(self):
        g = chain([1.0, 2.0, 3.0])
        m = list_schedule(g, 1)
        assert m.proc_lists == ((0, 1, 2),)

    def test_chain_on_many_processors_is_time_equivalent(self, platform):
        # precedence serializes a chain regardless of the processor choice
        g = chain([1.0, 2.0, 3.0])
        sched = uniform_schedule(g, list_schedule(g, 3), 1.0)
        single = uniform_schedule(g, list_schedule(g, 1), 1.0)
        a = evaluate(g, sched, math.inf, platform)
        b = evaluate(g, single, math.inf, platform)
        assert a.start_times == b.start_times and a.makespan == b.makespan

    def test_fork_spreads_leaves(self):
        g = fork(1.0, [1.0, 1.0, 1.0])
        m = list_schedule(g, 4)
        assert m.proc_lists[0][0] == 0
        placed = sorted(tid for lst in m.proc_lists for tid in lst)
        assert placed == [0, 1, 2, 3]
        assert all(len(lst) <= 2 for lst in m.proc_lists)

    def test_heavier_independent_task_dispatched_first(self):
        g = TaskGraph((Task(0, 5.0), Task(1, 1.0)), frozenset())
        m = list_schedule(g, 2)
        assert m.proc_lists[0] == (0,)
        assert m.proc_lists[1] == (1,)

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            list_schedule(chain([1.0]), 0)


class TestEvaluate:
    def test_chain_at_full_speed(self, platform):
        g = chain([1.0, 1.0])
        sched = uniform_schedule(g, list_schedule(g, 1), 1.0)
        metrics = evaluate(g, sched, 10.0, platform)
        assert metrics.makespan == pytest.approx(2.0)
        assert metrics.energy == pytest.approx(2.0)
        assert metrics.feasible

    def test_re_executed_second_task(self, platform):
        g = chain([1.0, 1.0])
        sched = uniform_schedule(g, list_schedule(g, 1), 1.0).with_plan(
            1, ExecutionPlan(0.5, 0.5)
        )
        metrics = evaluate(g, sched, 10.0, platform)
        assert metrics.makespan == pytest.approx(5.0)  # 1 + both executions at 0.5
        assert metrics.energy == pytest.approx(1.5)

    def test_energy_invariant_under_processor_permutation(self, platform):
        g = TaskGraph((Task(0, 2.0), Task(1, 3.0)), frozenset())
        plans = {0: ExecutionPlan(1.0), 1: ExecutionPlan(0.8)}
        a = evaluate(g, Schedule(Mapping(((0,), (1,))), plans), 10.0, platform)
        b = evaluate(g, Schedule(Mapping(((1,), (0,))), plans), 10.0, platform)
        assert a.energy == b.energy
        assert a.makespan == b.makespan

    def test_deadline_violation_is_infeasible(self, platform):
        g = chain([1.0, 1.0])
        sched = uniform_schedule(g, list_schedule(g, 1), 1.0)
        assert not evaluate(g, sched, 1.5, platform).feasible

    def test_reliability_violation_is_infeasible(self, platform):
        g = chain([1.0])
        sched = uniform_schedule(g, list_schedule(g, 1), platform.f_rel * 0.9)
        metrics = evaluate(g, sched, 100.0, platform)
        assert not metrics.feasible
        assert metrics.reliability_slack[0] < 0

    def test_speed_model_violations_are_infeasible(self, platform):
        g = chain([1.0, 1.0])
        mapping = list_schedule(g, 1)
        plans = {0: ExecutionPlan(5.0), 1: ExecutionPlan(0.3, 0.9)}
        assert not evaluate(g, Schedule(mapping, plans), 100.0, platform).feasible
        for plan in (
            ExecutionPlan(5.0),  # above f_max
            ExecutionPlan(0.3, 0.9),  # copies at different speeds
            ExecutionPlan(0.5, 0.5),  # re-executed at or above f_rel/sqrt(2)
            ExecutionPlan(0.001, 0.001),  # re-executed below f_inf
            ExecutionPlan(0.9 * platform.f_rel),  # single run below f_rel
        ):
            sched = uniform_schedule(g, mapping, platform.f_rel).with_plan(1, plan)
            assert not evaluate(g, sched, 100.0, platform).feasible
        ok = uniform_schedule(g, mapping, platform.f_rel).with_plan(1, ExecutionPlan(0.4, 0.4))
        assert evaluate(g, ok, 100.0, platform).feasible

    def test_time_windows_exist_exactly_when_feasible(self, platform):
        g = chain([1.0, 2.0])
        mapping = list_schedule(g, 1)
        sched = uniform_schedule(g, mapping, 1.0)
        assert _indexed(g, mapping)[0] == (0, 1)
        assert _window_state(g, sched, 10.0, platform) == [[0.0, 1.0], [1.0, 3.0], [8.0, 10.0], [1.0, 2.0]]
        for D, plan in (
            (2.5, ExecutionPlan(1.0)),  # past the deadline
            (10.0, ExecutionPlan(0.9 * platform.f_rel)),  # reliability shortfall
            (10.0, ExecutionPlan(0.5, 0.5)),  # speed fault
            (12.0, ExecutionPlan(0.4, 0.4)),  # feasible
        ):
            candidate = sched.with_plan(1, plan)
            windows = _window_state(g, candidate, D, platform)
            assert (windows is not None) == evaluate(g, candidate, D, platform).feasible
            assert _window_state(g, candidate, D, platform, check=False) is not None

    def test_schedule_energy_equals_evaluate_energy(self, platform):
        g = generate_random(40, 90, seed=8)
        mapping = list_schedule(g, 4)
        D = 3.0 * min_deadline(g, mapping, platform)
        sched, metrics = run(HeuristicKind.B_SUS_CRIT, g, mapping, D, platform)
        assert any(plan.re_executed for plan in sched.plans.values())
        assert schedule_energy(g, sched) == metrics.energy

    def test_respects_both_edge_types(self, platform):
        g = generate_random(30, 60, seed=21)
        mapping = list_schedule(g, 4)
        sched = uniform_schedule(g, mapping, 1.0)
        m = evaluate(g, sched, math.inf, platform)
        for u, v in g.edges:
            assert m.start_times[v] >= m.finish_times[u] - 1e-12
        for lst in mapping.proc_lists:
            for a, b in zip(lst, lst[1:]):
                assert m.start_times[b] >= m.finish_times[a] - 1e-12


class TestCriticalPath:
    def test_chain_everything_critical(self, platform):
        g = chain([1.0, 2.0])
        sched = uniform_schedule(g, list_schedule(g, 1), 1.0)
        m = evaluate(g, sched, 10.0, platform)
        assert sorted(critical_path_tasks(g, sched, m)) == [0, 1]

    def test_symmetric_fork_all_critical(self, platform):
        g = fork(1.0, [1.0, 1.0])
        sched = uniform_schedule(g, list_schedule(g, 3), 1.0)
        m = evaluate(g, sched, 10.0, platform)
        assert sorted(critical_path_tasks(g, sched, m)) == [0, 1, 2]

    def test_asymmetric_fork(self, platform):
        g = fork(1.0, [5.0, 1.0])
        sched = uniform_schedule(g, list_schedule(g, 3), 1.0)
        m = evaluate(g, sched, 10.0, platform)
        assert sorted(critical_path_tasks(g, sched, m)) == [0, 1]  # source + heavy leaf

    def test_nonempty_on_any_instance(self, platform):
        g = generate_random(40, 80, seed=2)
        sched = uniform_schedule(g, list_schedule(g, 5), 1.0)
        m = evaluate(g, sched, math.inf, platform)
        assert critical_path_tasks(g, sched, m)


class TestSuperWeight:
    def test_isolated_task_counts_itself(self):
        g = TaskGraph((Task(0, 7.0),), frozenset())
        m = _metrics({0: 0.0}, {0: 3.0}, {0: 7.0})
        assert super_weight(g, m, 0) == 7.0

    def test_nested_intervals_example(self):
        # interval [0,10] (w=3) contains [2,4] (w=1) and [5,6] (w=2): SW = 6
        g = TaskGraph((Task(0, 3.0), Task(1, 1.0), Task(2, 2.0)), frozenset())
        m = _metrics({0: 0.0, 1: 2.0, 2: 5.0}, {0: 10.0, 1: 4.0, 2: 6.0}, None)
        assert super_weight(g, m, 0) == 6.0
        assert super_weight(g, m, 1) == 1.0
        assert cohort_of(g, m.start_times, m.finish_times, 0) == [1, 2]

    def test_containment_monotonicity(self):
        g = TaskGraph((Task(0, 1.0), Task(1, 2.0), Task(2, 4.0)), frozenset())
        m = _metrics({0: 0.0, 1: 1.0, 2: 2.0}, {0: 10.0, 1: 9.0, 2: 8.0}, None)
        assert super_weight(g, m, 0) >= super_weight(g, m, 1) >= super_weight(g, m, 2)

    def test_sus_sort_order_and_ties(self):
        g = TaskGraph((Task(0, 1.0), Task(1, 2.0), Task(2, 2.0)), frozenset())
        # disjoint unit intervals: SW = own weight; ties by weight then id
        m = _metrics({0: 0.0, 1: 2.0, 2: 4.0}, {0: 1.0, 1: 3.0, 2: 5.0}, None)
        assert sus_sort(g, m, [0, 1, 2]) == [1, 2, 0]


class TestSlackReclaim:
    def test_single_task_hits_lower_bound(self, platform):
        g = chain([1.0])
        sched = uniform_schedule(g, list_schedule(g, 1), 1.0)
        out = slack_reclaim(g, sched, 1000.0, platform, {0}, {0: platform.f_rel})
        assert out.plans[0].speed1 == pytest.approx(platform.f_rel, rel=1e-12)

    def test_tight_schedule_unchanged(self, platform):
        g = chain([1.0, 1.0])
        sched = uniform_schedule(g, list_schedule(g, 1), 1.0)
        out = slack_reclaim(g, sched, 2.0, platform, {0, 1}, {})
        assert out.plans == sched.plans

    def test_chain_with_doubled_deadline(self, platform):
        g = chain([1.0, 1.0])
        sched = uniform_schedule(g, list_schedule(g, 1), 1.0)
        out = slack_reclaim(g, sched, 4.0, platform, {0, 1}, {})
        expected = max(platform.f_rel, 2.0 / 4.0)
        for tid in (0, 1):
            assert out.plans[tid].speed1 == pytest.approx(expected, rel=1e-12)

    def test_never_increases_speed_or_energy_and_stays_feasible(self, platform):
        g = generate_random(30, 50, seed=33)
        mapping = list_schedule(g, 3)
        sched = uniform_schedule(g, mapping, 1.0)
        base = evaluate(g, sched, math.inf, platform)
        D = base.makespan * 2.0
        targets = {t.id for t in g.tasks}
        out = slack_reclaim(g, sched, D, platform, targets, {})
        m = evaluate(g, out, D, platform)
        assert m.feasible
        assert m.energy <= base.energy
        for tid in targets:
            assert out.plans[tid].speed1 <= sched.plans[tid].speed1 + 1e-12

    def test_re_executed_target_uses_both_execution_budget(self, platform):
        g = chain([1.0])
        fi = f_inf(1.0, platform)
        sched = Schedule(list_schedule(g, 1), {0: ExecutionPlan(0.45, 0.45)})
        D = 2.0 / 0.4  # window fits both executions at speed 0.4
        out = slack_reclaim(g, sched, D, platform, {0}, {0: fi})
        assert out.plans[0].re_executed
        assert out.plans[0].speed1 == pytest.approx(0.4, rel=1e-9)
        assert evaluate(g, out, D, platform).makespan <= D + 1e-9


def _est_lft(succs, preds, order, dur, D):
    est, _ = _start_times(preds, order, dur)
    lft = {}
    for tid in reversed(order):
        lft[tid] = min((lft[s] - dur[s] for s in succs[tid]), default=D)
    return est, lft


def _full_recompute_reclaim(g, schedule, D, platform, targets, lower_bounds):
    """The earlier slack_reclaim, which redid both passes after every change.

    Kept verbatim as the oracle: the one-forward-pass sweep must give the
    same plans, bit for bit.
    """
    targets = set(targets)
    succs, preds, order = _augmented_dag(g, schedule.mapping)
    plans = dict(schedule.plans)
    weights = {t.id: t.weight for t in g.tasks}
    dur = {tid: exe_time(weights[tid], plans[tid]) for tid in order}
    est, lft = _est_lft(succs, preds, order, dur, D)
    for _ in range(len(order) + 2):
        changed = False
        for tid in reversed(order):
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
                plans[tid] = (
                    ExecutionPlan(new_speed, new_speed) if plan.re_executed else ExecutionPlan(new_speed)
                )
                dur[tid] = exe_time(w, plans[tid])
                est, lft = _est_lft(succs, preds, order, dur, D)
                changed = True
        if not changed:
            break
    return Schedule(schedule.mapping, plans)


class TestSlackReclaimMatchesFullRecompute:
    @pytest.mark.parametrize("case", range(24))
    def test_same_plans_bit_for_bit(self, platform, case):
        rng = random.Random(case)
        n = rng.randint(30, 100)
        g = generate_random(n, rng.randint(n, 3 * n), seed=100 + case)
        p = (1, 4, 50)[case % 3]
        ids = [t.id for t in g.tasks]
        redone = set(rng.sample(ids, rng.randint(0, n // 2)))
        sched = Schedule(
            list_schedule(g, p),
            {tid: ExecutionPlan(1.0, 1.0) if tid in redone else ExecutionPlan(1.0) for tid in ids},
        )
        D = (1.2, 2.0, 5.0)[case // 3 % 3] * evaluate(g, sched, math.inf, platform).makespan
        targets = rng.sample(ids, rng.randint(n // 4, n))
        bounds = {}
        for tid in targets:
            floor = rng.choice(("default", "f_rel", "f_inf"))
            if floor == "f_rel":
                bounds[tid] = platform.f_rel
            elif floor == "f_inf":
                bounds[tid] = f_inf(g.weight(tid), platform)
        expected = _full_recompute_reclaim(g, sched, D, platform, targets, bounds)
        out = slack_reclaim(g, sched, D, platform, targets, bounds)
        assert expected.plans != sched.plans
        assert out.plans == expected.plans


def _reclaim_case(platform, case):
    """The inputs of TestSlackReclaimMatchesFullRecompute's case number `case`."""
    rng = random.Random(case)
    n = rng.randint(30, 100)
    g = generate_random(n, rng.randint(n, 3 * n), seed=100 + case)
    ids = [t.id for t in g.tasks]
    redone = set(rng.sample(ids, rng.randint(0, n // 2)))
    sched = Schedule(
        list_schedule(g, (1, 4, 50)[case % 3]),
        {tid: ExecutionPlan(1.0, 1.0) if tid in redone else ExecutionPlan(1.0) for tid in ids},
    )
    D = (1.2, 2.0, 5.0)[case // 3 % 3] * evaluate(g, sched, math.inf, platform).makespan
    targets = rng.sample(ids, rng.randint(n // 4, n))
    bounds = {}
    for tid in targets:
        floor = rng.choice(("default", "f_rel", "f_inf"))
        if floor == "f_rel":
            bounds[tid] = platform.f_rel
        elif floor == "f_inf":
            bounds[tid] = f_inf(g.weight(tid), platform)
    return g, sched, D, targets, bounds


class TestSlackReclaimOneSweep:
    @pytest.mark.parametrize("case", range(24))
    def test_second_reclaim_changes_nothing(self, platform, case):
        g, sched, D, targets, bounds = _reclaim_case(platform, case)
        out = slack_reclaim(g, sched, D, platform, targets, bounds)
        assert out.plans != sched.plans
        assert slack_reclaim(g, out, D, platform, targets, bounds).plans == out.plans

    def test_unequal_copies_rejected(self, platform):
        g = chain([1.0, 1.0])
        sched = Schedule(list_schedule(g, 1), {0: ExecutionPlan(1.0), 1: ExecutionPlan(0.3, 0.4)})
        with pytest.raises(ValueError):
            slack_reclaim(g, sched, 100.0, platform, [1], {})
        # Not a target: left alone.
        assert slack_reclaim(g, sched, 100.0, platform, [0], {}).plans[1] == ExecutionPlan(0.3, 0.4)


def _bits(state):
    """A window state's floats as hex strings, so that equality is bit for bit."""
    return [[x.hex() for x in values] for values in state]


class TestRetime:
    """``_retime`` (and the start propagation it shares) equals a fresh ``_window_state``."""

    @pytest.mark.parametrize("case", range(12))
    def test_state_equals_fresh_windows_after_every_change(self, platform, case):
        g, sched, D, _, _ = _reclaim_case(platform, case)
        order = _indexed(g, sched.mapping)[0]
        rng = random.Random(case)
        state = _window_state(g, sched, D, platform, check=False)
        f_re_ex = 0.9 * platform.f_rel / math.sqrt(2.0)
        moved_total = lft_changes = 0
        for _ in range(60):
            r = rng.randrange(len(order))
            w = g.weight(order[r])
            old = sched.plans[order[r]]
            # An accept lengthens a single run; a swap shortens a re-execution;
            # a speed a few ulps off moves the windows by less than SLACK_TOL.
            if rng.random() < 0.3:
                speed = old.speed1 * (1.0 + rng.randint(-8, 8) * sys.float_info.epsilon)
                plan = ExecutionPlan(speed, speed) if old.re_executed else ExecutionPlan(speed)
            elif old.re_executed:
                plan = rng.choice((ExecutionPlan(platform.f_rel), ExecutionPlan(1.0)))
            else:
                plan = rng.choice((ExecutionPlan(f_re_ex, f_re_ex), ExecutionPlan(rng.uniform(0.5, 1.0))))
            sched = sched.with_plan(order[r], plan)
            est_before, lft_before = state[0][:], state[2][:]
            moved = _retime(g, sched.mapping, state, r, exe_time(w, plan))
            assert _bits(state) == _bits(_window_state(g, sched, D, platform, check=False)), (case, r)
            assert sorted(moved) == [i for i, (a, b) in enumerate(zip(est_before, state[0])) if a != b]
            moved_total += len(moved)
            lft_changes += lft_before != state[2]
        assert moved_total > 0 and lft_changes > 0


def _reachable(succ, u, skip=None):
    """Positions reachable from u by one or more edges of succ, leaving out the edge ``skip``."""
    seen, stack = set(), [u]
    while stack:
        x = stack.pop()
        for y in succ[x]:
            if (x, y) != skip and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


class TestIndexedReduction:
    """``_indexed``'s edges are the augmented DAG's transitive reduction, and give its windows."""

    CASES = [(p, seed) for p in (1, 2, 4, 50) for seed in range(4)]

    @staticmethod
    def _case(p, seed):
        rng = random.Random(1000 * p + seed)
        n = rng.randint(30, 200)
        g = generate_random(n, rng.randint(n, 3 * n), seed=seed)
        mapping = list_schedule(g, p)
        succs, _, order = _augmented_dag(g, mapping)
        pos = {tid: i for i, tid in enumerate(order)}
        full = [{pos[s] for s in succs[tid]} for tid in order]
        return rng, g, mapping, full

    @pytest.mark.parametrize("p, seed", CASES)
    def test_reduction_keeps_reachability_and_no_redundant_edge(self, p, seed):
        _, g, mapping, full = self._case(p, seed)
        order, pos, succ, pred = _indexed(g, mapping)
        n = len(order)
        assert pos == {tid: i for i, tid in enumerate(order)}
        assert pred == tuple(tuple(u for u in range(n) if v in succ[u]) for v in range(n))
        for u in range(n):
            assert list(succ[u]) == sorted(succ[u]) and set(succ[u]) <= full[u]
            reach = _reachable(succ, u)
            # Every augmented edge is implied by a path of kept edges.
            assert full[u] <= reach, u
            # No kept edge is implied by another path.
            for v in succ[u]:
                assert v not in _reachable(succ, u, skip=(u, v)), (u, v)
        if p == 1:
            assert succ == tuple((i + 1,) for i in range(n - 1)) + ((),)
        else:
            assert sum(map(len, succ)) < sum(map(len, full))

    @pytest.mark.parametrize("p, seed", CASES)
    def test_windows_equal_full_edge_passes(self, platform, p, seed):
        rng, g, mapping, full = self._case(p, seed)
        order = _indexed(g, mapping)[0]
        n = len(order)
        f_re_ex = 0.9 * platform.f_rel / math.sqrt(2.0)
        plans = {
            tid: ExecutionPlan(f_re_ex, f_re_ex) if rng.random() < 0.3 else ExecutionPlan(rng.uniform(0.5, 1.0))
            for tid in order
        }
        sched = Schedule(mapping, plans)
        D = rng.uniform(1.0, 3.0) * evaluate(g, sched, math.inf, platform).makespan
        # The reference: both passes over every augmented edge.
        preds = [[u for u in range(n) if v in full[u]] for v in range(n)]
        dur = [exe_time(g.weight(tid), plans[tid]) for tid in order]
        est, finish = [], []
        for v in range(n):
            est.append(max((finish[u] for u in preds[v]), default=0.0))
            finish.append(est[v] + dur[v])
        lft = [D] * n
        for u in reversed(range(n)):
            lft[u] = min((lft[s] - dur[s] for s in full[u]), default=D)
        state = _window_state(g, sched, D, platform, check=False)
        assert _bits(state) == _bits([est, finish, lft, dur])


class TestAugmentedDag:
    def test_one_best_solve_builds_it_once(self, platform):
        g = generate_random(30, 60, seed=5)
        mapping = list_schedule(g, 4)
        D = 2.0 * min_deadline(g, mapping, platform)
        _augmented_dag.cache_clear()
        _indexed.cache_clear()
        run(HeuristicKind.BEST, g, mapping, D, platform)
        dag, indexed = _augmented_dag.cache_info(), _indexed.cache_info()
        assert dag.misses == 1 and indexed.misses == 1 and dag.hits + indexed.hits > 100


class TestFormat:
    def test_format_lists_every_task(self):
        g = chain([1.0, 1.0])
        sched = Schedule(
            list_schedule(g, 1), {0: ExecutionPlan(1.0), 1: ExecutionPlan(0.5, 0.5)}
        )
        text = format_schedule(g, sched)
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split()[0] == "1" and len(lines[1].split()) == 5
