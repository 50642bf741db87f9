"""Mappings, schedule evaluation, critical paths, super-weight order, slack reclaim."""

import dataclasses
import math
import operator
import pickle
import random
import sys

import pytest

from conftest import make_platform
from trisched.graph import TaskGraph, bottom_levels, chain, fork, fork_identical, generate_random
from trisched.heuristics import HeuristicKind, min_deadline, run
from trisched.model import SLACK_TOL, ExecutionPlan, Task, energy, exe_time, f_inf
from trisched import schedule as schedule_module
from trisched.schedule import (
    Mapping,
    Schedule,
    _backward,
    _forward,
    _indexed,
    _push_starts,
    _retime,
    _window_state,
    cohort_of,
    critical_path_tasks,
    evaluate,
    format_schedule,
    list_schedule,
    schedule_energy,
    slack_reclaim,
    sus_sort,
    swap_reclaims,
    uniform_schedule,
)
from trisched.vdd import vdd_schedule_convert


def _state(g, mapping, start_times, finish_times):
    """A hand-built window state: id-keyed times laid out by position in ``_indexed``.

    Its durations are finish minus start; it has no latest finishes, which
    neither ``critical_path_tasks`` nor ``sus_sort`` reads.
    """
    order = _indexed(g, mapping)[0]
    est = [start_times[tid] for tid in order]
    finish = [finish_times[tid] for tid in order]
    return [est, finish, None, [f - s for s, f in zip(est, finish)]]


def _unjam_state(g, schedule):
    """``swap_reclaims``' state of ``schedule``, as its docstring lays it out: ``(speeds, redone, dur)``."""
    order, _, _, _, _, weights = _indexed(g, schedule.mapping)
    plans = [schedule.plans[tid] for tid in order]
    return [plan.speed1 for plan in plans], [plan.re_executed for plan in plans], list(map(exe_time, weights, plans))


def _super_weight(g, start, finish, tid):
    """The super-weight by its definition, on id-keyed times.

    The weight of the tasks running inside tid's interval, itself included,
    within SLACK_TOL, added in ``g.tasks`` order.
    """
    lo, hi = start[tid] - SLACK_TOL, finish[tid] + SLACK_TOL
    total = 0.0
    for t in g.tasks:
        if start[t.id] >= lo and finish[t.id] <= hi:
            total += t.weight
    return total


def _sus_reference(g, start, finish, task_ids):
    """``sus_sort``'s order from ``_super_weight``: decreasing super-weight, then weight, then id."""
    sw = {tid: _super_weight(g, start, finish, tid) for tid in task_ids}
    return sorted(task_ids, key=lambda tid: (-sw[tid], -g.weight(tid), tid))


def _critical_reference(g, sched, metrics):
    """The critical tasks from evaluate's metrics, by bottom levels over every augmented edge.

    A task is critical when its start plus its bottom level reaches the
    makespan within SLACK_TOL; in topological order.
    """
    succs, _, order = _full_dag(g, sched.mapping)
    bot = {}
    for tid in reversed(order):
        bot[tid] = exe_time(g.weight(tid), sched.plans[tid]) + max((bot[s] for s in succs[tid]), default=0.0)
    return [tid for tid in order if metrics.start_times[tid] + bot[tid] >= metrics.makespan - SLACK_TOL]


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

    def test_hashes_once_as_the_dataclass_would(self):
        mapping = list_schedule(generate_random(30, 60, seed=2), 4)
        fields = mapping.proc_lists
        for other in (Mapping(fields), pickle.loads(pickle.dumps(mapping)), dataclasses.replace(mapping)):
            assert other == mapping and hash(other) == hash(mapping) == hash((fields,))
            assert repr(other) == f"Mapping(proc_lists={fields!r})"
        moved = Mapping((fields[1], fields[0], *fields[2:]))
        assert moved != mapping and hash(moved) == hash((moved.proc_lists,))

    def test_missing_plan_named(self, platform):
        g = chain([1.0, 2.0, 3.0])
        sched = Schedule(list_schedule(g, 1), {0: ExecutionPlan(1.0), 1: ExecutionPlan(1.0)})
        with pytest.raises(ValueError, match="task 2"):
            evaluate(g, sched, 10.0, platform)


def _list_schedule_scan(g, p):
    """``list_schedule`` by its definition: a scan of every ready task and every processor per step."""
    bl = bottom_levels(g)
    indeg = {t.id: len(g.predecessors(t.id)) for t in g.tasks}
    pred_finish = {t.id: 0.0 for t in g.tasks}
    ready = [tid for tid, d in indeg.items() if d == 0]
    avail = [0.0] * p
    lists = [[] for _ in range(p)]
    for _ in range(len(g)):
        tid = max(ready, key=lambda t: (bl[t], -t))
        ready.remove(tid)
        proc = min(range(p), key=lambda q: (avail[q], q))
        finish = max(avail[proc], pred_finish[tid]) + g.weight(tid)
        avail[proc] = finish
        lists[proc].append(tid)
        for s in g.successors(tid):
            indeg[s] -= 1
            pred_finish[s] = max(pred_finish[s], finish)
            if indeg[s] == 0:
                ready.append(s)
    return Mapping(tuple(tuple(lst) for lst in lists))


class TestListSchedule:
    @pytest.mark.parametrize("p", [1, 2, 4, 50])
    def test_heaps_equal_the_scan(self, p):
        graphs = [generate_random(n, m, seed=seed) for n, m in ((1, 0), (30, 60), (100, 300)) for seed in range(4)]
        # Ties: equal weights, and equal bottom levels.
        graphs += [generate_random(40, 80, weight_range=(2.0, 2.0), seed=seed) for seed in range(3)]
        graphs += [generate_random(60, 0, weight_range=(1.0, 1.0)), chain([1.0] * 12), chain([3.0, 1.0, 3.0]),
                   fork(2.0, [1.0, 3.0, 1.0, 3.0]), fork_identical(9, 1.5), fork_identical(1, 1.0)]
        ties = 0
        for g in graphs:
            assert list_schedule(g, p) == _list_schedule_scan(g, p)
            ties += len(set(bottom_levels(g).values())) < len(g)
        assert ties >= 6

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

    def test_time_windows_exist_feasible_or_not(self, platform):
        g = chain([1.0, 2.0])
        mapping = list_schedule(g, 1)
        sched = uniform_schedule(g, mapping, 1.0)
        assert _indexed(g, mapping)[0] == (0, 1)
        assert _window_state(g, sched, 10.0) == [[0.0, 1.0], [1.0, 3.0], [8.0, 10.0], [1.0, 2.0]]
        for D, plan, feasible in (
            (2.5, ExecutionPlan(1.0), False),  # past the deadline
            (10.0, ExecutionPlan(0.9 * platform.f_rel), False),  # reliability shortfall
            (10.0, ExecutionPlan(0.5, 0.5), False),  # speed fault
            (12.0, ExecutionPlan(0.4, 0.4), True),
        ):
            candidate = sched.with_plan(1, plan)
            metrics = evaluate(g, candidate, D, platform)
            assert metrics.feasible == feasible
            est, finish, lft, dur = _window_state(g, candidate, D)
            assert (est, finish, lft[-1]) == ([0.0, 1.0], [1.0, 1.0 + dur[1]], D)
            assert metrics.finish_times == {0: finish[0], 1: finish[1]}

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
    def test_chain_everything_critical(self):
        g = chain([1.0, 2.0])
        mapping = list_schedule(g, 1)
        state = _state(g, mapping, {0: 0.0, 1: 1.0}, {0: 1.0, 1: 3.0})
        assert sorted(critical_path_tasks(g, mapping, state)) == [0, 1]

    def test_symmetric_fork_all_critical(self):
        g = fork(1.0, [1.0, 1.0])
        mapping = list_schedule(g, 3)
        state = _state(g, mapping, {0: 0.0, 1: 1.0, 2: 1.0}, {0: 1.0, 1: 2.0, 2: 2.0})
        assert sorted(critical_path_tasks(g, mapping, state)) == [0, 1, 2]

    def test_asymmetric_fork(self):
        g = fork(1.0, [5.0, 1.0])
        mapping = list_schedule(g, 3)
        state = _state(g, mapping, {0: 0.0, 1: 1.0, 2: 1.0}, {0: 1.0, 1: 6.0, 2: 2.0})
        assert sorted(critical_path_tasks(g, mapping, state)) == [0, 1]  # source + heavy leaf

    def test_nonempty_on_any_instance(self, platform):
        g = generate_random(40, 80, seed=2)
        sched = uniform_schedule(g, list_schedule(g, 5), 1.0)
        state = _window_state(g, sched, math.inf)
        assert critical_path_tasks(g, sched.mapping, state)


class TestSuperWeight:
    """``sus_sort`` on hand-built states, against ``_super_weight``'s definition."""

    @staticmethod
    def _case(weights, start, finish):
        g = TaskGraph(tuple(Task(tid, w) for tid, w in enumerate(weights)), frozenset())
        mapping = Mapping(tuple((tid,) for tid in range(len(weights))))
        return g, mapping, _state(g, mapping, start, finish)

    def test_isolated_task_counts_itself(self):
        g, mapping, state = self._case([7.0], {0: 0.0}, {0: 3.0})
        assert _super_weight(g, {0: 0.0}, {0: 3.0}, 0) == 7.0
        assert sus_sort(g, mapping, state, [0]) == [0]
        # Task 0 stands alone (3); task 1 (weight 1) holds task 2 (1.5). Only
        # counting itself puts task 0 first: without it, 0 < 1.5 for task 1.
        start, finish = {0: 0.0, 1: 5.0, 2: 6.0}, {0: 1.0, 1: 10.0, 2: 7.0}
        g, mapping, state = self._case([3.0, 1.0, 1.5], start, finish)
        assert sus_sort(g, mapping, state, [0, 1, 2]) == [0, 1, 2]
        assert sus_sort(g, mapping, state, [2, 1, 0]) == _sus_reference(g, start, finish, [2, 1, 0])

    def test_nested_intervals_example(self):
        # interval [0,10] (w=3) contains [2,4] (w=1) and [5,6] (w=2): SW = 6
        start, finish = {0: 0.0, 1: 2.0, 2: 5.0}, {0: 10.0, 1: 4.0, 2: 6.0}
        g, mapping, state = self._case([3.0, 1.0, 2.0], start, finish)
        assert _super_weight(g, start, finish, 0) == 6.0
        assert _super_weight(g, start, finish, 1) == 1.0
        assert sus_sort(g, mapping, state, [1, 2, 0]) == _sus_reference(g, start, finish, [1, 2, 0]) == [0, 2, 1]
        assert cohort_of(g, mapping, state, 0) == [1, 2]

    def test_containment_monotonicity(self):
        start, finish = {0: 0.0, 1: 1.0, 2: 2.0}, {0: 10.0, 1: 9.0, 2: 8.0}
        g, mapping, state = self._case([1.0, 2.0, 4.0], start, finish)
        sw = [_super_weight(g, start, finish, tid) for tid in range(3)]
        assert sw[0] >= sw[1] >= sw[2]
        # The outer intervals come first although they are the lighter tasks.
        assert sus_sort(g, mapping, state, [2, 1, 0]) == [0, 1, 2]

    def test_sus_sort_order_and_ties(self):
        # disjoint unit intervals: SW = own weight; ties by weight then id
        start, finish = {0: 0.0, 1: 2.0, 2: 4.0}, {0: 1.0, 1: 3.0, 2: 5.0}
        g, mapping, state = self._case([1.0, 2.0, 2.0], start, finish)
        assert sus_sort(g, mapping, state, [0, 1, 2]) == [1, 2, 0]

    def test_intervals_within_the_tolerance_nest(self):
        # Task 1 starts SLACK_TOL / 2 before task 0 and ends SLACK_TOL / 2 after it.
        start, finish = {0: 1.0, 1: 1.0 - SLACK_TOL / 2}, {0: 2.0, 1: 2.0 + SLACK_TOL / 2}
        g, mapping, state = self._case([1.0, 1.0], start, finish)
        assert _super_weight(g, start, finish, 0) == _super_weight(g, start, finish, 1) == 2.0
        assert sus_sort(g, mapping, state, [1, 0]) == [0, 1]


class TestOrdersEqualReferences:
    """``critical_path_tasks`` and ``sus_sort`` on a window state equal their definitions on evaluate's metrics."""

    @pytest.mark.parametrize("p", (1, 4, 50))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_dags(self, platform, p, seed):
        rng = random.Random(seed)
        n = rng.randint(30, 150)
        g = generate_random(n, rng.randint(n, 3 * n), seed=seed)
        mapping = list_schedule(g, p)
        mixed = TestIndexedReduction._schedule(rng, g, mapping, platform)
        # At f_max many times are equal: ties in the order and in the nesting.
        uniform = uniform_schedule(g, mapping, platform.f_max)
        for sched, D in (mixed, (uniform, min_deadline(g, mapping, platform))):
            metrics = evaluate(g, sched, D, platform)
            state = _window_state(g, sched, D)
            critical = critical_path_tasks(g, mapping, state)
            assert critical == _critical_reference(g, sched, metrics)
            ids = [t.id for t in g.tasks]
            for task_ids in (critical, ids, rng.sample(ids, n // 2)):
                expected = _sus_reference(g, metrics.start_times, metrics.finish_times, task_ids)
                assert sus_sort(g, mapping, state, task_ids) == expected


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


def _full_dag(g, mapping):
    """The augmented DAG with every edge: id-keyed successor and predecessor sets, and its order.

    The oracle of the full-edge passes. The order is Kahn's on a stack,
    smallest id on top, and must be ``_indexed``'s.
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
    assert tuple(order) == _indexed(g, mapping)[0]
    return succs, preds, order


def _full_forward(preds, order, dur):
    """Forward pass over every augmented edge: earliest start and finish of every task, by id."""
    start, finish = {}, {}
    for tid in order:
        start[tid] = max((finish[p] for p in preds[tid]), default=0.0)
        finish[tid] = start[tid] + dur[tid]
    return start, finish


def _est_lft(succs, preds, order, dur, D):
    est, _ = _full_forward(preds, order, dur)
    lft = {}
    for tid in reversed(order):
        lft[tid] = min((lft[s] - dur[s] for s in succs[tid]), default=D)
    return est, lft


def _full_windows(g, sched, D):
    """``_window_state``'s lists by position, from both passes over every augmented edge."""
    order = _indexed(g, sched.mapping)[0]
    return _full_passes(g, sched.mapping, [exe_time(g.weight(tid), sched.plans[tid]) for tid in order], D)


def _full_passes(g, mapping, durations, D):
    """``_full_windows`` for durations given by position in ``_indexed``."""
    succs, preds, order = _full_dag(g, mapping)
    dur = dict(zip(_indexed(g, mapping)[0], durations))
    _, finish = _full_forward(preds, order, dur)
    est, lft = _est_lft(succs, preds, order, dur, D)
    return [[x[tid] for tid in order] for x in (est, finish, lft, dur)]


# Mappings whose reduction is the chain 0 -> 1 -> ... -> n - 1, as (n, p,
# graph): a chain graph, or a random DAG with 2n edges, on p processors.
CHAINS = [(1, 1, "chain"), (2, 1, "chain"), (2, 50, "chain"), (40, 50, "chain"), (60, 1, "dag"), (100, 1, "dag")]


def _chain_case(n, p, graph):
    """A seeded rng, the graph and its list-scheduled mapping of a ``CHAINS`` entry."""
    rng = random.Random(n * p)
    if graph == "chain":
        g = chain([rng.uniform(0.1, 10.0) for _ in range(n)])
    else:
        g = generate_random(n, 2 * n, seed=n)
    return rng, g, list_schedule(g, p)


def _full_recompute_reclaim(g, schedule, D, platform, targets, lower_bounds):
    """The earlier slack_reclaim, which redid both passes after every change.

    Kept verbatim as the oracle: the one-forward-pass sweep must give the
    same plans, bit for bit.
    """
    targets = set(targets)
    succs, preds, order = _full_dag(g, schedule.mapping)
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
        order, _, succ, pred, _, _ = _indexed(g, sched.mapping)
        n = len(order)
        rng = random.Random(case)
        state = _window_state(g, sched, D)
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
            moved = _push_starts(succ, pred, state[0][:], state[1][:], state[3][:], r, exe_time(w, plan), n)
            _retime(g, sched.mapping, state, r, exe_time(w, plan))
            assert _bits(state) == _bits(_window_state(g, sched, D)), (case, r)
            assert sorted(moved) == [i for i, (a, b) in enumerate(zip(est_before, state[0])) if a != b]
            moved_total += len(moved)
            lft_changes += lft_before != state[2]
        assert moved_total > 0 and lft_changes > 0

    @pytest.mark.parametrize("n, p, graph", CHAINS)
    def test_chain_state_equals_full_edge_windows_after_every_change(self, platform, n, p, graph):
        rng, g, mapping = _chain_case(n, p, graph)
        order, _, succ, pred, chain_flag, _ = _indexed(g, mapping)
        assert chain_flag
        sched, D = TestIndexedReduction._schedule(rng, g, mapping, platform)
        state = _window_state(g, sched, D)
        for _ in range(60):
            r = rng.randrange(n)
            old = sched.plans[order[r]]
            # A speed a few ulps off, or another speed; either may keep r's finish.
            if rng.random() < 0.5:
                speed = old.speed1 * (1.0 + rng.randint(-4, 4) * sys.float_info.epsilon)
            else:
                speed = rng.uniform(0.5, 1.0)
            plan = ExecutionPlan(speed, speed) if old.re_executed else ExecutionPlan(speed)
            sched = sched.with_plan(order[r], plan)
            est_before = state[0][:]
            d = exe_time(g.weight(order[r]), plan)
            moved = _push_starts(succ, pred, state[0][:], state[1][:], state[3][:], r, d, n)
            _retime(g, mapping, state, r, d)
            assert _bits(state) == _bits(_full_windows(g, sched, D)), r
            assert moved == [i for i, (a, b) in enumerate(zip(est_before, state[0])) if a != b]

    @pytest.mark.parametrize("n, p, graph", CHAINS)
    def test_chain_retime_equals_the_full_edge_passes(self, n, p, graph, platform):
        # Chain ``_retime`` writes every start above r; past the first that
        # comes out bit-equal, the rest must be bit-equal too.
        rng, g, mapping = _chain_case(n, p, graph)
        assert _indexed(g, mapping)[4]
        sched, D = TestIndexedReduction._schedule(rng, g, mapping, platform)
        base = _window_state(g, sched, D)
        stopped = 0
        for _ in range(300):
            r = rng.randrange(n)
            d = base[3][r]
            if rng.random() < 0.7:
                d *= 1.0 + rng.randint(-4, 4) * sys.float_info.epsilon
            else:
                d *= rng.uniform(0.5, 2.0)
            state = [col[:] for col in base]
            _retime(g, mapping, state, r, d)
            dur = base[3][:]
            dur[r] = d
            assert _bits(state) == _bits(_full_passes(g, mapping, dur, D)), r
            # r's finish moved, but not every start above it.
            moved = sum(a != b for a, b in zip(base[0][r + 1:], state[0][r + 1:]))
            stopped += state[1][r] != base[1][r] and moved < n - r - 1
        if n >= 40:
            assert stopped > 5


class TestChainSwapReclaims:
    @pytest.mark.parametrize("n, p, graph", CHAINS)
    def test_each_trial_equals_a_full_reclaim(self, platform, n, p, graph):
        rng, g, mapping = _chain_case(n, p, graph)
        order, pos, _, _, chain_flag, _ = _indexed(g, mapping)
        assert chain_flag
        f_re_ex = 0.9 * platform.f_rel / math.sqrt(2.0)
        trials = widened = 0
        for ratio in (1.05, 1.5, 3.0, 6.0):
            for _ in range(3):
                plans = {t.id: ExecutionPlan(f_re_ex, f_re_ex) if rng.random() < 0.4 else ExecutionPlan(1.0)
                         for t in g.tasks}
                start = Schedule(mapping, plans)
                D = ratio * evaluate(g, start, math.inf, platform).makespan
                base = slack_reclaim(g, start, D, platform, [t for t, q in plans.items() if not q.re_executed], {})
                rids = [tid for tid, plan in base.plans.items() if plan.re_executed]
                state = _unjam_state(g, base)
                rs = [pos[tid] for tid in rids]
                for rid, (e, changes) in zip(rids, swap_reclaims(g, mapping, D, platform, state, rs)):
                    speeds = {order[i]: f for i, f in changes.items()}
                    trial = base.with_plan(rid, ExecutionPlan(platform.f_rel))
                    singles = [tid for tid, plan in trial.plans.items() if not plan.re_executed]
                    expected = slack_reclaim(g, trial, D, platform, singles, {})
                    assert base.with_plans({t: ExecutionPlan(f) for t, f in speeds.items()}).plans == expected.plans
                    assert e == schedule_energy(g, expected)
                    trials += 1
                    widened += len(speeds) > 1
        if n >= 40:
            # Some swaps free slack that other single runs take up.
            assert trials > 100 and widened > 10

    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_trials_where_later_starts_turn_bit_equal(self, platform):
        # A first task near 2**53 puts every later time where a float's last
        # bit is worth 2, so shortening a task of weight 1-4 moves its finish
        # while the sums above it often round back to base's starts. The
        # deadline leaves a few units of slack, so single runs stay above
        # f_rel on both sides of r.
        f_re_ex = 0.9 * platform.f_rel / math.sqrt(2.0)
        trials = turned = widened = 0
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(5, 40)
            g = chain([2.0 ** 53 * rng.uniform(1.0, 1.5)] + [float(rng.randint(1, 4)) for _ in range(n - 1)])
            mapping = list_schedule(g, 1)
            order, pos, _, _, chain_flag, _ = _indexed(g, mapping)
            assert chain_flag
            plans = {t.id: ExecutionPlan(f_re_ex, f_re_ex) if rng.random() < 0.4 else ExecutionPlan(1.0)
                     for t in g.tasks}
            plans[order[0]] = ExecutionPlan(1.0)
            start = Schedule(mapping, plans)
            D = evaluate(g, start, math.inf, platform).makespan + rng.choice((0.0, 4.0, 16.0, 64.0))
            base = slack_reclaim(g, start, D, platform, [t for t, q in plans.items() if not q.re_executed], {})
            before = _window_state(g, base, D)
            rids = [tid for tid, plan in base.plans.items() if plan.re_executed]
            state = _unjam_state(g, base)
            for rid, (e, changes) in zip(rids, swap_reclaims(g, mapping, D, platform, state, [pos[t] for t in rids])):
                trial = base.with_plan(rid, ExecutionPlan(platform.f_rel))
                singles = [tid for tid, plan in trial.plans.items() if not plan.re_executed]
                expected = slack_reclaim(g, trial, D, platform, singles, {})
                assert base.with_plans({order[i]: ExecutionPlan(f) for i, f in changes.items()}).plans == expected.plans
                assert e == schedule_energy(g, expected)
                after = _window_state(g, trial, D)
                r = pos[rid]
                trials += 1
                turned += after[1][r] != before[1][r] and any(map(operator.eq, after[0][r + 1:], before[0][r + 1:]))
                widened += len(changes) > 1
        assert trials > 100 and turned > 10 and widened > 50, (trials, turned, widened)


# The general-DAG kernels as they took their max and min before the inline
# scans: a list comprehension handed to the builtin. Reference code; the scans
# must give the same floats, bit for bit.


def _forward_listcomp(pred, dur):
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


def _backward_listcomp(succ, dur, D):
    lft = [D] * len(dur)
    for i in reversed(range(len(dur))):
        ss = succ[i]
        if len(ss) == 1:
            s = ss[0]
            lft[i] = lft[s] - dur[s]
        elif ss:
            lft[i] = min([lft[s] - dur[s] for s in ss])
    return lft


def _push_starts_listcomp(succ, pred, est, finish, dur, r, d, end):
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
    for v in range(r + 1, end):
        if not left:
            break
        if not queued[v]:
            continue
        left -= 1
        ps = pred[v]
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


def _retime_listcomp(succ, pred, state, r, d):
    est, finish, lft, dur = state
    moved = _push_starts_listcomp(succ, pred, est, finish, dur, r, d, len(est))
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
        ss = succ[u]
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


def _slowed_listcomp(w, plan, window, floor):
    if window <= 0.0:
        return None
    needed = 2.0 * w / window if plan.re_executed else w / window
    new_speed = max(floor, needed)
    if new_speed < plan.speed1 - SLACK_TOL:
        return ExecutionPlan(new_speed, new_speed) if plan.re_executed else ExecutionPlan(new_speed)
    return None


def _slack_reclaim_listcomp(g, schedule, D, platform, targets, lower_bounds):
    targets = set(targets)
    order, _, succ, pred, _, weights = _indexed(g, schedule.mapping)
    plans = dict(schedule.plans)
    dur = [exe_time(w, plans[tid]) for w, tid in zip(weights, order)]
    est, _ = _forward_listcomp(pred, dur)
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
        slowed = _slowed_listcomp(weights[i], plans[tid], lft[i] - est[i], lower_bounds.get(tid, platform.f_rel))
        if slowed is not None:
            plans[tid] = slowed
            dur[i] = exe_time(weights[i], slowed)
    return Schedule(schedule.mapping, plans)


def _swap_reclaims_listcomp(g, base, D, platform, tids):
    """``swap_reclaims``' general loop, rebuilding its base from a ``Schedule``; speeds keyed by task id."""
    order, pos, succ, pred, _, weights = _indexed(g, base.mapping)
    n = len(order)
    plans = [base.plans[tid] for tid in order]
    dur = [exe_time(w, plan) for w, plan in zip(weights, plans)]
    est, finish = _forward_listcomp(pred, dur)
    lft = _backward_listcomp(succ, dur, D)
    energies = [energy(w, plan) for w, plan in zip(weights, plans)]
    prefix = [0.0]
    for e in energies:
        prefix.append(prefix[-1] + e)
    f_rel = platform.f_rel
    slow = [not plan.re_executed and plan.speed1 - SLACK_TOL > f_rel for plan in plans]
    span = [i for i, s in enumerate(slow) if s]
    low, hi = (span[0], span[-1]) if span else (n, -1)
    for r in map(pos.__getitem__, tids):
        t_dur, t_est, t_finish, t_lft = dur[:], est[:], finish[:], lft[:]
        decide = _push_starts_listcomp(succ, pred, t_est, t_finish, t_dur, r, weights[r] / f_rel, hi + 1)
        changes = {r: f_rel}
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
            else:
                lf = min([t_lft[s] - t_dur[s] for s in ss], default=D)
            moved = lf != lft[u]
            t_lft[u] = lf
            if slow[u] and (moved or q == 2):
                window = lf - t_est[u]
                if window > 0.0:
                    f = max(f_rel, weights[u] / window)
                    if f < plans[u].speed1 - SLACK_TOL:
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
        yield total, {order[i]: f for i, f in changes.items()}


def _integer_case(platform, seed, p):
    """A random DAG with weights 1-4 on p processors, plans at speeds 1, 1/2 or (1/2, 1/2), and a deadline.

    Integer weights and power-of-two speeds make exact ties in the
    kernels' max and min common.
    """
    rng = random.Random(seed)
    n = rng.randint(30, 80)
    g0 = generate_random(n, rng.randint(n, 3 * n), seed=seed)
    g = TaskGraph(tuple(Task(t.id, float(rng.randint(1, 4))) for t in g0.tasks), g0.edges)
    plans = {t.id: rng.choice((ExecutionPlan(1.0), ExecutionPlan(0.5), ExecutionPlan(0.5, 0.5))) for t in g.tasks}
    sched = Schedule(list_schedule(g, p), plans)
    D = rng.choice((1.0, 1.2, 2.0, 5.0)) * evaluate(g, sched, math.inf, platform).makespan
    return rng, g, sched, D


INTEGER_CASES = [(seed, p) for p in (1, 4, 50) for seed in range(6)]


class TestInlineScansEqualListComprehensions:
    """The kernels' inline max and min scans give the builtins' floats, on reductions rich in ties."""

    def test_forward_and_backward(self, platform):
        ties = 0
        for seed, p in INTEGER_CASES:
            _, g, sched, D = _integer_case(platform, seed, p)
            order, _, succ, pred, _, weights = _indexed(g, sched.mapping)
            dur = [exe_time(w, sched.plans[tid]) for w, tid in zip(weights, order)]
            est, finish = _forward(pred, dur, False)
            lft = _backward(succ, dur, D, False)
            assert _bits([est, finish]) == _bits(_forward_listcomp(pred, dur)), (seed, p)
            assert _bits([lft]) == _bits([_backward_listcomp(succ, dur, D)]), (seed, p)
            # Positions whose max (or min) is taken by two or more equal terms.
            ties += sum(sorted(finish[q] for q in ps)[-2:] == [s] * 2 for s, ps in zip(est, pred) if len(ps) > 1)
            ties += sum(sorted(lft[q] - dur[q] for q in ss)[:2] == [lf] * 2 for lf, ss in zip(lft, succ) if len(ss) > 1)
        assert ties > 20, ties

    @pytest.mark.parametrize("seed, p", INTEGER_CASES)
    def test_push_starts_and_retime(self, platform, seed, p):
        rng, g, sched, D = _integer_case(platform, seed, p)
        order, _, succ, pred, _, weights = _indexed(g, sched.mapping)
        n = len(order)
        state = _window_state(g, sched, D)
        reference = [col[:] for col in state]
        clipped = 0
        for _ in range(40):
            r = rng.randrange(n)
            d = weights[r] / rng.choice((1.0, 0.5, 0.25))
            end = rng.randint(r + 1, n)
            pushed = []
            for push in (_push_starts, _push_starts_listcomp):
                est, finish, dur = state[0][:], state[1][:], state[3][:]
                moved = push(succ, pred, est, finish, dur, r, d, end)
                pushed.append((moved, _bits([est, finish, dur])))
            assert pushed[0] == pushed[1], (r, end)
            clipped += end < n
            moved = _push_starts(succ, pred, state[0][:], state[1][:], state[3][:], r, d, n)
            _retime(g, sched.mapping, state, r, d)
            assert moved == _retime_listcomp(succ, pred, reference, r, d), r
            assert _bits(state) == _bits(reference), r
        assert clipped > 5

    @pytest.mark.parametrize("seed, p", INTEGER_CASES)
    def test_slack_reclaim(self, platform, seed, p):
        rng, g, sched, D = _integer_case(platform, seed, p)
        ids = [t.id for t in g.tasks]
        targets = rng.sample(ids, rng.randint(len(ids) // 4, len(ids)))
        bounds = {tid: f_inf(g.weight(tid), platform) for tid in targets if rng.random() < 0.3}
        out = slack_reclaim(g, sched, D, platform, targets, bounds)
        expected = _slack_reclaim_listcomp(g, sched, D, platform, targets, bounds)
        assert {t: (q.speed1.hex(), q.speed2 and q.speed2.hex()) for t, q in out.plans.items()} == {
            t: (q.speed1.hex(), q.speed2 and q.speed2.hex()) for t, q in expected.plans.items()}

    @pytest.mark.parametrize("seed, p", INTEGER_CASES)
    def test_swap_reclaims(self, platform, seed, p):
        _, g, sched, D = _integer_case(platform, seed, p)
        order, pos, _, _, _, _ = _indexed(g, sched.mapping)
        base = slack_reclaim(g, sched, D, platform, [t for t, q in sched.plans.items() if not q.re_executed], {})
        rids = [tid for tid, plan in base.plans.items() if plan.re_executed]
        out = swap_reclaims(g, base.mapping, D, platform, _unjam_state(g, base), [pos[tid] for tid in rids])
        expected = _swap_reclaims_listcomp(g, base, D, platform, rids)
        trials = 0
        for (e, changes), (e_ref, speeds_ref) in zip(out, expected, strict=True):
            assert e.hex() == e_ref.hex()
            assert {order[i]: f.hex() for i, f in changes.items()} == {t: f.hex() for t, f in speeds_ref.items()}
            trials += 1
        assert trials == len(rids)


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
        succs, _, order = _full_dag(g, mapping)
        pos = {tid: i for i, tid in enumerate(order)}
        full = [{pos[s] for s in succs[tid]} for tid in order]
        return rng, g, mapping, full

    @staticmethod
    def _schedule(rng, g, mapping, platform):
        """A schedule of random single runs and re-executions, and a deadline above its makespan."""
        f_re_ex = 0.9 * platform.f_rel / math.sqrt(2.0)
        plans = {
            tid: ExecutionPlan(f_re_ex, f_re_ex) if rng.random() < 0.3 else ExecutionPlan(rng.uniform(0.5, 1.0))
            for tid in _indexed(g, mapping)[0]
        }
        sched = Schedule(mapping, plans)
        return sched, rng.uniform(1.0, 3.0) * evaluate(g, sched, math.inf, platform).makespan

    @pytest.mark.parametrize("p, seed", CASES)
    def test_reduction_keeps_reachability_and_no_redundant_edge(self, p, seed):
        _, g, mapping, full = self._case(p, seed)
        order, pos, succ, pred, chain_flag, weights = _indexed(g, mapping)
        n = len(order)
        assert pos == {tid: i for i, tid in enumerate(order)}
        assert weights == tuple(g.weight(tid) for tid in order)
        # The chain flag: set at one processor, not on these DAGs at more.
        assert chain_flag is (p == 1)
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
        sched, D = self._schedule(rng, g, mapping, platform)
        # The reference: both passes over every augmented edge.
        preds = [[u for u in range(n) if v in full[u]] for v in range(n)]
        dur = [exe_time(g.weight(tid), sched.plans[tid]) for tid in order]
        est, finish = [], []
        for v in range(n):
            est.append(max((finish[u] for u in preds[v]), default=0.0))
            finish.append(est[v] + dur[v])
        lft = [D] * n
        for u in reversed(range(n)):
            lft[u] = min((lft[s] - dur[s] for s in full[u]), default=D)
        state = _window_state(g, sched, D)
        assert _bits(state) == _bits([est, finish, lft, dur])

    @pytest.mark.parametrize("n, p, graph", CHAINS)
    def test_chain_passes_equal_full_edge_passes(self, platform, n, p, graph):
        rng, g, mapping = _chain_case(n, p, graph)
        order, _, succ, pred, chain_flag, _ = _indexed(g, mapping)
        assert chain_flag and succ == tuple((i + 1,) for i in range(n - 1)) + ((),)
        sched, D = self._schedule(rng, g, mapping, platform)
        state = _window_state(g, sched, D)
        assert _bits(state) == _bits(_full_windows(g, sched, D))
        # The running sums against the general loops on the same edges.
        dur = state[3]
        assert _bits(_forward(pred, dur, True)) == _bits(_forward(pred, dur, False))
        assert _bits([_backward(succ, dur, D, True)]) == _bits([_backward(succ, dur, D, False)])
        metrics = evaluate(g, sched, D, platform)
        assert [metrics.start_times[tid].hex() for tid in order] == [x.hex() for x in state[0]]
        assert metrics.makespan.hex() == max(state[1]).hex()

    @pytest.mark.parametrize("p, seed", CASES)
    def test_evaluate_critical_paths_and_vdd_equal_full_edge_passes(self, platform, p, seed):
        rng, g, mapping, _ = self._case(p, seed)
        succs, preds, order = _full_dag(g, mapping)
        sched, D = self._schedule(rng, g, mapping, platform)
        dur = {tid: exe_time(g.weight(tid), sched.plans[tid]) for tid in order}
        start, finish = _full_forward(preds, order, dur)
        metrics = evaluate(g, sched, D, platform)
        assert {t: x.hex() for t, x in metrics.start_times.items()} == {t: x.hex() for t, x in start.items()}
        assert {t: x.hex() for t, x in metrics.finish_times.items()} == {t: x.hex() for t, x in finish.items()}
        assert metrics.makespan.hex() == max(finish.values()).hex()
        # Latest finishes against the makespan over every augmented edge.
        _, lft = _est_lft(succs, preds, order, dur, metrics.makespan)
        critical = [tid for tid in order if lft[tid] - dur[tid] <= start[tid] + SLACK_TOL]
        state = _window_state(g, sched, D)
        assert critical_path_tasks(g, mapping, state) == critical
        result = vdd_schedule_convert(g, sched, (0.2, 0.4, 0.6, 0.8, 1.0), D, platform)
        _, vdd_finish = _full_forward(preds, order, {tid: sum(q.time for q in result.plans[tid]) for tid in order})
        assert result.makespan.hex() == max(vdd_finish.values()).hex()


class TestAugmentedDag:
    def test_one_best_solve_builds_it_once(self, platform, monkeypatch):
        g = generate_random(30, 60, seed=5)
        mapping = list_schedule(g, 4)
        D = 2.0 * min_deadline(g, mapping, platform)
        # An equal graph built afresh, whose memo is empty.
        g = TaskGraph(g.tasks, g.edges)
        builds = []
        build = schedule_module._build_indexed
        monkeypatch.setattr(schedule_module, "_build_indexed", lambda *args: builds.append(args) or build(*args))
        first, _ = run(HeuristicKind.BEST, g, mapping, D, platform)
        assert builds == [(g, mapping)]
        again, _ = run(HeuristicKind.BEST, g, mapping, D, platform)
        assert len(builds) == 1 and again.plans == first.plans

    def test_a_solve_on_an_equal_graph_never_compares_graphs(self, platform, monkeypatch):
        g = generate_random(100, 300, seed=5)
        mapping = list_schedule(g, 1)
        D = 5.0 * min_deadline(g, mapping, platform)
        expected, _ = run(HeuristicKind.BEST, g, mapping, D, platform)
        copy = TaskGraph(g.tasks, g.edges)
        assert copy == g and copy is not g

        def compared(self, other):
            raise AssertionError("two graphs compared")

        monkeypatch.setattr(TaskGraph, "__eq__", compared)
        out, _ = run(HeuristicKind.BEST, copy, mapping, D, platform)
        assert out.plans == expected.plans


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


def _cohort_scan(g, mapping, state, tid):
    """``cohort_of`` by its definition: every task of ``g.tasks``, scanned."""
    pos = _indexed(g, mapping)[1]
    est, finish = state[0], state[1]
    lo, hi = est[pos[tid]] - SLACK_TOL, finish[pos[tid]] + SLACK_TOL
    return [t.id for t in g.tasks if t.id != tid and est[pos[t.id]] >= lo and finish[pos[t.id]] <= hi]


class TestChainCohort:
    """On a chain ``cohort_of`` bisects, and finds the scan's cohort, in ``g.tasks`` order."""

    @staticmethod
    def _chain(rng, seed, n):
        """A random DAG on one processor, its tasks listed in shuffled order: ids, positions and list order differ."""
        g0 = generate_random(n, rng.randint(0, n * (n - 1) // 4), seed=seed)
        tasks = list(g0.tasks)
        rng.shuffle(tasks)
        g = TaskGraph(tuple(tasks), g0.edges)
        mapping = list_schedule(g, 1)
        assert _indexed(g, mapping)[4]
        return g, mapping

    def test_equals_the_scan_with_ties_at_slack_tol(self):
        # Chain times from breakpoints b: position i starts at b[i] and
        # finishes at b[i + 1]. Around one anchor position, breakpoints at its
        # lo = start - SLACK_TOL and hi = finish + SLACK_TOL exactly, and one
        # float either side, so tasks start exactly at lo or finish exactly
        # at hi; short gaps make cohorts of several tasks.
        ties = several = 0
        for seed in range(60):
            rng = random.Random(seed)
            b = sorted(rng.choice((0.0, 1.0, 2.5)) + rng.choice((0.0, 0.25, 0.5)) * SLACK_TOL
                       for _ in range(rng.randint(2, 12)))
            a = rng.randrange(len(b) - 1)
            lo, hi = b[a] - SLACK_TOL, b[a + 1] + SLACK_TOL
            b = sorted(b + [lo, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf),
                            hi, math.nextafter(hi, -math.inf), math.nextafter(hi, math.inf)])
            n = len(b) - 1
            g, mapping = self._chain(rng, seed, n)
            order = _indexed(g, mapping)[0]
            est, finish = b[:-1], b[1:]
            state = [est, finish, finish[:], [f - s for s, f in zip(est, finish)]]
            for tid in order:
                out = cohort_of(g, mapping, state, tid)
                assert out == _cohort_scan(g, mapping, state, tid), (seed, tid)
                several += len(out) > 1
            ties += lo in est and hi in finish
        assert ties == 60 and several > 100, (ties, several)

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_scan_on_window_states(self, platform, seed):
        # Integer weights at speeds 1, 1/2 and (1/2, 1/2) make equal times.
        _, g, sched, D = _integer_case(platform, seed, 1)
        tasks = list(g.tasks)
        random.Random(seed).shuffle(tasks)
        g = TaskGraph(tuple(tasks), g.edges)
        assert _indexed(g, sched.mapping)[4]
        state = _window_state(g, sched, D)
        for t in g.tasks:
            assert cohort_of(g, sched.mapping, state, t.id) == _cohort_scan(g, sched.mapping, state, t.id)


class TestChainSusSort:
    """On a chain ``sus_sort`` bisects a position range, and adds its weights in ``g.tasks`` order, as the scan does."""

    def test_equals_the_scan_with_ties_at_slack_tol(self):
        # TestChainCohort's breakpoints, around one anchor at its lo and hi
        # exactly and one float either side; weights 1-3 and 1e-16, whose
        # sums depend on the order of the additions and often tie.
        ties = several = 0
        for seed in range(60):
            rng = random.Random(seed)
            b = sorted(rng.choice((0.0, 1.0, 2.5)) + rng.choice((0.0, 0.25, 0.5)) * SLACK_TOL
                       for _ in range(rng.randint(2, 12)))
            a = rng.randrange(len(b) - 1)
            lo, hi = b[a] - SLACK_TOL, b[a + 1] + SLACK_TOL
            b = sorted(b + [lo, math.nextafter(lo, -math.inf), math.nextafter(lo, math.inf),
                            hi, math.nextafter(hi, -math.inf), math.nextafter(hi, math.inf)])
            n = len(b) - 1
            g0, _ = TestChainCohort._chain(rng, seed, n)
            g = TaskGraph(tuple(Task(t.id, rng.choice((1.0, 2.0, 3.0, 1e-16))) for t in g0.tasks), g0.edges)
            mapping = list_schedule(g, 1)
            order, _, _, _, chain_flag, _ = _indexed(g, mapping)
            assert chain_flag
            est, finish = b[:-1], b[1:]
            state = [est, finish, finish[:], [f - s for s, f in zip(est, finish)]]
            ids = list(order)
            rng.shuffle(ids)
            start_of, finish_of = dict(zip(order, est)), dict(zip(order, finish))
            assert sus_sort(g, mapping, state, ids) == _sus_reference(g, start_of, finish_of, ids), seed
            assert sus_sort(g, mapping, state, ids[:3]) == _sus_reference(g, start_of, finish_of, ids[:3]), seed
            ties += lo in est and hi in finish
            several += sum(len(cohort_of(g, mapping, state, tid)) > 1 for tid in order)
        assert ties == 60 and several > 100, (ties, several)
