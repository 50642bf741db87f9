"""The seven scheduling heuristics, the best-of selector, and the probe."""

import collections
import concurrent.futures
import math
import random
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_platform, random_instance
from trisched.graph import TaskGraph, chain, generate_random
from test_schedule import _critical_reference, _reclaim_case, _sus_reference, _unjam_state
from trisched import heuristics
from trisched.heuristics import (
    _PHASES,
    ALL_HEURISTICS,
    TYPE_A,
    TYPE_B,
    DerivedSpeeds,
    HeuristicKind,
    _critical_order,
    _schedule,
    _singles_order,
    _slow_group,
    _State,
    _tail,
    derived_speeds,
    feasibility_probe,
    min_deadline,
    run,
)
from trisched.model import SLACK_TOL, ExecutionPlan, ModelValidityWarning, Task, exe_time, f_inf, reexec_speed
from trisched.schedule import (
    Schedule,
    _indexed,
    _thresholds,
    _window_state,
    cohort_of,
    critical_path_tasks,
    evaluate,
    list_schedule,
    schedule_energy,
    slack_reclaim,
    sus_sort,
    swap_reclaims,
    task_feasible,
    uniform_schedule,
)


def _reexecuted(schedule):
    return [tid for tid, plan in schedule.plans.items() if plan.re_executed]


def _singles(schedule):
    return [tid for tid, plan in schedule.plans.items() if not plan.re_executed]


def _state_of(g, schedule, D, platform):
    """A solve state of ``schedule`` by its definition: fresh windows, evaluate's verdict and no dead task."""
    plans = [schedule.plans[tid] for tid in _indexed(g, schedule.mapping)[0]]
    return _State(schedule.mapping, _window_state(g, schedule, D),
                  [plan.speed1 for plan in plans], [plan.re_executed for plan in plans],
                  evaluate(g, schedule, D, platform).feasible, set())


def assert_reexec_speed_window(g, sched, platform):
    """Re-executed tasks use one common speed inside [f_inf(w), f_rel/sqrt(2))."""
    hi = platform.f_rel / math.sqrt(2.0)
    for t in g.tasks:
        plan = sched.plans[t.id]
        if plan.re_executed:
            assert plan.speed1 == plan.speed2
            assert plan.speed1 >= f_inf(t.weight, platform) - 1e-9
            assert plan.speed1 < hi + 1e-9


class TestDerivedSpeeds:
    def test_f_dec_and_f_re_ex(self, platform):
        g = chain([1.0, 1.0])
        mapping = list_schedule(g, 1)
        ds = derived_speeds(g, mapping, 3.0, platform)
        assert ds.f_dec == pytest.approx(2.0 / 3.0, rel=1e-12)  # f_rel floor binds
        assert ds.f_re_ex == pytest.approx(reexec_speed(platform), rel=1e-12)
        tight = derived_speeds(g, mapping, 2.5, platform)
        assert tight.f_dec == pytest.approx(2.0 / 2.5, rel=1e-12)  # deadline binds

    def test_tail_memo_leaves_equality_hash_and_repr_alone(self, platform):
        g, start, D, _ = next(_type_b_starts(platform, 0))
        speeds = derived_speeds(g, start.mapping, D, platform)
        fresh = DerivedSpeeds(speeds.f_dec, speeds.f_re_ex)
        run(HeuristicKind.B_GREEDY, g, start.mapping, D, platform, speeds=speeds)
        assert speeds._tails and not fresh._tails
        assert speeds == fresh
        assert hash(speeds) == hash(fresh) == hash((speeds.f_dec, speeds.f_re_ex))
        expected = f"DerivedSpeeds(f_dec={speeds.f_dec!r}, f_re_ex={speeds.f_re_ex!r})"
        assert repr(speeds) == repr(fresh) == expected

    def test_min_deadline_is_full_speed_makespan(self, platform):
        g = chain([1.0, 2.0])
        assert min_deadline(g, list_schedule(g, 1), platform) == pytest.approx(3.0)

    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_min_deadline_equals_evaluates_makespan_bit_for_bit(self):
        cases = 0
        for seed in range(12):
            rng = random.Random(seed)
            n = rng.randint(1, 120)
            g = generate_random(n, rng.randint(0, 3 * n), weight_range=rng.choice(((0.1, 10.0), (1.0, 1e6))),
                                seed=seed)
            for p in (1, 2, 4, 50):
                for f_max in (1.0, 0.7, 3.0):
                    platform = make_platform(f_max=f_max)
                    mapping = list_schedule(g, p)
                    full = evaluate(g, uniform_schedule(g, mapping, f_max), math.inf, platform).makespan
                    assert min_deadline(g, mapping, platform).hex() == full.hex(), (seed, p, f_max)
                    # A platform whose f_max is a third of this one's, with f_rel below it.
                    slower = make_platform(f_max=f_max / 3)
                    slow = evaluate(g, uniform_schedule(g, mapping, f_max / 3), math.inf, slower).makespan
                    assert min_deadline(g, mapping, slower).hex() == slow.hex(), (seed, p, f_max)
                    cases += 1
        assert cases == 144


class TestFeasibilityProbe:
    def test_noop_on_feasible_schedule(self, platform):
        g = chain([1.0])
        sched = uniform_schedule(g, list_schedule(g, 1), 1.0)
        ok, out = feasibility_probe(g, _state_of(g, sched, 2.0, platform), 2.0, platform, 0, ExecutionPlan(1.0))
        assert ok and _schedule(g, out).plans == sched.plans

    def test_re_execution_past_deadline_rejected(self, platform):
        g = chain([1.0])
        sched = uniform_schedule(g, list_schedule(g, 1), 1.0)
        f = reexec_speed(platform)
        ok, out = feasibility_probe(g, _state_of(g, sched, 2.0, platform), 2.0, platform, 0, ExecutionPlan(f, f))
        assert not ok
        assert _schedule(g, out).plans == sched.plans

    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_re_execution_below_f_inf_rejected_on_reliability(self, platform):
        # with enough work, f_inf exceeds f_re_ex and the probe must refuse
        w = 20000.0
        assert f_inf(w, platform) > reexec_speed(platform)
        g = chain([w])
        sched = uniform_schedule(g, list_schedule(g, 1), 1.0)
        f = reexec_speed(platform)
        ok, _ = feasibility_probe(g, _state_of(g, sched, 1e9, platform), 1e9, platform, 0, ExecutionPlan(f, f))
        assert not ok

    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_verdict_equals_evaluate(self):
        # Probes of every kind against heuristic outputs and against slack-rich
        # full-speed schedules; the verdict must be evaluate's, bit for bit.
        near = {True: 0, False: 0}
        infeasible_bases = 0
        for case in range(24):
            rng = random.Random(case)
            n = rng.randint(20, 80)
            # At lambda0 = 1e-2 the heavier tasks have f_inf above f_re_ex.
            platform = make_platform(lambda0=(1e-5, 1e-2)[case % 2])
            g = generate_random(n, rng.randint(n, 2 * n), weight_range=(0.0, 100.0), seed=case)
            mapping = list_schedule(g, (1, 4, 50)[case % 3])
            D = rng.choice((1.05, 1.2, 2.0, 5.0)) * min_deadline(g, mapping, platform)
            if case % 4 == 3:
                sched = uniform_schedule(g, mapping, platform.f_max)
            else:
                sched, _ = run(rng.choice(ALL_HEURISTICS), g, mapping, D, platform)
            order = _indexed(g, mapping)[0]
            est, _, lft, _ = (dict(zip(order, values)) for values in _window_state(g, sched, D))
            f_re_ex = reexec_speed(platform)
            ids = [t.id for t in g.tasks]

            def probe(tid, plan, D=D, base=sched):
                ok, out = feasibility_probe(g, _state_of(g, base, D, platform), D, platform, tid, plan)
                candidate = base.with_plan(tid, plan)
                assert ok == evaluate(g, candidate, D, platform).feasible, (case, tid, plan)
                assert _schedule(g, out).plans == (candidate if ok else base).plans
                assert out.windows == _window_state(g, candidate if ok else base, D)
                return ok

            for _ in range(30):
                tid = rng.choice(ids)
                w = g.weight(tid)
                # Finish within 1e-12 of lft + SLACK_TOL, down to a few ulps.
                target = lft[tid] + SLACK_TOL
                target += rng.choice((0.0, rng.randint(-4, 4) * math.ulp(target), rng.uniform(-1e-12, 1e-12)))
                if target > est[tid]:
                    speed = w / (target - est[tid])
                    twice = rng.random() < 0.5
                    plan = ExecutionPlan(2.0 * speed, 2.0 * speed) if twice else ExecutionPlan(speed)
                    near[probe(tid, plan)] += 1
                f = rng.uniform(0.2, 1.2)
                probe(tid, ExecutionPlan(f))
                probe(tid, ExecutionPlan(f, f))
                probe(tid, ExecutionPlan(f_re_ex, f_re_ex))  # fails reliability when f_inf > f_re_ex
                probe(tid, ExecutionPlan(0.9 * platform.f_rel))  # single run below f_rel
                probe(tid, ExecutionPlan(1.5 * platform.f_max))  # speed fault
                hi = platform.f_rel / math.sqrt(2.0)
                probe(tid, ExecutionPlan(hi, hi))  # speed fault
                probe(tid, sched.plans[tid])
                # A current schedule that may be infeasible: past a shorter
                # deadline, or with one task slowed far past its window. On
                # an infeasible one the verdict is evaluate's for the plans
                # that do not shorten tid: its own, a re-execution at f_re_ex
                # and a slower single run.
                slowed = sched.with_plan(rng.choice(ids), ExecutionPlan(0.01))
                for D_, base in ((0.9 * D, sched), (D, slowed)):
                    own = base.plans[tid]
                    infeasible_bases += not evaluate(g, base, D_, platform).feasible
                    for plan in (own, ExecutionPlan(f_re_ex, f_re_ex), ExecutionPlan(own.speed1 / 3)):
                        if exe_time(w, plan) >= exe_time(w, own):
                            probe(tid, plan, D=D_, base=base)
        assert near[True] > 100 and near[False] > 100
        assert infeasible_bases > 1000


class TestBaselines:
    def test_hfmax_runs_everything_at_full_speed(self, platform):
        g = generate_random(20, 30, seed=1)
        mapping = list_schedule(g, 2)
        D = 2.0 * min_deadline(g, mapping, platform)
        sched, metrics = run(HeuristicKind.HFMAX, g, mapping, D, platform)
        assert metrics.feasible
        assert all(p.speed1 == platform.f_max and not p.re_executed for p in sched.plans.values())

    def test_hno_reex_runs_everything_at_f_dec(self, platform):
        g = generate_random(20, 30, seed=1)
        mapping = list_schedule(g, 2)
        D = 1.2 * min_deadline(g, mapping, platform)
        ds = derived_speeds(g, mapping, D, platform)
        sched, metrics = run(HeuristicKind.HNO_REEX, g, mapping, D, platform)
        assert metrics.feasible
        assert all(p.speed1 == pytest.approx(ds.f_dec) for p in sched.plans.values())

    def test_energy_ratio_identity(self, platform):
        rng = random.Random(3)
        for _ in range(10):
            g = random_instance(rng, max_nodes=40)
            p = rng.choice([1, 2, 5])
            mapping = list_schedule(g, p)
            D = rng.uniform(1.0, 8.0) * min_deadline(g, mapping, platform)
            ds = derived_speeds(g, mapping, D, platform)
            _, hi = run(HeuristicKind.HFMAX, g, mapping, D, platform)
            _, lo = run(HeuristicKind.HNO_REEX, g, mapping, D, platform)
            assert hi.energy / lo.energy == pytest.approx(
                (platform.f_max / ds.f_dec) ** 2, rel=1e-9
            )

    def test_infeasible_deadline_reported(self, platform):
        g = chain([1.0, 1.0])
        mapping = list_schedule(g, 1)
        for kind in ALL_HEURISTICS:
            _, metrics = run(kind, g, mapping, 1.0, platform)  # Dmin = 2
            assert not metrics.feasible

    def test_deadline_below_minimum_runs_no_phase_and_no_tail(self, platform, monkeypatch):
        g = generate_random(30, 60, seed=1)
        mapping = list_schedule(g, 4)
        D = 0.9 * min_deadline(g, mapping, platform)

        def ran(*args):
            raise AssertionError("a phase or the tail ran")

        monkeypatch.setattr(heuristics, "_tail", ran)
        monkeypatch.setattr(heuristics, "feasibility_probe", ran)
        for kind in (*ALL_HEURISTICS, HeuristicKind.BEST):
            sched, metrics = run(kind, g, mapping, D, platform)
            assert not metrics.feasible
            assert sched.plans == uniform_schedule(g, mapping, platform.f_max).plans

    def test_nan_deadline_rejected(self, platform):
        g = chain([1.0, 1.0])
        mapping = list_schedule(g, 1)
        for kind in (*ALL_HEURISTICS, HeuristicKind.BEST):
            for D in (math.nan, 0.0, -1.0):
                with pytest.raises(ValueError):
                    run(kind, g, mapping, D, platform)


def test_validity_warning_once_per_call_site():
    # At lambda0 = 1e-3 many plans fail more often than once in a hundred;
    # under the default filter each line that asks for a reliability shows
    # the warning once, not once per failure probability.
    platform = make_platform(lambda0=1e-3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for seed in range(3):
            g = generate_random(40, 80, weight_range=(0.0, 40.0), seed=seed)
            for p in (1, 4):
                mapping = list_schedule(g, p)
                for ratio in (1.2, 2.0, 5.0):
                    run(HeuristicKind.BEST, g, mapping, ratio * min_deadline(g, mapping, platform), platform)
    sites = collections.Counter((w.filename, w.lineno) for w in caught if w.category is ModelValidityWarning)
    assert sites and max(sites.values()) == 1


def test_concurrent_solves_match_sequential(platform):
    # A solve keeps its time windows to itself, so four BEST solves running
    # at once in threads, switching as often as the interpreter allows,
    # return what each returns alone.
    instances = []
    for seed in range(4):
        g = generate_random(40, 80, seed=seed)
        mapping = list_schedule(g, (1, 4)[seed % 2])
        instances.append((g, mapping, 1.2 * min_deadline(g, mapping, platform)))

    def solve(instance):
        g, mapping, D = instance
        sched, metrics = run(HeuristicKind.BEST, g, mapping, D, platform)
        return sched.plans, metrics.energy, metrics.feasible

    expected = [solve(instance) for instance in instances]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(len(instances)) as pool:
            for _ in range(20):
                assert list(pool.map(solve, instances)) == expected
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
@given(
    n=st.integers(min_value=5, max_value=30),
    seed=st.integers(min_value=0, max_value=10**6),
    p=st.sampled_from((1, 4)),
    lambda0=st.sampled_from((1e-5, 1e-3)),
    ratio=st.sampled_from((1.2, 2.0, 5.0)),
)
@settings(max_examples=30, deadline=None)
def test_scaling_work_deadline_and_fault_rate_scales_only_the_energy(n, seed, p, lambda0, ratio):
    # Work and deadline times a, fault rate over a: every duration and the
    # deadline scale alike and every failure exponent lambda0 * w / f stays,
    # so the speeds stay and the energy scales by a. A power of two scales
    # every float exactly; another factor only up to rounding.
    g = generate_random(n, 2 * n, seed=seed)
    mapping = list_schedule(g, p)
    platform = make_platform(lambda0=lambda0)
    D = ratio * min_deadline(g, mapping, platform)
    kinds = (*ALL_HEURISTICS, HeuristicKind.BEST)
    expected = {kind: run(kind, g, mapping, D, platform) for kind in kinds}
    for a, exact in ((0.5, True), (2.0, True), (4.0, True), (3.0, False)):
        scaled = TaskGraph(tuple(Task(t.id, a * t.weight) for t in g.tasks), g.edges)
        if exact:
            assert list_schedule(scaled, p) == mapping
        for kind in kinds:
            sched, metrics = expected[kind]
            out, out_metrics = run(kind, scaled, mapping, a * D, make_platform(lambda0=lambda0 / a))
            assert out_metrics.feasible == metrics.feasible, (a, kind)
            if exact:
                assert out.plans == sched.plans, (a, kind)
                assert out_metrics.energy == a * metrics.energy, (a, kind)
            else:
                assert out_metrics.energy == pytest.approx(a * metrics.energy, rel=1e-12, abs=0.0), (a, kind)


@pytest.mark.xfail(
    strict=True,
    reason="time tolerances are absolute (SLACK_TOL), so scaling every time by 2**20 moves verdicts and plans",
)
def test_scaling_by_two_to_the_twentieth_keeps_every_verdict_and_plan():
    # The relation of the test above at a = 2**20, which it does not sample.
    # Every time scales bit for bit, but the tolerance does not: hno-reex's
    # makespan exceeds a * D by 2.98e-8, above SLACK_TOL, and BEST's energy
    # over a rises 11.2%.
    g = generate_random(30, 60, seed=1)
    mapping = list_schedule(g, 1)
    platform = make_platform(lambda0=1e-5)
    D = 1.2 * min_deadline(g, mapping, platform)
    a = 2.0 ** 20
    scaled = TaskGraph(tuple(Task(t.id, a * t.weight) for t in g.tasks), g.edges)
    assert list_schedule(scaled, 1) == mapping
    for kind in (*ALL_HEURISTICS, HeuristicKind.BEST):
        sched, metrics = run(kind, g, mapping, D, platform)
        out, out_metrics = run(kind, scaled, mapping, a * D, make_platform(lambda0=1e-5 / a))
        assert out_metrics.feasible == metrics.feasible, kind
        assert out.plans == sched.plans, kind
        assert out_metrics.energy == a * metrics.energy, kind


class TestHeuristicOutputs:
    def test_tight_deadline_degenerates_to_full_speed(self, platform):
        g = chain([2.0, 1.0, 3.0])
        mapping = list_schedule(g, 1)
        D = min_deadline(g, mapping, platform)
        _, base = run(HeuristicKind.HNO_REEX, g, mapping, D, platform)
        for kind in ALL_HEURISTICS:
            sched, metrics = run(kind, g, mapping, D, platform)
            assert metrics.feasible
            assert metrics.energy == pytest.approx(base.energy, rel=1e-12)
            assert all(p.speed1 == pytest.approx(1.0) for p in sched.plans.values())

    def test_all_feasible_and_reexec_window_on_random_instances(self, platform):
        rng = random.Random(17)
        for _ in range(15):
            g = random_instance(rng, max_nodes=40)
            p = rng.choice([1, 4, 10])
            mapping = list_schedule(g, p)
            D = rng.uniform(1.0, 8.0) * min_deadline(g, mapping, platform)
            for kind in ALL_HEURISTICS:
                sched, metrics = run(kind, g, mapping, D, platform)
                assert metrics.feasible, (kind, len(g), p)
                assert metrics.makespan <= D + 1e-9
                assert all(v >= -1e-9 for v in metrics.reliability_slack.values())
                assert_reexec_speed_window(g, sched, platform)

    def test_best_not_worse_than_any_heuristic(self, platform):
        rng = random.Random(23)
        for _ in range(8):
            g = random_instance(rng, max_nodes=30)
            mapping = list_schedule(g, rng.choice([1, 3]))
            D = rng.uniform(1.2, 6.0) * min_deadline(g, mapping, platform)
            _, best = run(HeuristicKind.BEST, g, mapping, D, platform)
            for kind in ALL_HEURISTICS:
                _, m = run(kind, g, mapping, D, platform)
                assert best.energy <= m.energy + 1e-12

    def test_loose_deadline_re_executes_everything(self, platform):
        g = chain([1.0, 2.0, 1.5])
        mapping = list_schedule(g, 1)
        D = 8.0 * min_deadline(g, mapping, platform)
        for kind in (*TYPE_A, *TYPE_B):
            sched, metrics = run(kind, g, mapping, D, platform)
            assert metrics.feasible
            assert all(p.re_executed for p in sched.plans.values()), kind

    def test_type_a_singles_run_at_f_dec_on_chains(self, platform):
        # uniform-speed consistency: non-re-executed tasks keep the
        # decelerated speed max(f_rel, total_work / D) on one processor
        rng = random.Random(31)
        for _ in range(10):
            weights = [rng.uniform(0.5, 5.0) for _ in range(rng.randint(2, 8))]
            g = chain(weights)
            mapping = list_schedule(g, 1)
            D = rng.uniform(1.0, 4.0) * sum(weights)
            f_dec = max(platform.f_rel, sum(weights) / D)
            for kind in TYPE_A:
                sched, metrics = run(kind, g, mapping, D, platform)
                assert metrics.feasible
                for t in g.tasks:
                    plan = sched.plans[t.id]
                    if not plan.re_executed:
                        assert plan.speed1 == pytest.approx(f_dec, rel=1e-9)

    def test_single_processor_greedy_equals_sus_crit(self, platform):
        # with one processor the critical path is the whole task set, so the
        # two type-A strategies coincide
        rng = random.Random(41)
        for _ in range(6):
            weights = [rng.uniform(0.5, 5.0) for _ in range(6)]
            g = chain(weights)
            mapping = list_schedule(g, 1)
            D = rng.uniform(1.5, 6.0) * sum(weights)
            _, a = run(HeuristicKind.A_GREEDY, g, mapping, D, platform)
            _, b = run(HeuristicKind.A_SUS_CRIT, g, mapping, D, platform)
            assert a.energy == pytest.approx(b.energy, rel=1e-6)

    def test_deterministic(self, platform):
        g = generate_random(30, 60, seed=77)
        mapping = list_schedule(g, 4)
        D = 2.0 * min_deadline(g, mapping, platform)
        for kind in ALL_HEURISTICS:
            s1, m1 = run(kind, g, mapping, D, platform)
            s2, m2 = run(kind, g, mapping, D, platform)
            assert s1.plans == s2.plans and m1.energy == m2.energy


def _unjam_singles_full_reclaims(g, sched, D, platform, f_re_ex):
    """Type B's unjam rounds as first written, reclaiming every trial in full.

    Kept verbatim as the oracle: scoring the swaps from the base windows
    must give the same schedule, bit for bit.
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
        for rid in _reexecuted(sched):
            trial = sched.with_plan(rid, ExecutionPlan(platform.f_rel))
            trial = slack_reclaim(g, trial, D, platform, _singles(trial), {})
            e = schedule_energy(g, trial)
            if e < current - SLACK_TOL and (best is None or e < best[0]):
                best = (e, trial)
        if best is None:
            return sched
        sched = best[1]


def _full_tail(g, sched, D, platform, f_re_ex):
    """Type B's tail on full reclaims: ``_unjam_singles_full_reclaims``, then the reclaim of re-executed tasks."""
    sched = _unjam_singles_full_reclaims(g, sched, D, platform, f_re_ex)
    redone = _reexecuted(sched)
    return slack_reclaim(g, sched, D, platform, redone, {tid: f_inf(g.weight(tid), platform) for tid in redone})


def _tail_of(g, sched, D, platform, speeds):
    """``_tail`` on a state of ``sched``; returns its schedule."""
    state = _state_of(g, sched, D, platform)
    _tail(g, state, D, platform, speeds)
    return _schedule(g, state)


def _type_b_starts(platform, case):
    """The schedules type-B walks hand to their tail, on _reclaim_case's DAG and deadline.

    Each kind's walks start with an empty dead set, which probes every task.
    """
    g, sched, D, _, _ = _reclaim_case(platform, case)
    f_re_ex = derived_speeds(g, sched.mapping, D, platform).f_re_ex
    for kind in TYPE_B:
        _, phases = _PHASES[kind]
        state = _state_of(g, uniform_schedule(g, sched.mapping, platform.f_max), D, platform)
        for phase in phases:
            phase(g, state, D, platform, f_re_ex)
        yield g, _schedule(g, state), D, f_re_ex


class TestUnjamFromBaseWindows:
    def test_each_trial_equals_a_full_reclaim(self, platform):
        # Where the swapped task lies against the slow span, the lowest to
        # highest position of a single run above f_rel: "none" when the
        # round has no such position.
        seen = collections.Counter()
        moved = 0
        for case in range(0, 24, 2):
            for g, start, D, _ in _type_b_starts(platform, case):
                base = slack_reclaim(g, start, D, platform, _singles(start), {})
                order, pos, _, _, _, _ = _indexed(g, base.mapping)
                span = [
                    i for i, tid in enumerate(order)
                    if not base.plans[tid].re_executed
                    and base.plans[tid].speed1 - SLACK_TOL > platform.f_rel
                ]
                rids = _reexecuted(base)
                state = _unjam_state(g, base)
                rs = [pos[tid] for tid in rids]
                for rid, (e, changes) in zip(rids, swap_reclaims(g, base.mapping, D, platform, state, rs)):
                    speeds = {order[i]: f for i, f in changes.items()}
                    trial = base.with_plan(rid, ExecutionPlan(platform.f_rel))
                    expected = slack_reclaim(g, trial, D, platform, _singles(trial), {})
                    assert all(type(f) is float for f in speeds.values()), (case, rid)
                    changes = {tid: ExecutionPlan(f) for tid, f in speeds.items()}
                    assert base.with_plans(changes).plans == expected.plans, (case, rid)
                    assert e == schedule_energy(g, expected), (case, rid)
                    r = pos[rid]
                    if not span:
                        seen["none"] += 1
                        assert speeds == {rid: platform.f_rel}, (case, rid)
                    else:
                        seen["below" if r < span[0] else "above" if r > span[-1] else "inside"] += 1
                    moved += len(speeds) > 1
        # Some swaps must free slack that other single runs take up.
        assert sum(seen.values()) > 100 and moved > 10
        assert all(seen[where] > 5 for where in ("none", "below", "inside", "above")), seen

    def test_the_round_energy_is_the_sum_of_the_round_state(self, platform, monkeypatch):
        # The tail holds each round's energy as one float: schedule_energy
        # of its state after the opening reclaim, then the kept trial's
        # energy. Each must be schedule_energy of the round's schedule, bit
        # for bit, and so must every trial's energy be that of the state
        # keeping it would move to.
        sums, rounds = [], []
        energy_of, trials_of = heuristics.schedule_energy, heuristics.swap_reclaims

        def spied_sum(g_, sched):
            sums.append(energy_of(g_, sched))
            return sums[-1]

        def spied_trials(g_, mapping, D_, platform_, state, rs):
            trials = list(trials_of(g_, mapping, D_, platform_, state, rs))
            rounds.append((state[0][:], state[1][:], trials))
            return iter(trials)

        def energy_at(g, mapping, speeds, redone):
            order = _indexed(g, mapping)[0]
            plans = {tid: ExecutionPlan(f, f) if x else ExecutionPlan(f) for tid, f, x in zip(order, speeds, redone)}
            return schedule_energy(g, Schedule(mapping, plans)).hex()

        monkeypatch.setattr(heuristics, "schedule_energy", spied_sum)
        monkeypatch.setattr(heuristics, "swap_reclaims", spied_trials)
        tails = kept = 0
        for case in range(0, 24, 3):
            for g, start, D, _ in _type_b_starts(platform, case):
                sums.clear()
                rounds.clear()
                _tail_of(g, start, D, platform, derived_speeds(g, start.mapping, D, platform))
                opened = slack_reclaim(g, start, D, platform, _singles(start), {})
                assert [e.hex() for e in sums] == [schedule_energy(g, opened).hex()], case
                held = sums[0]
                for speeds, redone, trials in rounds:
                    assert held.hex() == energy_at(g, start.mapping, speeds, redone), case
                    best = None
                    for e, changes in trials:
                        moved = speeds[:], redone[:]
                        for i, f in changes.items():
                            moved[0][i], moved[1][i] = f, False
                        assert e.hex() == energy_at(g, start.mapping, *moved), case
                        if e < held - SLACK_TOL and (best is None or e < best):
                            best = e
                    if best is not None:
                        held = best
                        kept += 1
                tails += 1
        assert tails == 24 and kept > 10, (tails, kept)

    @pytest.mark.parametrize("ids", ([0, 1, 2], [2, 1, 0]))
    def test_equal_trials_go_to_the_first_in_task_order(self, ids):
        # On the chain 0 -> 1 -> 2 the single run 1 is stuck at f_max between
        # two equal re-executions; either swap gives it the same slack and
        # the same energy, and only one of them is kept: the first in g.tasks.
        platform = make_platform(f_rel=0.5)
        g = TaskGraph(tuple(Task(tid, 1.0) for tid in ids), chain([1.0, 1.0, 1.0]).edges)
        plans = {tid: ExecutionPlan(1.0) if tid == 1 else ExecutionPlan(0.25, 0.25) for tid in ids}
        start = Schedule(list_schedule(g, 1), plans)
        out = _tail_of(g, start, 17.0, platform, DerivedSpeeds(platform.f_rel, 0.25))
        assert out.plans == _full_tail(g, start, 17.0, platform, 0.25).plans
        assert [tid for tid in ids if not out.plans[tid].re_executed] == [ids[0], 1]

    @pytest.mark.parametrize("case", range(24))
    def test_same_schedule_as_full_reclaims(self, platform, case):
        swapped = 0
        for g, start, D, f_re_ex in _type_b_starts(platform, case):
            expected = _full_tail(g, start, D, platform, f_re_ex)
            out = _tail_of(g, start, D, platform, derived_speeds(g, start.mapping, D, platform))
            assert out.plans == expected.plans
            assert schedule_energy(g, out) == schedule_energy(g, expected)
            first = slack_reclaim(g, start, D, platform, _singles(start), {})
            swapped += any(not expected.plans[tid].re_executed for tid in _reexecuted(first))
        if case % 3 == 0:
            # On one processor all tasks lie on one chain; every such case swaps.
            assert swapped


class TestTailMemo:
    """BEST runs type B's tail once per distinct entering schedule, with every kind's result unchanged."""

    # _reclaim_case cases where b.greedy and b.sus-crit enter the tail with
    # equal plans and the tail runs unjam rounds.
    CASES = (0, 9)

    @staticmethod
    def _entries(platform, case):
        """Each type-B kind's schedule entering the tail, as plans in task order."""
        return [
            tuple(start.plans[t.id] for t in g.tasks)
            for g, start, _, _ in _type_b_starts(platform, case)
        ]

    @pytest.mark.parametrize("case", CASES)
    def test_best_is_the_best_of_the_kinds_run_alone(self, platform, case):
        entries = self._entries(platform, case)
        assert len(set(entries)) < len(entries)
        g, start, D, _ = next(_type_b_starts(platform, case))
        best = None
        for kind in ALL_HEURISTICS:
            sched, metrics = run(kind, g, start.mapping, D, platform)
            if best is None or (
                metrics.feasible and (not best[1].feasible or metrics.energy < best[1].energy)
            ):
                best = (sched, metrics)
        sched, metrics = run(HeuristicKind.BEST, g, start.mapping, D, platform)
        assert sched.plans == best[0].plans
        assert (metrics.energy, metrics.makespan, metrics.feasible) == (
            best[1].energy, best[1].makespan, best[1].feasible)

    @pytest.mark.parametrize("case", CASES)
    def test_one_tail_per_distinct_entry(self, platform, case, monkeypatch):
        calls = []
        spied = heuristics.swap_reclaims

        def spy(*args):
            calls.append(args[1])
            return spied(*args)

        monkeypatch.setattr(heuristics, "swap_reclaims", spy)
        g, start, D, _ = next(_type_b_starts(platform, case))
        rounds = {}
        for kind, entry in zip(TYPE_B, self._entries(platform, case)):
            calls.clear()
            run(kind, g, start.mapping, D, platform)
            rounds.setdefault(entry, []).append(len(calls))
        # Kinds that enter with equal plans run the same rounds.
        assert all(len(set(counts)) == 1 for counts in rounds.values())
        assert all(counts[0] > 0 for counts in rounds.values() if len(counts) > 1)
        calls.clear()
        run(HeuristicKind.BEST, g, start.mapping, D, platform)
        assert len(calls) == sum(counts[0] for counts in rounds.values())
        assert len(calls) < sum(map(sum, rounds.values()))

    @pytest.mark.parametrize("case", CASES)
    def test_one_energy_sum_per_distinct_entry_and_no_slack_reclaim(self, platform, case, monkeypatch):
        # The tail sums its state's energy (schedule_energy) once per
        # distinct entry and moves the state in place: its reclaims are
        # sweeps on that state, and the module has no slack_reclaim to call.
        summed, inside = [], []
        tail, energy_of = heuristics._tail, heuristics.schedule_energy

        def spied_tail(g_, state, *args):
            inside.append(tuple(_schedule(g_, state).plans[t.id] for t in g_.tasks))
            try:
                return tail(g_, state, *args)
            finally:
                inside.pop()

        def spied_energy(g_, sched):
            if inside:
                summed.append(inside[-1])
            return energy_of(g_, sched)

        monkeypatch.setattr(heuristics, "_tail", spied_tail)
        monkeypatch.setattr(heuristics, "schedule_energy", spied_energy)
        g, start, D, _ = next(_type_b_starts(platform, case))
        entries = self._entries(platform, case)
        for kind, entry in zip(TYPE_B, entries):
            summed.clear()
            run(kind, g, start.mapping, D, platform)
            assert summed == [entry], kind
        summed.clear()
        run(HeuristicKind.BEST, g, start.mapping, D, platform)
        assert sorted(summed, key=entries.index) == list(dict.fromkeys(entries))
        assert "slack_reclaim" not in vars(heuristics)

    def test_shared_speeds_return_distinct_plans(self, platform):
        g, start, D, _ = next(_type_b_starts(platform, 0))
        speeds = derived_speeds(g, start.mapping, D, platform)
        first, _ = run(HeuristicKind.B_GREEDY, g, start.mapping, D, platform, speeds=speeds)
        second, _ = run(HeuristicKind.B_GREEDY, g, start.mapping, D, platform, speeds=speeds)
        assert first.plans == second.plans and first.plans is not second.plans
        expected = dict(first.plans)
        first.plans.clear()
        second.plans.clear()
        third, _ = run(HeuristicKind.B_SUS_CRIT, g, start.mapping, D, platform, speeds=speeds)
        assert third.plans == expected

    def test_equal_speeds_of_another_deadline_get_their_own_tail(self, platform):
        # At loose deadlines f_dec is f_rel, so two deadlines derive equal
        # speeds. At these two the walk re-executes every task, so the tail
        # is entered with equal plans and reclaims into different slack.
        g = generate_random(30, 60, seed=3)
        mapping = list_schedule(g, 1)
        loose, looser = (k * min_deadline(g, mapping, platform) for k in (8.0, 9.0))
        speeds = derived_speeds(g, mapping, loose, platform)
        assert speeds == derived_speeds(g, mapping, looser, platform)
        run(HeuristicKind.B_GREEDY, g, mapping, loose, platform, speeds=speeds)
        shared, _ = run(HeuristicKind.B_GREEDY, g, mapping, looser, platform, speeds=speeds)
        alone, _ = run(HeuristicKind.B_GREEDY, g, mapping, looser, platform)
        assert shared.plans == alone.plans


def _fresh(g, sched, D, platform):
    """What a state of ``sched`` must hold: its ``_window_state`` and evaluate's verdict."""
    return _window_state(g, sched, D), evaluate(g, sched, D, platform).feasible


def _held(state):
    return state.windows, state.feasible


class TestSlowSingle:
    """``_slow_group`` of one task that runs once."""

    def test_equals_one_target_reclaim(self, platform):
        slowed = 0
        for case in range(12):
            rng = random.Random(case)
            for g, sched, D, _ in _type_b_starts(platform, case):
                singles = _singles(sched)
                for tid in rng.sample(singles, min(len(singles), 8)):
                    # A fresh state of sched, or the state an accept moved along.
                    state = _state_of(g, sched, D, platform)
                    if rng.random() < 0.5:
                        feasibility_probe(g, state, D, platform, rng.choice(singles), ExecutionPlan(platform.f_rel))
                        sched = _schedule(g, state)
                    expected = slack_reclaim(g, sched, D, platform, [tid], {})
                    _slow_group(g, state, D, platform, [tid])
                    out = _schedule(g, state)
                    assert out.plans == expected.plans, (case, tid)
                    assert _held(state) == _fresh(g, out, D, platform), (case, tid)
                    slowed += out.plans != sched.plans
        assert slowed > 20

    def test_infeasible_schedule_gets_the_full_reclaim(self, platform):
        g = generate_random(30, 60, seed=3)
        mapping = list_schedule(g, 4)
        D = 2.0 * min_deadline(g, mapping, platform)
        sched = uniform_schedule(g, mapping, platform.f_max).with_plan(0, ExecutionPlan(0.5 * platform.f_rel))
        assert not evaluate(g, sched, D, platform).feasible
        for tid in range(1, len(g)):
            state = _state_of(g, sched, D, platform)
            _slow_group(g, state, D, platform, [tid])
            assert _schedule(g, state).plans == slack_reclaim(g, sched, D, platform, [tid], {}).plans
            assert not state.feasible


class TestSlowGroup:
    def test_equals_the_cohort_reclaim(self, platform):
        # Groups of single runs and re-executions, in any order, slowed on
        # the windows of a schedule that type-B walks hand on.
        groups = several = 0
        for case in range(12):
            rng = random.Random(case)
            for g, sched, D, _ in _type_b_starts(platform, case):
                for _ in range(4):
                    group = rng.sample(list(sched.plans), rng.randint(2, 8))
                    bounds = {cid: f_inf(g.weight(cid), platform) for cid in group if sched.plans[cid].re_executed}
                    expected = slack_reclaim(g, sched, D, platform, group, bounds)
                    state = _state_of(g, sched, D, platform)
                    heuristics._slow_group(g, state, D, platform, group)
                    out = _schedule(g, state)
                    assert out.plans == expected.plans, (case, group)
                    assert _held(state) == _fresh(g, out, D, platform), (case, group)
                    groups += 1
                    several += sum(out.plans[cid] != sched.plans[cid] for cid in group) > 1
        assert groups == 144 and several > 20, several


class TestLiveWindows:
    """A walk's windows stay equal to a fresh computation across the whole walk."""

    @pytest.mark.parametrize("case", range(0, 24, 2))
    def test_memo_equals_fresh_windows_after_every_change(self, platform, case, monkeypatch):
        g, start, D, _, _ = _reclaim_case(platform, case)
        seen = {"accept": 0, "slow": 0, "cohort": 0}

        def assert_windows_of(state):
            # The windows describe the state's schedule: fresh windows, and evaluate's times.
            sched = _schedule(g, state)
            metrics = evaluate(g, sched, D, platform)
            assert state.feasible == metrics.feasible
            order = _indexed(g, sched.mapping)[0]
            assert dict(zip(order, state.windows[0])) == metrics.start_times
            assert dict(zip(order, state.windows[1])) == metrics.finish_times
            assert state.windows == _window_state(g, sched, D)

        def probe(g_, state, D_, platform_, tid, plan):
            candidate = _schedule(g, state).with_plan(tid, plan)
            ok, out = feasibility_probe(g_, state, D_, platform_, tid, plan)
            assert ok == evaluate(g, candidate, D, platform).feasible
            assert_windows_of(out)
            seen["accept"] += ok
            seen["last"] = out
            return ok, out

        def slow_group(g_, state, D_, platform_, group):
            before = _schedule(g, state)
            slow_group_(g_, state, D_, platform_, group)
            if len(group) == 1:
                assert_windows_of(state)
                seen["slow"] += _schedule(g, state).plans != before.plans
            seen["last"] = state

        def start_(*args):
            state = start_of(*args)
            seen["last"] = state
            return state

        def cohort(g_, mapping, windows, tid):
            # A cohort is that of the walk's state, the one the last probe,
            # slow-down or start moved (a dead task's probe is skipped), by
            # the dict definition on evaluate's times.
            sched = _schedule(g, seen["last"])
            assert mapping == sched.mapping
            assert windows == _window_state(g, sched, D)
            metrics = evaluate(g, sched, D, platform)
            start, finish = metrics.start_times, metrics.finish_times
            lo, hi = start[tid] - SLACK_TOL, finish[tid] + SLACK_TOL
            out = cohort_of(g_, mapping, windows, tid)
            assert out == [t.id for t in g.tasks if t.id != tid and start[t.id] >= lo and finish[t.id] <= hi]
            seen["cohort"] += 1
            return out

        slow_group_, start_of = heuristics._slow_group, heuristics._start
        monkeypatch.setattr(heuristics, "feasibility_probe", probe)
        monkeypatch.setattr(heuristics, "_slow_group", slow_group)
        monkeypatch.setattr(heuristics, "_start", start_)
        monkeypatch.setattr(heuristics, "cohort_of", cohort)
        for kind in (*TYPE_A, *TYPE_B):
            run(kind, g, start.mapping, D, platform)
        assert seen["accept"] > 0 and seen["cohort"] > 0
        if case % 3 == 0:
            # On one processor b.sus-crit-slow always has rejected tasks to slow.
            assert seen["slow"] > 0


class TestWalkOrders:
    """The walks' orders read their window state alone, and equal their definitions on evaluate's metrics."""

    # _reclaim_case's cases at deadline ratios 2 and 5, where probes accept.
    @pytest.mark.parametrize("case", [c for c in range(24) if c // 3 % 3])
    def test_orders_of_live_windows_equal_references(self, platform, case):
        # The windows an accepted probe moved in place, as a walk holds them.
        g, start, D, _, _ = _reclaim_case(platform, case)
        mapping = start.mapping
        speeds = derived_speeds(g, mapping, D, platform)
        reexec = ExecutionPlan(speeds.f_re_ex, speeds.f_re_ex)
        rng = random.Random(case)
        ids = [t.id for t in g.tasks]
        for f in (platform.f_max, speeds.f_dec):
            state = _state_of(g, uniform_schedule(g, mapping, f), D, platform)
            windows = state.windows
            accepted = 0
            for tid in rng.sample(ids, len(ids) // 2):
                ok, _ = feasibility_probe(g, state, D, platform, tid, reexec)
                if not ok:
                    continue
                accepted += 1
                sched = _schedule(g, state)
                metrics = evaluate(g, sched, D, platform)
                critical = critical_path_tasks(g, mapping, windows)
                assert critical == _critical_reference(g, sched, metrics), (case, tid)
                for task_ids in (critical, _singles(sched)):
                    expected = _sus_reference(g, metrics.start_times, metrics.finish_times, task_ids)
                    assert sus_sort(g, mapping, windows, task_ids) == expected, (case, tid)
            assert accepted > 0

    @pytest.mark.parametrize("case", range(0, 24, 5))
    def test_orders_call_no_evaluate(self, platform, case, monkeypatch):
        g, sched, D, _, _ = _reclaim_case(platform, case)
        metrics = evaluate(g, sched, D, platform)
        state = _state_of(g, sched, D, platform)
        critical = _critical_reference(g, sched, metrics)

        def evaluated(*args):
            raise AssertionError("evaluate called")

        monkeypatch.setattr(heuristics, "evaluate", evaluated)
        start, finish = metrics.start_times, metrics.finish_times
        # The orders hold only single runs; the walks skip re-executed tasks.
        singles = [tid for tid in critical if not sched.plans[tid].re_executed]
        assert _critical_order(g, state, ()) == _sus_reference(g, start, finish, singles)
        assert _singles_order(g, state, ()) == _sus_reference(g, start, finish, _singles(sched))
        # A skipped task leaves the others in their order.
        skip = set(singles[::2]) | set(_singles(sched)[::3])
        assert _critical_order(g, state, skip) == [tid for tid in _critical_order(g, state, ()) if tid not in skip]
        assert _singles_order(g, state, skip) == [tid for tid in _singles_order(g, state, ()) if tid not in skip]


def _solve_checked(monkeypatch, g, mapping, D, platform):
    """Each kind, then BEST, on the instance, checking the state after every probe, slow-down, phase and tail.

    Up to a kind's closing step, each check asserts that the state's windows
    are the fresh, unchecked ``_window_state`` of the schedule built from it,
    that every task passes ``task_feasible``, so that the state can be
    infeasible only by its makespan, that its flag is evaluate's verdict, and
    that a flag once False stays False; a slow-down's schedule must also be
    that of ``slack_reclaim``.
    After the closing step (type A's ``_reclaim_redone``, type B's
    ``_tail``), which leaves the windows and the flag behind, the plans built
    from the state must be those of the same step on full reclaims:
    ``slack_reclaim`` of the re-executed tasks, or ``_full_tail``. Returns a
    count per ``(step, flag after it)``, where the flag after a closing step
    is evaluate's verdict on its plans, per ``("slow-down on a feasible
    state", ...)`` and per ``("task_feasible", verdict)`` of the probes' own
    checks of a task's rules.
    """
    seen = collections.Counter()
    # The kind's flag at its last check; every kind's solve checks its start first.
    last = True

    threshold = _thresholds(g, platform)

    def check(step, state):
        nonlocal last
        sched = _schedule(g, state)
        assert state.windows == _window_state(g, sched, D), step
        assert all(task_feasible(g.weight(tid), plan, threshold[tid], platform)
                   for tid, plan in sched.plans.items()), step
        assert state.feasible == evaluate(g, sched, D, platform).feasible, step
        assert step == "start" or last or not state.feasible, step
        last = state.feasible
        seen[step, state.feasible] += 1

    def checked(step, phase):
        def wrapper(g_, state, *args, **kwargs):
            out = phase(g_, state, *args, **kwargs)
            check(step, state)
            return out
        return wrapper

    def slow_group(g_, state, D_, platform_, group):
        before = _schedule(g, state)
        seen["slow-down on a feasible state", state.feasible] += 1
        slow_group_(g_, state, D_, platform_, group)
        assert _schedule(g, state).plans == slack_reclaim(g, before, D, platform, group, {
            cid: f_inf(g.weight(cid), platform) for cid in group if before.plans[cid].re_executed}).plans
        check("slow-down", state)

    def closing(step, phase, reference):
        def wrapper(g_, state, D_, platform_, arg):
            before = _schedule(g, state)
            phase(g_, state, D_, platform_, arg)
            sched = _schedule(g, state)
            assert sched.plans == reference(before, arg).plans, step
            seen[step, evaluate(g, sched, D, platform).feasible] += 1
        return wrapper

    def reclaim_redone(before, _):
        redone = _reexecuted(before)
        return slack_reclaim(g, before, D, platform, redone, {tid: f_inf(g.weight(tid), platform) for tid in redone})

    def checked_start(*args):
        state = start_(*args)
        check("start", state)
        return state

    def probed_rules(*args):
        verdict = task_feasible(*args)
        seen["task_feasible", verdict] += 1
        return verdict

    slow_group_, start_ = heuristics._slow_group, heuristics._start
    phases = {}
    for kind, (at_f_dec, steps) in _PHASES.items():
        wrapped = [checked(kind.value, phase) for phase in steps]
        if kind in TYPE_A:
            assert steps[-1] is heuristics._reclaim_redone
            wrapped[-1] = closing(kind.value, steps[-1], reclaim_redone)
        phases[kind] = at_f_dec, tuple(wrapped)
    with monkeypatch.context() as m:
        m.setattr(heuristics, "_PHASES", phases)
        # The fixpoint's own walks, called through the module.
        m.setattr(heuristics, "_critical_walk", checked("fixpoint", heuristics._critical_walk))
        m.setattr(heuristics, "_reexec_over", checked("fixpoint", heuristics._reexec_over))
        m.setattr(heuristics, "feasibility_probe", checked("probe", heuristics.feasibility_probe))
        m.setattr(heuristics, "task_feasible", probed_rules)
        m.setattr(heuristics, "_tail", closing("tail", heuristics._tail,
                                               lambda before, speeds: _full_tail(g, before, D, platform, speeds.f_re_ex)))
        m.setattr(heuristics, "_start", checked_start)
        m.setattr(heuristics, "_slow_group", slow_group)
        expected = [run(kind, g, mapping, D, platform)[0].plans for kind in ALL_HEURISTICS]
        sched, _ = run(HeuristicKind.BEST, g, mapping, D, platform)
    assert sched.plans in expected
    return seen


def _large_weight_instances(seeds=range(6)):
    """Random DAGs with weights up to 1e9 at lambda0 = 1e-14, where a float's last bit is above SLACK_TOL."""
    platform = make_platform(lambda0=1e-14)
    for seed in seeds:
        g = generate_random(30, 60, weight_range=(0.0, 1e9), seed=seed)
        for p in (1, 4):
            mapping = list_schedule(g, p)
            for ratio in (1.05, 1.2, 2.0):
                yield g, mapping, ratio * min_deadline(g, mapping, platform), platform


class TestStateInvariant:
    """Up to the closing step the state is its schedule's (fresh windows, evaluate's flag); after it, its plans are right."""

    @pytest.mark.parametrize("case", range(0, 24, 3))
    def test_on_reclaim_cases(self, platform, case, monkeypatch):
        g, start, D, _, _ = _reclaim_case(platform, case)
        seen = _solve_checked(monkeypatch, g, start.mapping, D, platform)
        assert seen["probe", True] > 0 and seen["a.greedy", True] > 0

    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_on_large_weights_where_the_flag_turns_false(self, monkeypatch):
        seen = collections.Counter()
        for g, mapping, D, platform in _large_weight_instances():
            seen += _solve_checked(monkeypatch, g, mapping, D, platform)
        # Slow-downs that end past the deadline or start from an infeasible
        # state, and probes, phases and tails that see an infeasible state.
        assert seen["slow-down", False] > 0 and seen["slow-down on a feasible state", False] > 0
        assert seen["probe", False] > 0 and seen["b.sus-crit-slow", False] > 0
        assert seen["tail", False] > 0 and seen["probe", True] > 0

    @pytest.mark.parametrize("p", [1, 4, 50])
    @pytest.mark.parametrize("platform", [make_platform(f_max=4, f_rel=2, d=0.7), make_platform(d=2.0, lambda0=1e-3),
                                          make_platform(lambda0=2e-2)], ids=["d0.7", "d2", "lambda2e-2"])
    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_at_positive_d_and_large_lambda0(self, monkeypatch, platform, p):
        seen = collections.Counter()
        for seed in (1, 2):
            g = generate_random(30, 60, seed=seed)
            mapping = list_schedule(g, p)
            for ratio in (1.05, 1.2, 2.0, 5.0):
                seen += _solve_checked(monkeypatch, g, mapping, ratio * min_deadline(g, mapping, platform), platform)
        assert seen["probe", True] > 0 and seen["slow-down", True] > 0, seen
        # At lambda0 = 2e-2 f_inf of a heavy task is above f_re_ex, so some probes reject on its own rules.
        assert seen["task_feasible", False] > 0 or platform.lambda0 < 2e-2, seen

    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_walks_without_a_slow_down_probe_no_infeasible_state(self, monkeypatch):
        walking, starts = [], collections.Counter()
        probe = heuristics.feasibility_probe

        def walk(phase):
            def wrapper(g, state, *args, **kwargs):
                starts[state.feasible] += 1
                walking.append(True)
                try:
                    return phase(g, state, *args, **kwargs)
                finally:
                    walking.pop()
            return wrapper

        def checked_probe(g, state, *args):
            assert not walking or state.feasible
            return probe(g, state, *args)

        plain = (heuristics._greedy_walk, heuristics._critical_walk)
        phases = {kind: (at_f_dec, tuple(walk(phase) if phase in plain else phase for phase in steps))
                  for kind, (at_f_dec, steps) in _PHASES.items()}
        monkeypatch.setattr(heuristics, "_PHASES", phases)
        # The fixpoint's own walks, called through the module.
        monkeypatch.setattr(heuristics, "_critical_walk", walk(heuristics._critical_walk))
        monkeypatch.setattr(heuristics, "_reexec_over", walk(heuristics._reexec_over))
        monkeypatch.setattr(heuristics, "feasibility_probe", checked_probe)
        for g, mapping, D, platform in _large_weight_instances():
            run(HeuristicKind.BEST, g, mapping, D, platform)
        assert starts[False] > 0 and starts[True] > 0, starts


class TestWindowHandoff:
    """Phases before the closing step hand their state on: its windows fresh, its flag evaluate's verdict."""

    @pytest.mark.parametrize("p", [1, 4, 50])
    @pytest.mark.parametrize("lambda0", [1e-5, 1e-3])
    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_handed_windows_are_unknown_or_fresh(self, monkeypatch, p, lambda0):
        platform = make_platform(lambda0=lambda0)
        seen = collections.Counter()
        for seed in (1, 2):
            g = generate_random(30, 60, seed=seed)
            mapping = list_schedule(g, p)
            for ratio in (1.05, 1.2, 2.0, 5.0):
                D = ratio * min_deadline(g, mapping, platform)
                seen += _solve_checked(monkeypatch, g, mapping, D, platform)
        # Every kind with phases hands its state on from every phase.
        phases = [kind.value for kind in (*TYPE_A, *TYPE_B)]
        assert all(seen[kind, True] + seen[kind, False] > 0 for kind in phases), seen

    def test_cohort_reclaim_moves_the_windows(self, platform, monkeypatch):
        # b.sus-crit-slow slows rejected tasks with their cohorts, which on
        # more than one processor are seldom empty.
        seen = collections.Counter()
        for case in range(24):
            if case % 3:
                g, start, D, _, _ = _reclaim_case(platform, case)
                seen += _solve_checked(monkeypatch, g, start.mapping, D, platform)
        assert seen["slow-down on a feasible state", True] > 50, seen

    def test_cohort_reclaim_checks_the_makespan_at_large_times(self):
        # Near D = 1e9 a time's last bit is above SLACK_TOL, so a reclaim
        # that fills a window exactly can end past D + SLACK_TOL; the state
        # must then be infeasible, as a fresh check says.
        platform = make_platform(lambda0=1e-14)
        failed = 0
        for seed in range(120):
            rng = random.Random(seed)
            g = generate_random(20, 40, weight_range=(0.0, 1e9), seed=seed)
            mapping = list_schedule(g, 4)
            D = rng.uniform(1.1, 3.0) * min_deadline(g, mapping, platform)
            state = _state_of(g, uniform_schedule(g, mapping, platform.f_max), D, platform)
            for _ in range(10):
                heuristics._slow_group(g, state, D, platform, rng.sample(range(len(g)), 5))
                assert _held(state) == _fresh(g, _schedule(g, state), D, platform), seed
                if not state.feasible:
                    failed += 1
                    break
        assert failed >= 3

    def test_each_kind_gets_its_own_start(self, platform):
        g, start, D, _, _ = _reclaim_case(platform, 4)
        speeds = derived_speeds(g, start.mapping, D, platform)
        first = heuristics._start(g, start.mapping, D, platform, speeds, platform.f_max)
        second = heuristics._start(g, start.mapping, D, platform, speeds, platform.f_max)
        assert len(speeds._starts) == 1
        sched = uniform_schedule(g, start.mapping, platform.f_max)
        for out in (first, second):
            assert _schedule(g, out).plans == sched.plans and out.windows == _window_state(g, sched, D)
        assert first.speeds is not second.speeds and first.redone is not second.redone
        assert all(a is not b for a, b in zip(first.windows, second.windows))
        first.windows[0][0] = math.nan
        assert heuristics._start(g, start.mapping, D, platform, speeds, platform.f_max).windows == second.windows
        # Another deadline, with the same speeds, gets its own start.
        heuristics._start(g, start.mapping, 2.0 * D, platform, speeds, platform.f_max)
        assert len(speeds._starts) == 2
        # Each kind gets its own dead set too (here the f_dec start has one).
        one, other = (heuristics._start(g, start.mapping, D, platform, speeds, speeds.f_dec).dead for _ in range(2))
        assert one and one == other and one is not other
        one.clear()
        assert heuristics._start(g, start.mapping, D, platform, speeds, speeds.f_dec).dead == other


class TestCheckedWindowBuilds:
    """Windows are built afresh once per start speed, and a task's own rules are checked only inside a probe."""

    @staticmethod
    def _counted(monkeypatch, instances):
        """BEST on each instance, asserting the rule; counts the infeasible starts and the slow-downs of infeasible states."""
        builds, probing = [], []
        build, probe, slow_group = heuristics._window_state, heuristics.feasibility_probe, heuristics._slow_group
        task_feasible = heuristics.task_feasible
        infeasible = collections.Counter()

        def counted(g, sched, D):
            builds.append(D)
            return build(g, sched, D)

        def counted_probe(*args):
            probing.append(True)
            try:
                return probe(*args)
            finally:
                probing.pop()

        def counted_check(*args):
            assert probing
            infeasible["checks"] += 1
            return task_feasible(*args)

        def counted_slow_group(g, state, *args):
            infeasible["slow-down"] += not state.feasible
            return slow_group(g, state, *args)

        monkeypatch.setattr(heuristics, "_window_state", counted)
        monkeypatch.setattr(heuristics, "feasibility_probe", counted_probe)
        monkeypatch.setattr(heuristics, "task_feasible", counted_check)
        monkeypatch.setattr(heuristics, "_slow_group", counted_slow_group)
        for g, mapping, D, platform in instances:
            speeds = derived_speeds(g, mapping, D, platform)
            builds.clear()
            run(HeuristicKind.BEST, g, mapping, D, platform, speeds=speeds)
            assert len(builds) == len(speeds._starts), D
            assert len(speeds._starts) == (1 if speeds.f_dec >= platform.f_max else 2)
            infeasible["start"] += not all(start.feasible for start in speeds._starts.values())
        assert infeasible["checks"] > 0
        return infeasible

    @pytest.mark.parametrize("p", [1, 4, 50])
    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_one_per_start_speed(self, monkeypatch, p):
        def instances():
            for lambda0 in (1e-5, 1e-3):
                platform = make_platform(lambda0=lambda0)
                for seed in (1, 2, 3):
                    g = generate_random(40, 100, seed=seed)
                    mapping = list_schedule(g, p)
                    for ratio in (0.9, 1.0, 1.05, 1.2, 2.0, 5.0):
                        yield g, mapping, ratio * min_deadline(g, mapping, platform), platform

        # Below ratio 1 the one start is infeasible.
        assert self._counted(monkeypatch, instances())["start"] == 6

    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_on_large_weights_where_slow_downs_see_an_infeasible_state(self, monkeypatch):
        assert self._counted(monkeypatch, _large_weight_instances())["slow-down"] > 0


def _walk_probing_every_task(g, state, D, platform, f_re_ex, *, order, with_cohort=False, slowdown_on_fail=False):
    """The ReExec walk before dead sets, kept as the oracle: it probes every single task it reaches.

    ``order(g, state)`` lists every task it may reach, re-executed ones
    included.
    """
    reexec = ExecutionPlan(f_re_ex, f_re_ex)
    pos = _indexed(g, state.mapping)[1]
    for tid in order(g, state):
        if state.redone[pos[tid]]:
            continue
        ok, _ = feasibility_probe(g, state, D, platform, tid, reexec)
        if ok:
            if with_cohort:
                for cid in cohort_of(g, state.mapping, state.windows, tid):
                    if not state.redone[pos[cid]]:
                        feasibility_probe(g, state, D, platform, cid, reexec)
        elif slowdown_on_fail:
            cohort = cohort_of(g, state.mapping, state.windows, tid) if with_cohort else []
            heuristics._slow_group(g, state, D, platform, [tid, *cohort])


def _every_critical_task(g, state):
    return sus_sort(g, state.mapping, state.windows, critical_path_tasks(g, state.mapping, state.windows))


def _every_single(g, state):
    order = _indexed(g, state.mapping)[0]
    return sus_sort(g, state.mapping, state.windows, [tid for tid, x in zip(order, state.redone) if not x])


def _reference_fixpoint(g, state, D, platform, f_re_ex):
    """``_reexec_critical_fixpoint`` on the walks that probe every task."""
    for _ in range(len(g)):
        before = sum(state.redone)
        _reference_critical(g, state, D, platform, f_re_ex)
        after = sum(state.redone)
        if after == before:
            _walk_probing_every_task(g, state, D, platform, f_re_ex, order=_every_single)
            if sum(state.redone) == after:
                break


def _reference_greedy(*args, **kwargs):
    return _walk_probing_every_task(*args, order=lambda g, state: g._by_weight, **kwargs)


def _reference_critical(*args, **kwargs):
    return _walk_probing_every_task(*args, order=_every_critical_task, with_cohort=True, **kwargs)


# Each kind's phases before dead sets, in the order of ``_PHASES``.
_REFERENCE_PHASES = {
    HeuristicKind.A_GREEDY: (_reference_greedy, heuristics._reclaim_redone),
    HeuristicKind.A_SUS_CRIT: (_reference_fixpoint, heuristics._reclaim_redone),
    HeuristicKind.B_GREEDY: (_reference_greedy,),
    HeuristicKind.B_SUS_CRIT: (_reference_critical, _reference_greedy),
    HeuristicKind.B_SUS_CRIT_SLOW: (lambda *args: _reference_critical(*args, slowdown_on_fail=True),
                                    lambda *args: _reference_greedy(*args, slowdown_on_fail=True)),
}


def _integer_instances(p, lambda0, seeds=(1, 2)):
    """Random DAGs with weights 1-4 (so times tie) on p processors, at deadline ratios 1.05, 1.2, 2 and 5."""
    platform = make_platform(lambda0=lambda0)
    for seed in seeds:
        rng = random.Random(seed)
        g0 = generate_random(36, 72, seed=seed)
        g = TaskGraph(tuple(Task(t.id, float(rng.randint(1, 4))) for t in g0.tasks), g0.edges)
        mapping = list_schedule(g, p)
        for ratio in (1.05, 1.2, 2.0, 5.0):
            yield g, mapping, ratio * min_deadline(g, mapping, platform), platform


class TestDeadSets:
    """Walks that skip dead tasks hand on what walks probing every task hand on."""

    @staticmethod
    def _against_references(instances):
        """Each kind's phases and their references on ``instances``; returns (dead tasks, infeasible type-A starts)."""
        dead_seen = infeasible = 0
        for g, mapping, D, platform in instances:
            speeds = derived_speeds(g, mapping, D, platform)
            for kind, reference in _REFERENCE_PHASES.items():
                at_f_dec, phases = _PHASES[kind]
                f = speeds.f_dec if at_f_dec else platform.f_max
                state = heuristics._start(g, mapping, D, platform, speeds, f)
                infeasible += kind in TYPE_A and not state.feasible
                expected = _state_of(g, uniform_schedule(g, mapping, f), D, platform)
                for phase, oracle in zip(phases, reference, strict=True):
                    phase(g, state, D, platform, speeds.f_re_ex)
                    oracle(g, expected, D, platform, speeds.f_re_ex)
                    assert _schedule(g, state).plans == _schedule(g, expected).plans, (kind, D)
                    assert _held(state) == _held(expected), (kind, D)
                dead_seen += len(state.dead)
        return dead_seen, infeasible

    @pytest.mark.parametrize("p", [1, 4, 50])
    @pytest.mark.parametrize("lambda0", [1e-5, 1e-3])
    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_each_phase_equals_the_walk_probing_every_task(self, p, lambda0):
        assert self._against_references(_integer_instances(p, lambda0))[0] > 100

    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_each_phase_equals_the_walk_probing_every_task_from_infeasible_starts(self):
        # At weights up to 1e9 some type-A starts end past the deadline, so
        # the fixpoint's singles sweep runs on an infeasible state.
        _, infeasible = self._against_references(_large_weight_instances())
        assert infeasible > 5, infeasible

    @pytest.mark.parametrize("p", [1, 4, 50])
    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_every_dead_task_is_rejected(self, monkeypatch, p):
        # Whenever a walk reaches a task, and whenever a phase ends, every
        # dead task that runs once is rejected by a real probe on a copy of
        # the walk's state, and by evaluate: a skipped probe, or a task
        # left out of an order, would have been rejected.
        seen = collections.Counter()
        live = heuristics._reexec_live

        def assert_dead(g, state, D, platform, f_re_ex):
            reexec = ExecutionPlan(f_re_ex, f_re_ex)
            sched = _schedule(g, state)
            for tid in state.dead:
                if not sched.plans[tid].re_executed:
                    copy = state.copy()
                    assert not feasibility_probe(g, copy, D, platform, tid, reexec)[0], tid
                    assert copy.windows == state.windows
                    assert not evaluate(g, sched.with_plan(tid, reexec), D, platform).feasible, tid
                    seen["checked"] += 1

        def spied_live(g, state, D, platform, tid, reexec):
            assert_dead(g, state, D, platform, reexec.speed1)
            seen["skipped"] += tid in state.dead
            return live(g, state, D, platform, tid, reexec)

        def checked(phase):
            def wrapper(g, state, D, platform, f_re_ex):
                phase(g, state, D, platform, f_re_ex)
                assert_dead(g, state, D, platform, f_re_ex)
            return wrapper

        phases = {kind: (at_f_dec, tuple(map(checked, steps))) for kind, (at_f_dec, steps) in _PHASES.items()}
        monkeypatch.setattr(heuristics, "_PHASES", phases)
        monkeypatch.setattr(heuristics, "_reexec_live", spied_live)
        for lambda0 in (1e-5, 1e-3):
            for g, mapping, D, platform in _integer_instances(p, lambda0, seeds=(1,)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", ModelValidityWarning)
                    run(HeuristicKind.BEST, g, mapping, D, platform)
        assert seen["skipped"] > 10 and seen["checked"] > 100, seen


class TestFloors:
    def test_floors_are_f_inf_and_kept_on_the_graph(self, platform, monkeypatch):
        g = generate_random(40, 80, seed=5)
        mapping = list_schedule(g, 4)
        D = 3.0 * min_deadline(g, mapping, platform)
        floors = heuristics._floors(g, platform)
        assert floors == {t.id: f_inf(t.weight, platform) for t in g.tasks}
        assert heuristics._floors(g, platform) is floors
        expected = {kind: run(kind, g, mapping, D, platform)[0].plans for kind in (*TYPE_A, *TYPE_B)}
        calls = []

        def counted(w, platform_):
            calls.append(w)
            return f_inf(w, platform_)

        monkeypatch.setattr(heuristics, "f_inf", counted)
        for kind, plans in expected.items():
            assert run(kind, g, mapping, D, platform)[0].plans == plans
        # The reclaims read the floors from the graph.
        assert not calls
        # Another graph fills its own table, once.
        other = generate_random(40, 80, seed=6)
        mapping = list_schedule(other, 4)
        run(HeuristicKind.BEST, other, mapping, 3.0 * min_deadline(other, mapping, platform), platform)
        assert len(calls) == len(other)
