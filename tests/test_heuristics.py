"""The seven scheduling heuristics, the best-of selector, and the probe."""

import math
import random

import pytest

from conftest import make_platform, random_instance
from trisched.graph import chain, generate_random
from trisched.heuristics import (
    ALL_HEURISTICS,
    TYPE_A,
    TYPE_B,
    HeuristicKind,
    derived_speeds,
    feasibility_probe,
    min_deadline,
    run,
)
from trisched.model import SLACK_TOL, ExecutionPlan, f_inf, reexec_speed
from trisched.schedule import evaluate, list_schedule, time_windows, uniform_schedule


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

    def test_min_deadline_is_full_speed_makespan(self, platform):
        g = chain([1.0, 2.0])
        assert min_deadline(g, list_schedule(g, 1), platform) == pytest.approx(3.0)


class TestFeasibilityProbe:
    def test_noop_on_feasible_schedule(self, platform):
        g = chain([1.0])
        sched = uniform_schedule(g, list_schedule(g, 1), 1.0)
        ok, out = feasibility_probe(g, sched, 2.0, platform, {})
        assert ok and out is sched or out.plans == sched.plans

    def test_re_execution_past_deadline_rejected(self, platform):
        g = chain([1.0])
        sched = uniform_schedule(g, list_schedule(g, 1), 1.0)
        f = reexec_speed(platform)
        ok, out = feasibility_probe(
            g, sched, 2.0, platform, {0: ExecutionPlan(f, f)}
        )
        assert not ok
        assert out.plans == sched.plans

    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_re_execution_below_f_inf_rejected_on_reliability(self, platform):
        # with enough work, f_inf exceeds f_re_ex and the probe must refuse
        w = 20000.0
        assert f_inf(w, platform) > reexec_speed(platform)
        g = chain([w])
        sched = uniform_schedule(g, list_schedule(g, 1), 1.0)
        f = reexec_speed(platform)
        ok, _ = feasibility_probe(
            g, sched, 1e9, platform, {0: ExecutionPlan(f, f)}
        )
        assert not ok

    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_verdict_equals_evaluate(self):
        # Probes of every kind against heuristic outputs and against slack-rich
        # full-speed schedules; the verdict must be evaluate's, bit for bit.
        near = {True: 0, False: 0}
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
            est, lft = time_windows(g, sched, D, platform)
            f_re_ex = reexec_speed(platform)
            ids = [t.id for t in g.tasks]

            def probe(deltas, D=D, base=sched):
                ok, out = feasibility_probe(g, base, D, platform, deltas)
                candidate = base.with_plans(deltas)
                assert ok == evaluate(g, candidate, D, platform).feasible, (case, deltas)
                assert out.plans == (candidate if ok else base).plans
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
                    near[probe({tid: plan})] += 1
                f = rng.uniform(0.2, 1.2)
                probe({tid: ExecutionPlan(f)})
                probe({tid: ExecutionPlan(f, f)})
                probe({tid: ExecutionPlan(f_re_ex, f_re_ex)})  # fails reliability when f_inf > f_re_ex
                probe({tid: ExecutionPlan(0.9 * platform.f_rel)})  # single run below f_rel
                probe({tid: ExecutionPlan(1.5 * platform.f_max)})  # speed fault
                hi = platform.f_rel / math.sqrt(2.0)
                probe({tid: ExecutionPlan(hi, hi)})  # speed fault
                probe({})
                probe({tid: ExecutionPlan(f), rng.choice(ids): ExecutionPlan(f_re_ex, f_re_ex)})
                # An infeasible current schedule: past a shorter deadline, or
                # with one task slowed far past its window.
                probe({tid: ExecutionPlan(platform.f_max)}, D=0.9 * D)
                slowed = sched.with_plan(rng.choice(ids), ExecutionPlan(0.01))
                probe({tid: ExecutionPlan(platform.f_max)}, base=slowed)
        assert near[True] > 100 and near[False] > 100


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

    def test_nan_deadline_rejected(self, platform):
        g = chain([1.0, 1.0])
        mapping = list_schedule(g, 1)
        for kind in (*ALL_HEURISTICS, HeuristicKind.BEST):
            with pytest.raises(ValueError):
                run(kind, g, mapping, math.nan, platform)


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
