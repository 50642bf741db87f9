"""The seven scheduling heuristics, the best-of selector, and the probe."""

import collections
import math
import random
import warnings

import pytest

from conftest import make_platform, random_instance
from trisched.graph import chain, generate_random
from test_schedule import _reclaim_case
from trisched import heuristics
from trisched.heuristics import (
    _PHASES,
    ALL_HEURISTICS,
    TYPE_A,
    TYPE_B,
    HeuristicKind,
    _reexecuted,
    _singles,
    _slow_single,
    _unjam_singles,
    derived_speeds,
    feasibility_probe,
    min_deadline,
    run,
)
from trisched.model import SLACK_TOL, ExecutionPlan, ModelValidityWarning, f_inf, reexec_speed
from trisched.schedule import (
    Schedule,
    _indexed,
    _window_state,
    cohort_of,
    evaluate,
    list_schedule,
    schedule_energy,
    slack_reclaim,
    swap_reclaims,
    uniform_schedule,
)


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
            order = _indexed(g, mapping)[0]
            est, _, lft, _ = (dict(zip(order, values)) for values in _window_state(g, sched, D, platform))
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
    """The earlier _unjam_singles, which reclaimed every trial in full.

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


def _type_b_starts(platform, case):
    """The schedules type-B walks hand to _unjam_singles, on _reclaim_case's DAG and deadline."""
    g, sched, D, _, _ = _reclaim_case(platform, case)
    f_re_ex = derived_speeds(g, sched.mapping, D, platform).f_re_ex
    for kind in TYPE_B:
        _, phases = _PHASES[kind]
        start = uniform_schedule(g, sched.mapping, platform.f_max)
        for phase in phases[: phases.index(_unjam_singles)]:
            start = phase(g, start, D, platform, f_re_ex)
        yield g, start, D, f_re_ex


class TestUnjamFromBaseWindows:
    def test_each_trial_equals_a_full_reclaim(self, platform):
        trials = moved = 0
        for case in range(0, 24, 2):
            for g, start, D, _ in _type_b_starts(platform, case):
                base = slack_reclaim(g, start, D, platform, _singles(start), {})
                rids = _reexecuted(base)
                for rid, (e, changes) in zip(rids, swap_reclaims(g, base, D, platform, rids)):
                    trial = base.with_plan(rid, ExecutionPlan(platform.f_rel))
                    expected = slack_reclaim(g, trial, D, platform, _singles(trial), {})
                    assert base.with_plans(changes).plans == expected.plans, (case, rid)
                    assert e == schedule_energy(g, expected), (case, rid)
                    trials += 1
                    moved += len(changes) > 1
        # Some swaps must free slack that other single runs take up.
        assert trials > 100 and moved > 10

    @pytest.mark.parametrize("case", range(24))
    def test_same_schedule_as_full_reclaims(self, platform, case):
        swapped = 0
        for g, start, D, f_re_ex in _type_b_starts(platform, case):
            expected = _unjam_singles_full_reclaims(g, start, D, platform, f_re_ex)
            out = _unjam_singles(g, start, D, platform, f_re_ex)
            assert out.plans == expected.plans
            assert schedule_energy(g, out) == schedule_energy(g, expected)
            first = slack_reclaim(g, start, D, platform, _singles(start), {})
            swapped += any(not expected.plans[tid].re_executed for tid in _reexecuted(first))
        if case % 3 == 0:
            # On one processor all tasks lie on one chain; every such case swaps.
            assert swapped


class TestSlowSingle:
    def test_equals_one_target_reclaim(self, platform):
        slowed = 0
        for case in range(12):
            rng = random.Random(case)
            for g, sched, D, f_re_ex in _type_b_starts(platform, case):
                singles = _singles(sched)
                for tid in rng.sample(singles, min(len(singles), 8)):
                    # A memo from a probe of sched, a stale one (the full-speed
                    # schedule of the same mapping was probed last, and
                    # rejected), and the live one an accept moves along.
                    memo = rng.choice(("fresh", "stale", "accepted"))
                    if memo == "fresh":
                        feasibility_probe(g, sched, D, platform, {tid: ExecutionPlan(f_re_ex, f_re_ex)})
                    elif memo == "stale":
                        other = uniform_schedule(g, sched.mapping, platform.f_max)
                        ok, _ = feasibility_probe(g, other, D, platform, {tid: ExecutionPlan(0.5 * platform.f_rel)})
                        assert not ok and heuristics._last_probed[5] is not None
                    else:
                        _, sched = feasibility_probe(g, sched, D, platform, {tid: ExecutionPlan(platform.f_rel)})
                    expected = slack_reclaim(g, sched, D, platform, [tid], {})
                    out = _slow_single(g, sched, D, platform, tid)
                    assert out.plans == expected.plans, (case, tid, memo)
                    slowed += out.plans != sched.plans
        assert slowed > 20

    def test_infeasible_schedule_gets_the_full_reclaim(self, platform):
        g = generate_random(30, 60, seed=3)
        mapping = list_schedule(g, 4)
        D = 2.0 * min_deadline(g, mapping, platform)
        sched = uniform_schedule(g, mapping, platform.f_max).with_plan(0, ExecutionPlan(0.5 * platform.f_rel))
        assert not evaluate(g, sched, D, platform).feasible
        for tid in range(1, len(g)):
            assert _slow_single(g, sched, D, platform, tid).plans == slack_reclaim(g, sched, D, platform, [tid], {}).plans


class TestLiveWindows:
    """The probe's memo stays equal to a fresh computation across a whole walk."""

    @pytest.mark.parametrize("case", range(0, 24, 2))
    def test_memo_equals_fresh_windows_after_every_change(self, platform, case, monkeypatch):
        g, start, D, _, _ = _reclaim_case(platform, case)
        seen = {"accept": 0, "slow": 0, "cohort": 0}

        def assert_memo_is(sched):
            # The memo describes sched, and equals fresh windows and evaluate.
            mapping, _, _, _, plans, state = heuristics._last_probed
            assert mapping is sched.mapping and plans == sched.plans
            metrics = evaluate(g, sched, D, platform)
            assert (state is not None) == metrics.feasible
            if state is not None:
                order = _indexed(g, sched.mapping)[0]
                assert dict(zip(order, state[0])) == metrics.start_times
                assert dict(zip(order, state[1])) == metrics.finish_times
                assert state == _window_state(g, sched, D, platform)

        def probe(g_, sched, D_, platform_, deltas):
            ok, out = feasibility_probe(g_, sched, D_, platform_, deltas)
            assert ok == evaluate(g, sched.with_plans(deltas), D, platform).feasible
            assert_memo_is(out)
            seen["accept"] += ok
            return ok, out

        def slow(g_, sched, D_, platform_, tid):
            out = _slow_single(g_, sched, D_, platform_, tid)
            if heuristics._last_probed[4] == out.plans:
                assert_memo_is(out)
                seen["slow"] += out.plans != sched.plans
            return out

        def cohort(g_, start_times, finish_times, tid):
            out = cohort_of(g_, start_times, finish_times, tid)
            mapping, _, _, _, plans, _ = heuristics._last_probed
            metrics = evaluate(g, Schedule(mapping, dict(plans)), D, platform)
            assert start_times == metrics.start_times and finish_times == metrics.finish_times
            assert out == cohort_of(g, metrics.start_times, metrics.finish_times, tid)
            seen["cohort"] += 1
            return out

        monkeypatch.setattr(heuristics, "feasibility_probe", probe)
        monkeypatch.setattr(heuristics, "_slow_single", slow)
        monkeypatch.setattr(heuristics, "cohort_of", cohort)
        for kind in (*TYPE_A, *TYPE_B):
            run(kind, g, start.mapping, D, platform)
        assert seen["accept"] > 0 and seen["cohort"] > 0
        if case % 3 == 0:
            # On one processor b.sus-crit-slow always has rejected tasks to slow.
            assert seen["slow"] > 0
