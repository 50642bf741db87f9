"""Discrete-mode (Vdd-hopping) plans: two-speed reduction and conversion."""

import math
import random

import pytest

from conftest import make_platform
from trisched.graph import chain, generate_random
from trisched.heuristics import HeuristicKind, min_deadline, run
from trisched.model import ExecutionPlan
from trisched.schedule import Schedule, evaluate, list_schedule, uniform_schedule
from trisched.vdd import (
    VddInfeasibleError,
    VddPlan,
    continuous_to_vdd,
    reduce_to_two_speeds,
    vdd_schedule_convert,
)


def random_plan(rng: random.Random) -> VddPlan:
    k = rng.randint(3, 6)
    speeds = sorted({round(rng.uniform(0.1, 3.0), 6) for _ in range(k)})
    while len(speeds) < 3:
        speeds.append(speeds[-1] + rng.uniform(0.1, 0.5))
    allocations = tuple((f, rng.uniform(0.1, 2.0)) for f in speeds)
    return VddPlan(allocations)


class TestVddPlan:
    def test_aggregates(self):
        plan = VddPlan(((1.0, 1.0), (2.0, 1.0)))
        assert plan.time == 2.0
        assert plan.work == 3.0
        assert plan.energy == 1.0 + 8.0

    def test_reliability_term_insensitive_platform(self, platform):
        plan = VddPlan(((0.5, 1.0), (0.25, 2.0)))
        # with d=0 the reliability term is just the total time
        assert plan.reliability_term(platform) == pytest.approx(plan.time, rel=1e-12)


class TestReduceToTwoSpeeds:
    def test_worked_example(self):
        plan = VddPlan(((1.0, 1.0), (2.0, 1.0), (3.0, 1.0)))
        assert plan.energy == pytest.approx(36.0)
        out = reduce_to_two_speeds(plan)
        active = [(f, a) for f, a in out.allocations if a > 0]
        assert active == [(2.0, 3.0)]
        assert out.work == pytest.approx(6.0)
        assert out.time == pytest.approx(3.0)
        assert out.energy == pytest.approx(24.0)

    def test_two_speed_plan_unchanged(self):
        plan = VddPlan(((1.0, 1.0), (2.0, 0.5)))
        assert reduce_to_two_speeds(plan).allocations == plan.allocations

    def test_single_speed_plan_unchanged(self):
        plan = VddPlan(((1.5, 2.0),))
        assert reduce_to_two_speeds(plan).allocations == plan.allocations

    def test_conservation_laws_on_random_plans(self, platform):
        rng = random.Random(29)
        for _ in range(200):
            plan = random_plan(rng)
            out = reduce_to_two_speeds(plan)
            active = [(f, a) for f, a in out.allocations if a > 0]
            assert len(active) <= 2
            assert out.work == pytest.approx(plan.work, rel=1e-12)
            assert out.time <= plan.time + 1e-12
            assert out.energy <= plan.energy + 1e-12
            p = make_platform(f_max=3.0, f_rel=2.0, d=1.0)
            assert out.reliability_term(p) <= plan.reliability_term(p) + 1e-12


class TestContinuousToVdd:
    def test_exact_mode_gives_single_speed(self, platform):
        out = continuous_to_vdd(0.5, 2.0, (0.25, 0.5, 1.0), platform)
        active = [(f, a) for f, a in out.allocations if a > 0]
        assert active == [(0.5, pytest.approx(4.0))]

    def test_worked_two_mode_split(self, platform):
        out = continuous_to_vdd(1.5, 3.0, (1.0, 2.0), make_platform(f_max=2.0, f_rel=1.0))
        alloc = dict(out.allocations)
        assert out.time == pytest.approx(2.0, rel=1e-12)
        assert alloc[1.0] == pytest.approx(1.0, rel=1e-12)
        assert alloc[2.0] == pytest.approx(1.0, rel=1e-12)

    def test_insensitive_reliability_matches_continuous(self, platform):
        out = continuous_to_vdd(0.7, 1.3, (0.5, 1.0), platform)
        # with d=0, sum(h_j * alpha_j) is the time, so reliability is unchanged
        assert out.reliability(platform) == pytest.approx(
            1.0 - platform.lambda0 * 1.3 / 0.7, rel=1e-12
        )

    def test_speed_above_fastest_mode_rejected(self, platform):
        with pytest.raises(ValueError):
            continuous_to_vdd(1.5, 1.0, (0.5, 1.0), platform)

    def test_speed_below_slowest_mode_rounds_up(self, platform):
        out = continuous_to_vdd(0.1, 1.0, (0.5, 1.0), platform)
        active = [(f, a) for f, a in out.allocations if a > 0]
        assert active == [(0.5, pytest.approx(2.0))]

    def test_discrete_energy_never_below_continuous(self, platform):
        rng = random.Random(37)
        modes = (0.2, 0.4, 0.6, 0.8, 1.0)
        for _ in range(100):
            f = rng.uniform(0.2, 1.0)
            w = rng.uniform(0.2, 5.0)
            out = continuous_to_vdd(f, w, modes, platform)
            assert out.work == pytest.approx(w, rel=1e-12)
            assert out.time == pytest.approx(w / f, rel=1e-12)
            assert out.energy >= w * f * f - 1e-9


class TestScheduleConversion:
    def _best_schedule(self, platform, seed=51, procs=2, ratio=2.0):
        g = generate_random(20, 30, seed=seed)
        mapping = list_schedule(g, procs)
        D = ratio * min_deadline(g, mapping, platform)
        sched, metrics = run(HeuristicKind.BEST, g, mapping, D, platform)
        return g, sched, metrics, D

    def test_dense_grid_keeps_energy(self, platform):
        g, sched, metrics, D = self._best_schedule(platform)
        speeds = {p.speed1 for p in sched.plans.values()}
        speeds |= {p.speed2 for p in sched.plans.values() if p.speed2}
        modes = tuple(sorted(speeds))
        result = vdd_schedule_convert(g, sched, modes, D, platform)
        assert metrics.feasible and result.feasible
        assert result.energy == pytest.approx(metrics.energy, rel=1e-9)
        assert result.energy_overhead == pytest.approx(0.0, abs=1e-9)

    def test_single_full_speed_mode_reduces_to_full_speed_energy(self, platform):
        g = chain([1.0, 2.0])
        mapping = list_schedule(g, 1)
        D = 2.0 * min_deadline(g, mapping, platform)
        sched, _ = run(HeuristicKind.BEST, g, mapping, D, platform)
        if any(p.re_executed for p in sched.plans.values()):
            sched = uniform_schedule(g, mapping, platform.f_rel)
        result = vdd_schedule_convert(g, sched, (platform.f_max,), D, platform)
        assert evaluate(g, sched, D, platform).feasible and result.feasible
        _, hfmax = run(HeuristicKind.HFMAX, g, mapping, D, platform)
        assert result.energy == pytest.approx(hfmax.energy, rel=1e-12)

    def test_coarse_grid_costs_energy_but_keeps_makespan(self, platform):
        g, sched, metrics, D = self._best_schedule(platform, seed=52, ratio=3.0)
        modes = (0.2, 0.4, 0.6, 0.8, 1.0)
        result = vdd_schedule_convert(g, sched, modes, D, platform)
        assert result.energy >= result.continuous_energy - 1e-9
        assert result.makespan == pytest.approx(metrics.makespan, rel=1e-9)
        assert result.makespan <= D + 1e-9
        assert metrics.feasible and result.feasible

    def test_verdict_reads_the_deadline(self, platform):
        g, sched, metrics, D = self._best_schedule(platform, seed=52, ratio=3.0)
        modes = (0.2, 0.4, 0.6, 0.8, 1.0)
        assert vdd_schedule_convert(g, sched, modes, D, platform).feasible
        assert not vdd_schedule_convert(g, sched, modes, metrics.makespan / 2, platform).feasible

    def test_verdict_reads_reliability(self, platform):
        # Below f_rel a single run misses its threshold, on the mode grid too.
        g = chain([1.0, 2.0])
        f = 0.9 * platform.f_rel
        sched = uniform_schedule(g, list_schedule(g, 1), f)
        assert not evaluate(g, sched, 100.0, platform).feasible
        result = vdd_schedule_convert(g, sched, (f, platform.f_max), 100.0, platform)
        assert result.makespan <= 100.0 and not result.feasible
        assert vdd_schedule_convert(g, sched, (platform.f_rel, platform.f_max), 100.0, platform).feasible

    def test_missing_plan_named(self, platform):
        g = chain([1.0, 2.0])
        sched = Schedule(list_schedule(g, 1), {0: ExecutionPlan(1.0)})
        with pytest.raises(ValueError, match="no execution plan for task 1"):
            vdd_schedule_convert(g, sched, (0.5, 1.0), 10.0, platform)

    def test_mode_floor_above_needed_speed_fails(self, platform):
        g = chain([1.0])
        mapping = list_schedule(g, 1)
        sched = uniform_schedule(g, mapping, platform.f_rel)
        with pytest.raises((VddInfeasibleError, ValueError)):
            vdd_schedule_convert(g, sched, (0.1, 0.2), 1.5, platform)
