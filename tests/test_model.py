"""Speed/energy/reliability model and the single-task exact solver."""

import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_platform, single_task_grid_oracle
from trisched.model import (
    C_REEXEC,
    ExecutionPlan,
    ModelValidityWarning,
    PlatformModel,
    Task,
    compute_c,
    deadline_breakpoints,
    energy,
    exe_time,
    f_inf,
    fault_rate,
    meets_reliability,
    reexec_speed,
    reliability,
    reliability_threshold,
    single_task_optimal,
)


class TestTypes:
    def test_task_requires_positive_weight(self):
        with pytest.raises(ValueError):
            Task(0, 0.0)
        with pytest.raises(ValueError):
            Task(0, -1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                Task(0, bad)

    def test_plan_rejects_non_positive_speeds(self):
        for speeds in ((0.0,), (-1.0,), (math.nan,), (0.5, 0.0), (0.5, -0.5)):
            with pytest.raises(ValueError):
                ExecutionPlan(*speeds)

    def test_platform_validation(self):
        with pytest.raises(ValueError):
            make_platform(f_rel=2.0)  # f_rel above f_max
        with pytest.raises(ValueError):
            PlatformModel(f_min=0.5, f_max=0.1, f_rel=0.05)
        for name in ("lambda0", "d", "f_max"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    make_platform(**{name: bad})

    def test_plan_re_executed_flag(self):
        assert not ExecutionPlan(1.0).re_executed
        assert ExecutionPlan(0.5, 0.5).re_executed


class TestExeTime:
    def test_identity(self):
        assert exe_time(1.0, ExecutionPlan(1.0)) == 1.0

    def test_linear_in_inverse_speed(self):
        assert exe_time(2.0, ExecutionPlan(0.5)) == 4.0

    def test_both_executions_counted(self):
        assert exe_time(1.0, ExecutionPlan(0.5, 0.5)) == 4.0


class TestEnergy:
    def test_unit(self):
        assert energy(1.0, ExecutionPlan(1.0)) == 1.0

    def test_quadratic_in_speed(self):
        assert energy(2.0, ExecutionPlan(3.0)) == 18.0

    def test_both_executions_counted(self):
        assert energy(1.0, ExecutionPlan(0.5, 0.5)) == 0.5


class TestFaultRate:
    def test_constant_when_insensitive(self, platform):
        assert fault_rate(0.3, platform) == platform.lambda0
        assert fault_rate(1.0, platform) == platform.lambda0

    def test_exponential_decay(self):
        p = make_platform(d=1.0)
        assert fault_rate(1.0, p) == pytest.approx(1e-5 * math.exp(-1.0), rel=1e-12)
        # at f_max the rate equals lambda0 * e^{-d * f_max}
        assert fault_rate(p.f_max, p) == pytest.approx(p.lambda0 * math.exp(-p.f_max), rel=1e-12)

    def test_out_of_range_speed_rejected(self, platform):
        with pytest.raises(ValueError):
            fault_rate(platform.f_max * 2, platform)
        with pytest.raises(ValueError):
            fault_rate(platform.f_min / 2, platform)

    def test_non_increasing_in_speed(self):
        p = make_platform(d=2.0)
        speeds = [0.1 + 0.05 * i for i in range(18)]
        rates = [fault_rate(f, p) for f in speeds]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestReliability:
    def test_single_execution(self, platform):
        assert reliability(1.0, ExecutionPlan(1.0), platform) == pytest.approx(
            1.0 - 1e-5, rel=1e-15
        )

    def test_re_execution_combines_failures(self, platform):
        f = 0.5
        got = reliability(1.0, ExecutionPlan(f, f), platform)
        eps = platform.lambda0 * 1.0 / f
        assert got == pytest.approx(1.0 - eps * eps, rel=1e-12)

    def test_validity_warning_for_long_tasks(self, platform):
        # lambda(f) * w / f = 1e-5 * 2000 = 0.02 > 0.01 -> model caveat
        with pytest.warns(ModelValidityWarning):
            reliability(2000.0, ExecutionPlan(1.0), platform)

    def test_no_warning_for_short_tasks(self, platform):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reliability(10.0, ExecutionPlan(1.0), platform)

    def test_non_decreasing_in_speed(self, platform):
        speeds = [0.2 + 0.1 * i for i in range(9)]
        rels = [reliability(1.0, ExecutionPlan(f), platform) for f in speeds]
        assert all(a <= b for a, b in zip(rels, rels[1:]))


class TestMeetsReliability:
    def test_at_threshold_speed(self, platform):
        assert meets_reliability(1.0, ExecutionPlan(platform.f_rel), platform)

    def test_below_threshold_speed(self, platform):
        assert not meets_reliability(1.0, ExecutionPlan(platform.f_rel * 0.9), platform)

    def test_re_execution_at_f_inf_is_the_equality_point(self, platform):
        w = 2.5
        fi = f_inf(w, platform)
        plan = ExecutionPlan(fi, fi)
        assert meets_reliability(w, plan, platform)
        r = reliability(w, plan, platform)
        assert r == pytest.approx(reliability_threshold(w, platform), abs=1e-12)


class TestFInf:
    def test_closed_form_when_insensitive(self, platform):
        assert f_inf(1.0, platform) == pytest.approx(
            math.sqrt(1e-5 * 2.0 / 3.0), rel=1e-9
        )

    def test_residual_is_a_root(self):
        p = make_platform(d=1.5)
        for w in (0.3, 1.0, 7.0):
            fi = f_inf(w, p)
            lhs = p.lambda0 * w * math.exp(-2.0 * p.d_sensitivity * fi) / (fi * fi)
            rhs = math.exp(-p.d_sensitivity * p.f_rel) / p.f_rel
            assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_sqrt_scaling_in_work(self, platform):
        assert f_inf(4.0, platform) == pytest.approx(2.0 * f_inf(1.0, platform), rel=1e-9)

    @given(st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=50, deadline=None)
    def test_matches_closed_form_for_any_work(self, w):
        p = make_platform()
        assert f_inf(w, p) == pytest.approx(math.sqrt(p.lambda0 * w * p.f_rel), rel=1e-9)


class TestReExecConstant:
    def test_value(self):
        c = compute_c()
        assert 0.2837 <= c <= 0.2839

    def test_polynomial_residual(self):
        c = compute_c()
        assert abs(7.0 * c ** 3 + 21.0 * c ** 2 - 3.0 * c - 1.0) <= 1e-12

    def test_reexec_speed_fraction(self):
        p = make_platform(f_max=2.0, f_rel=1.0)
        assert reexec_speed(p) == pytest.approx(0.4421, abs=1e-4)
        assert reexec_speed(p) == 2.0 * C_REEXEC / (1.0 + C_REEXEC)


class TestSingleTaskOptimal:
    """Worked examples at w=1, f_max=1, f_rel=2/3, d=0, lambda0=1e-5."""

    def test_too_tight_is_infeasible(self, platform):
        res = single_task_optimal(1.0, 0.5, platform)
        assert not res.feasible

    def test_nan_deadline_rejected(self, platform):
        with pytest.raises(ValueError):
            single_task_optimal(1.0, math.nan, platform)

    def test_once_at_deadline_speed(self, platform):
        res = single_task_optimal(1.0, 1.2, platform)
        assert res.feasible and not res.plan.re_executed
        assert res.plan.speed1 == pytest.approx(1.0 / 1.2, rel=1e-12)
        assert res.energy == pytest.approx(1.0 / 1.44, rel=1e-12)

    def test_once_at_reliability_speed(self, platform):
        res = single_task_optimal(1.0, 3.0, platform)
        assert res.feasible and not res.plan.re_executed
        assert res.plan.speed1 == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert res.energy == pytest.approx(4.0 / 9.0, rel=1e-12)

    def test_twice_at_deadline_speed(self, platform):
        res = single_task_optimal(1.0, 5.0, platform)
        assert res.feasible and res.plan.re_executed
        assert res.plan.speed1 == pytest.approx(0.4, rel=1e-12)
        assert res.plan.speed2 == pytest.approx(0.4, rel=1e-12)
        assert res.energy == pytest.approx(0.32, rel=1e-12)

    def test_twice_at_f_inf_for_loose_deadlines(self, platform):
        fi = f_inf(1.0, platform)
        res = single_task_optimal(1.0, 10.0 / fi, platform)
        assert res.plan.re_executed
        assert res.plan.speed1 == pytest.approx(fi, rel=1e-9)
        assert res.energy == pytest.approx(2.0 * fi * fi, rel=1e-9)

    def test_invalid_arguments(self, platform):
        with pytest.raises(ValueError):
            single_task_optimal(0.0, 1.0, platform)
        with pytest.raises(ValueError):
            single_task_optimal(1.0, 0.0, platform)

    def test_matches_grid_search_oracle(self, platform):
        rng = random.Random(7)
        for _ in range(25):
            w = rng.uniform(0.1, 10.0)
            d0 = w / platform.f_max
            D = d0 * rng.uniform(1.0, 4.0 / f_inf(w, platform))
            res = single_task_optimal(w, D, platform)
            oracle = single_task_grid_oracle(w, D, platform)
            assert res.feasible
            assert res.energy == pytest.approx(oracle, rel=1e-6)

    def test_energy_non_increasing_in_deadline(self, platform):
        w = 2.0
        prev = math.inf
        d = w / platform.f_max
        for i in range(60):
            res = single_task_optimal(w, d * (1.0 + 0.25 * i), platform)
            assert res.energy <= prev + 1e-12
            prev = res.energy

    def test_empty_reexec_window_forbids_re_execution(self):
        # a huge work pushes f_inf above f_rel/sqrt(2): re-execution never pays
        p = make_platform()
        w = 40000.0
        assert f_inf(w, p) >= p.f_rel / math.sqrt(2.0)
        res = single_task_optimal(w, 1e9, p)
        assert res.feasible and not res.plan.re_executed
        assert res.plan.speed1 == pytest.approx(p.f_rel, rel=1e-12)


class TestDeadlineBreakpoints:
    def test_strictly_increasing(self, platform):
        for w in (0.2, 1.0, 5.0):
            d0, d1, d2, d3 = deadline_breakpoints(w, platform)
            assert d0 < d1 < d2 < d3

    def test_values(self, platform):
        d0, d1, d2, d3 = deadline_breakpoints(1.0, platform)
        assert d0 == pytest.approx(1.0, rel=1e-12)
        assert d1 == pytest.approx(1.5, rel=1e-12)
        assert d2 == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-12)
        assert d3 == pytest.approx(2.0 / f_inf(1.0, platform), rel=1e-12)
