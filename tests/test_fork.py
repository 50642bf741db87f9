"""Exact solvers for independent tasks and fork graphs, plus the closed form."""

import hashlib
import importlib
import math
import random

import pytest

from conftest import fork_grid_oracle, make_platform, single_task_grid_oracle
from trisched.fork import (
    ClosedFormNotApplicable,
    fork_optimal,
    identical_fork_closed_form,
    identical_fork_validity_bound,
    independent_tasks_optimal,
)
from trisched.model import PlatformModel, Task, single_task_optimal

# ``trisched.fork`` the attribute is ``graph.fork``; the solver module is here.
fork_module = importlib.import_module("trisched.fork")


class TestIndependentTasks:
    def test_one_task_equals_single_task_optimal(self, platform):
        plans, total = independent_tasks_optimal([Task(0, 2.0)], 4.0, platform)
        res = single_task_optimal(2.0, 4.0, platform)
        assert plans[0] == res.plan and total == res.energy

    def test_identical_tasks_get_identical_plans(self, platform):
        tasks = [Task(i, 1.5) for i in range(4)]
        plans, _ = independent_tasks_optimal(tasks, 3.0, platform)
        assert len({(p.speed1, p.speed2) for p in plans.values()}) == 1

    def test_total_matches_per_task_grid_oracle(self, platform):
        rng = random.Random(5)
        tasks = [Task(i, rng.uniform(0.5, 5.0)) for i in range(3)]
        D = 6.0
        _, total = independent_tasks_optimal(tasks, D, platform)
        oracle = sum(single_task_grid_oracle(t.weight, D, platform) for t in tasks)
        assert total == pytest.approx(oracle, rel=1e-6)

    def test_infeasible_when_any_task_is(self, platform):
        plans, total = independent_tasks_optimal(
            [Task(0, 1.0), Task(1, 10.0)], 2.0, platform
        )
        assert plans is None and total == math.inf


class TestForkOptimal:
    def test_identical_fork_worked_example(self, platform):
        # w=1 everywhere, two leaves, D=2.2: source at f_max, leaves at 1/1.2
        sol = fork_optimal(1.0, [Task(1, 1.0), Task(2, 1.0)], 2.2, platform)
        assert sol.feasible
        assert sol.plans[0].speed1 == pytest.approx(1.0, rel=1e-9)
        for leaf in (1, 2):
            assert sol.plans[leaf].speed1 == pytest.approx(1.0 / 1.2, rel=1e-9)
        assert sol.d2 == pytest.approx(1.2, rel=1e-9)

    def test_symmetric_two_task_split(self, platform):
        # equal works, both in the deadline-bound regime: split evenly
        sol = fork_optimal(1.0, [Task(1, 1.0)], 2.4, platform)
        assert sol.feasible
        assert sol.d2 == pytest.approx(1.2, rel=1e-9)

    def test_infeasible_deadline(self, platform):
        sol = fork_optimal(1.0, [Task(1, 1.0)], 1.5, platform)
        assert not sol.feasible and sol.energy == math.inf

    def test_nan_deadline_rejected(self, platform):
        with pytest.raises(ValueError):
            fork_optimal(1.0, [Task(1, 1.0)], math.nan, platform)

    @pytest.mark.parametrize("D", [math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_deadline_that_is_not_finite_and_positive_rejected(self, platform, D, n):
        with pytest.raises(ValueError, match="deadline must be finite and positive"):
            fork_optimal(1.0, [Task(i + 1, 1.0) for i in range(n)], D, platform)

    def test_source_lighter_than_the_tolerance_gets_no_share(self, platform):
        # lo = 1 and hi = 1 - 1e-12 lie within SLACK_TOL, so the split hi = lo
        # leaves the source D - hi = 0.
        with pytest.raises(ValueError, match="source's deadline share"):
            fork_optimal(1e-12, [Task(1, 1.0)], 1.0, platform)

    def test_weights_whose_cubes_overflow_get_a_split(self, platform):
        # Both K terms overflow to inf; their NaN stationary point falls back
        # to the interval's left end, and the interval's ends are scored.
        sol = fork_optimal(1e103, [Task(1, 1e103)], 4e103, platform)
        assert sol.feasible and 0.0 < sol.d2 < 4e103
        assert sol.energy == 2.0 * 1e103 * platform.f_rel * platform.f_rel

    def test_no_leaves_degenerates_to_single_task(self, platform):
        sol = fork_optimal(1.0, [], 3.0, platform)
        res = single_task_optimal(1.0, 3.0, platform)
        assert sol.feasible and sol.energy == res.energy

    def test_matches_grid_search_oracle(self, platform):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(1, 5)
            w0 = rng.uniform(0.3, 3.0)
            leaf_w = [rng.uniform(0.3, 3.0) for _ in range(n)]
            dmin = w0 + max(leaf_w)
            D = dmin * rng.uniform(1.05, 4.0)
            sol = fork_optimal(w0, [Task(i + 1, w) for i, w in enumerate(leaf_w)], D, platform)
            oracle = fork_grid_oracle(w0, leaf_w, D, platform)
            assert sol.feasible
            assert sol.energy == pytest.approx(oracle, rel=1e-6)

    def test_energy_non_increasing_in_deadline(self, platform):
        leaves = [Task(1, 1.0), Task(2, 2.0)]
        prev = math.inf
        for k in range(20):
            D = 3.0 + 0.8 * k
            sol = fork_optimal(1.0, leaves, D, platform)
            assert sol.energy <= prev + 1e-12
            prev = sol.energy

    def test_energy_is_sum_of_plan_energies(self, platform):
        sol = fork_optimal(1.0, [Task(1, 2.0), Task(2, 1.0)], 6.0, platform)
        total = sum(
            (2.0 if tid == 1 else 1.0)
            * (p.speed1 ** 2 + (p.speed2 ** 2 if p.speed2 else 0.0))
            for tid, p in sol.plans.items()
        )
        assert sol.energy == pytest.approx(total, rel=1e-12)


def _fork_grid():
    """400 fixed random forks of 0-8 leaves (a quarter with identical leaves) over varied models."""
    rng = random.Random(2011)
    for _ in range(400):
        platform = PlatformModel(
            f_min=1e-6, f_max=1.0, f_rel=rng.choice((0.5, 2.0 / 3.0, 0.8)),
            lambda0=rng.choice((1e-5, 1e-3, 0.023)), d_sensitivity=rng.choice((0.0, 0.5)),
        )
        w0 = rng.uniform(0.3, 10.0)
        n = rng.randint(0, 8)
        if rng.random() < 0.25:
            leaves = [rng.uniform(0.3, 10.0)] * n
        else:
            leaves = [rng.uniform(0.3, 10.0) for _ in range(n)]
        D = rng.uniform(0.8, 8.0) * (w0 + max(leaves, default=0.0)) / platform.f_max
        yield w0, [Task(i + 1, w) for i, w in enumerate(leaves)], D, platform


def _wide_fork_grid():
    """96 fixed random forks of 12-20 leaves at the benchmark's exact deadline ratios.

    The same models as ``_fork_grid`` (a quarter with identical leaves), at
    the leaf counts where a split shares the most breakpoints.
    """
    rng = random.Random(2012)
    for _ in range(24):
        platform = PlatformModel(
            f_min=1e-6, f_max=1.0, f_rel=rng.choice((0.5, 2.0 / 3.0, 0.8)),
            lambda0=rng.choice((1e-5, 1e-3, 0.023)), d_sensitivity=rng.choice((0.0, 0.5)),
        )
        w0 = rng.uniform(0.3, 10.0)
        n = rng.randint(12, 20)
        if rng.random() < 0.25:
            leaves = [rng.uniform(0.3, 10.0)] * n
        else:
            leaves = [rng.uniform(0.3, 10.0) for _ in range(n)]
        for ratio in (1.5, 2.0, 3.0, 5.0):
            D = ratio * (w0 + max(leaves)) / platform.f_max
            yield w0, [Task(i + 1, w) for i, w in enumerate(leaves)], D, platform


def _outputs_digest(forks) -> str:
    h = hashlib.sha256()
    for w0, leaves, D, platform in forks:
        sol = fork_optimal(w0, leaves, D, platform)
        plans = sorted((k, p.speed1, p.speed2) for k, p in sol.plans.items())
        h.update(repr((sol.feasible, sol.energy, sol.d2, plans)).encode())
    return h.hexdigest()


class TestForkOptimalOutputs:
    # sha256 of the grid's outputs from a solver that built a
    # SingleTaskResult for every task at every candidate split: scoring
    # through the shared case decision must keep every bit.
    GOLDEN = "a3bca5ee600be2f9b34a128f04c80f6c55ead03ed34962b5fa842f91b7c0387b"

    # sha256 of the wide grid's outputs from the solver that scored every
    # split through model._single_task_case.
    WIDE_GOLDEN = "6e3ca7866b2f21ad9264ee402b9dac3bfabee5780834f524702f4a45ca423c1d"

    def test_outputs_match_the_golden_digest(self):
        assert _outputs_digest(_fork_grid()) == self.GOLDEN

    def test_wide_fork_outputs_match_their_golden_digest(self):
        assert _outputs_digest(_wide_fork_grid()) == self.WIDE_GOLDEN

    def test_solver_calls_do_not_grow_with_the_candidate_splits(self, platform, monkeypatch):
        # Each call of single_task_optimal or f_inf is a span in a traced
        # benchmark run: scoring a candidate split must make none, so one
        # solve makes at most one of each per task. Splits are scored from
        # the per-task rows, so _single_task_case builds the winner's plans
        # only: one call per task.
        calls = {"single_task_optimal": 0, "f_inf": 0, "_single_task_case": 0}
        for name in calls:
            original = getattr(fork_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(fork_module, name, counted)
        rng = random.Random(7)
        for n in (1, 4, 15):
            leaves = [Task(i + 1, rng.uniform(0.5, 10.0)) for i in range(n)]
            w0 = rng.uniform(0.5, 10.0)
            for ratio in (0.9, 1.5, 2.0, 3.0, 5.0, 50.0):
                for name in calls:
                    calls[name] = 0
                fork_optimal(w0, leaves, ratio * (w0 + max(t.weight for t in leaves)), platform)
                for name in calls:
                    assert calls[name] <= n + 1, (name, n, ratio)


class TestIdenticalForkClosedForm:
    def test_requires_two_leaves(self, platform):
        with pytest.raises(ClosedFormNotApplicable):
            identical_fork_closed_form(1.0, 1, 2.0, platform)

    def test_out_of_validity_range_rejected(self, platform):
        bound = identical_fork_validity_bound(1.0, 2, platform)
        with pytest.raises(ClosedFormNotApplicable):
            identical_fork_closed_form(1.0, 2, bound * 1.5, platform)

    def test_too_tight_is_infeasible(self, platform):
        sol = identical_fork_closed_form(1.0, 2, 1.9, platform)  # < 2w/f_max
        assert not sol.feasible

    def test_reliability_bound_regime(self, platform):
        # leaves pinned at f_rel, source picks up the rest of the deadline
        n, w = 2, 1.0
        frel = platform.f_rel
        lo = (w / frel) * (1.0 + n ** (1.0 / 3.0)) / n ** (1.0 / 3.0)
        D = 0.5 * (lo + 2.0 * w / frel)
        sol = identical_fork_closed_form(w, n, D, platform)
        assert sol.plans[1].speed1 == pytest.approx(frel, rel=1e-12)
        assert sol.plans[0].speed1 == pytest.approx(w * frel / (D * frel - w), rel=1e-12)

    def test_source_never_slower_than_leaves(self, platform):
        for n in (2, 3, 5):
            bound = identical_fork_validity_bound(1.0, n, platform)
            for frac in (0.35, 0.6, 0.9, 1.0):
                D = max(2.0 / platform.f_max + 1e-6, bound * frac)
                sol = identical_fork_closed_form(1.0, n, D, platform)
                if sol.feasible:
                    assert sol.plans[0].speed1 >= sol.plans[1].speed1 - 1e-12

    def test_matches_general_solver_inside_validity_range(self, platform):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(2, 5)
            w = rng.uniform(0.5, 3.0)
            bound = identical_fork_validity_bound(w, n, platform)
            D = rng.uniform(2.0 * w / platform.f_max * 1.01, bound)
            cf = identical_fork_closed_form(w, n, D, platform)
            general = fork_optimal(w, [Task(i + 1, w) for i in range(n)], D, platform)
            assert cf.feasible == general.feasible
            if cf.feasible:
                assert cf.energy == pytest.approx(general.energy, rel=1e-9)
