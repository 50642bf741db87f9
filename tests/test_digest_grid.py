"""The run digest of scripts/digest_grid.py sees a one-ulp change, and its grid reaches ties, infeasible kinds and reliability rejections (the grid itself is not run)."""

import hashlib
import importlib.util
import math
from pathlib import Path

import pytest

from trisched.graph import generate_random
from trisched import heuristics
from trisched.heuristics import HeuristicKind, min_deadline, run
from trisched.model import SLACK_TOL, ExecutionPlan
from trisched.schedule import Schedule, _indexed, evaluate, list_schedule, schedule_energy

_spec = importlib.util.spec_from_file_location(
    "digest_grid", Path(__file__).resolve().parent.parent / "scripts" / "digest_grid.py"
)
digest_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest_grid)


def _digest(schedule, D, platform, g):
    hasher = hashlib.sha256()
    digest_grid.add_run(hasher, "case", schedule, evaluate(g, schedule, D, platform))
    return hasher.hexdigest()


def test_one_ulp_of_one_speed_changes_the_digest(platform):
    g = generate_random(30, 60, seed=1)
    mapping = list_schedule(g, 4)
    D = 2.0 * min_deadline(g, mapping, platform)
    sched, _ = run(HeuristicKind.BEST, g, mapping, D, platform)
    tid = next(t for t, plan in sched.plans.items() if not plan.re_executed)
    nudged = sched.with_plan(tid, ExecutionPlan(math.nextafter(sched.plans[tid].speed1, 0.0)))
    assert _digest(sched, D, platform, g) == _digest(sched, D, platform, g)
    assert _digest(nudged, D, platform, g) != _digest(sched, D, platform, g)


def test_an_integer_weight_instance_has_a_tied_unjam_round(monkeypatch):
    # Two swaps of one unjam round that both lower the energy, to the same
    # float: which of them is kept shows only in a digest of such a grid.
    label = ("int", 30, 60, 1, 4, 1e-05, 5.0)
    _, g, mapping, D, platform = next(inst for inst in digest_grid.grid_instances() if inst[0] == label)
    ties = []
    trials_of = heuristics.swap_reclaims

    def spy(*args):
        trials = list(trials_of(*args))
        # The round's energy, from the state's speeds and re-execution flags.
        speeds, redone, _ = args[4]
        order = _indexed(g, mapping)[0]
        plans = {tid: ExecutionPlan(f, f) if x else ExecutionPlan(f) for tid, f, x in zip(order, speeds, redone)}
        current = schedule_energy(g, Schedule(mapping, plans))
        better = [e for e, _ in trials if e < current - SLACK_TOL]
        ties.append(len(better) > 1 and better.count(min(better)) > 1)
        return iter(trials)

    monkeypatch.setattr(heuristics, "swap_reclaims", spy)
    run(HeuristicKind.BEST, g, mapping, D, platform)
    assert any(ties), ties


def test_a_large_weight_instance_has_an_infeasible_kind():
    # Near times of 1e9 a float's last bit is above SLACK_TOL, so a slow-down
    # that fills its window exactly can end past the deadline: the grid then
    # sees how an infeasible state is carried to the verdict.
    label = ("big", 30, 60, 1, 1, 1e-14, 1.2)
    _, g, mapping, D, platform = next(inst for inst in digest_grid.grid_instances() if inst[0] == label)
    infeasible = [kind for kind in heuristics.ALL_HEURISTICS if not run(kind, g, mapping, D, platform)[1].feasible]
    assert infeasible == [HeuristicKind.B_GREEDY, HeuristicKind.B_SUS_CRIT]


@pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
def test_a_model_instance_has_a_probe_rejected_on_reliability(monkeypatch):
    # At lambda0 = 2e-2, f_inf of a heavy task is above f_re_ex, so its
    # re-execution probe fails the task's own rules: the grid then sees the
    # probe's reliability rejection.
    label = ("model", 30, 60, 1, 1, digest_grid.MODELS[2], 2.0)
    _, g, mapping, D, platform = next(inst for inst in digest_grid.grid_instances() if inst[0] == label)
    verdicts = []
    task_feasible = heuristics.task_feasible

    def spy(*args):
        verdicts.append(task_feasible(*args))
        return verdicts[-1]

    monkeypatch.setattr(heuristics, "task_feasible", spy)
    run(HeuristicKind.BEST, g, mapping, D, platform)
    assert False in verdicts
