"""The run digest of scripts/digest_grid.py sees a one-ulp change and a tie-break (the grid itself is not run)."""

import hashlib
import importlib.util
import math
from pathlib import Path

from trisched.graph import generate_random
from trisched import heuristics
from trisched.heuristics import HeuristicKind, min_deadline, run
from trisched.model import SLACK_TOL, ExecutionPlan
from trisched.schedule import evaluate, list_schedule

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
        current = args[4][-1][-1]  # the round's energy: the state's running sum
        better = [e for e, _ in trials if e < current - SLACK_TOL]
        ties.append(len(better) > 1 and better.count(min(better)) > 1)
        return iter(trials)

    monkeypatch.setattr(heuristics, "swap_reclaims", spy)
    run(HeuristicKind.BEST, g, mapping, D, platform)
    assert any(ties), ties
