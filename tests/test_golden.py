"""Golden outputs: a small sweep, every heuristic's plans and one vdd
conversion, pinned to the last bit.

The rows were produced by ``harness.sweep_records`` before the augmented DAG
was memoised, and must not change under refactors that keep the model: every
column but ``ms`` is compared through its exact ``repr``. The per-heuristic
digests were produced before the heuristics became a phase table.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from trisched.graph import generate_random
from trisched.harness import ExperimentConfig, sweep_records
from trisched.heuristics import ALL_HEURISTICS, HeuristicKind, min_deadline, run
from trisched.schedule import list_schedule
from trisched.vdd import vdd_schedule_convert

from conftest import make_platform

# (ratio, procs, frel, lambda0, heuristic, norm_energy, makespan, feasible)
GOLDEN_SWEEP = [
    (1.0, 1, 0.6666666666666666, 1e-05, 'hfmax', '1.0', '141.4238920753429', 2),
    (1.0, 1, 0.6666666666666666, 1e-05, 'hno-reex', '1.0', '141.4238920753429', 2),
    (1.0, 1, 0.6666666666666666, 1e-05, 'a.greedy', '1.0', '141.4238920753429', 2),
    (1.0, 1, 0.6666666666666666, 1e-05, 'a.sus-crit', '1.0', '141.4238920753429', 2),
    (1.0, 1, 0.6666666666666666, 1e-05, 'b.greedy', '1.0', '141.4238920753429', 2),
    (1.0, 1, 0.6666666666666666, 1e-05, 'b.sus-crit', '1.0', '141.4238920753429', 2),
    (1.0, 1, 0.6666666666666666, 1e-05, 'b.sus-crit-slow', '1.0', '141.4238920753429', 2),
    (1.2, 1, 0.6666666666666666, 1e-05, 'hfmax', '1.44', '141.4238920753429', 2),
    (1.2, 1, 0.6666666666666666, 1e-05, 'hno-reex', '1.0', '169.7086704904115', 2),
    (1.2, 1, 0.6666666666666666, 1e-05, 'a.greedy', '1.0', '169.7086704904115', 2),
    (1.2, 1, 0.6666666666666666, 1e-05, 'a.sus-crit', '1.0', '169.7086704904115', 2),
    (1.2, 1, 0.6666666666666666, 1e-05, 'b.greedy', '1.114027342903991', '169.7086704904115', 2),
    (1.2, 1, 0.6666666666666666, 1e-05, 'b.sus-crit', '1.114027342903991', '169.7086704904115', 2),
    (1.2, 1, 0.6666666666666666, 1e-05, 'b.sus-crit-slow', '1.1144663655133955', '169.7086704904115', 2),
    (2.0, 1, 0.6666666666666666, 1e-05, 'hfmax', '2.2500000000000004', '141.4238920753429', 2),
    (2.0, 1, 0.6666666666666666, 1e-05, 'hno-reex', '1.0', '212.13583811301436', 2),
    (2.0, 1, 0.6666666666666666, 1e-05, 'a.greedy', '0.94255365715246', '282.8477841506858', 2),
    (2.0, 1, 0.6666666666666666, 1e-05, 'a.sus-crit', '0.94255365715246', '282.8477841506858', 2),
    (2.0, 1, 0.6666666666666666, 1e-05, 'b.greedy', '0.947983696473433', '282.8477841506858', 2),
    (2.0, 1, 0.6666666666666666, 1e-05, 'b.sus-crit', '0.947983696473433', '282.8477841506858', 2),
    (2.0, 1, 0.6666666666666666, 1e-05, 'b.sus-crit-slow', '0.9473800210395937', '282.8477841506858', 2),
    (5.0, 1, 0.6666666666666666, 1e-05, 'hfmax', '2.2500000000000004', '141.4238920753429', 2),
    (5.0, 1, 0.6666666666666666, 1e-05, 'hno-reex', '1.0', '212.13583811301436', 2),
    (5.0, 1, 0.6666666666666666, 1e-05, 'a.greedy', '0.5966920999928386', '707.1194603767146', 2),
    (5.0, 1, 0.6666666666666666, 1e-05, 'a.sus-crit', '0.5966920999928386', '707.1194603767146', 2),
    (5.0, 1, 0.6666666666666666, 1e-05, 'b.greedy', '0.5976651888281422', '707.1194603767146', 2),
    (5.0, 1, 0.6666666666666666, 1e-05, 'b.sus-crit', '0.5976651888281422', '707.1194603767146', 2),
    (5.0, 1, 0.6666666666666666, 1e-05, 'b.sus-crit-slow', '0.6003101021246195', '707.1194603767146', 2),
    (1.0, 4, 0.6666666666666666, 1e-05, 'hfmax', '1.0', '41.10963257562507', 2),
    (1.0, 4, 0.6666666666666666, 1e-05, 'hno-reex', '1.0', '41.10963257562507', 2),
    (1.0, 4, 0.6666666666666666, 1e-05, 'a.greedy', '0.9991889648334988', '41.10963257562507', 2),
    (1.0, 4, 0.6666666666666666, 1e-05, 'a.sus-crit', '0.9991889648334988', '41.10963257562507', 2),
    (1.0, 4, 0.6666666666666666, 1e-05, 'b.greedy', '0.9172711793137169', '41.10963257562507', 2),
    (1.0, 4, 0.6666666666666666, 1e-05, 'b.sus-crit', '0.9172711793137169', '41.10963257562507', 2),
    (1.0, 4, 0.6666666666666666, 1e-05, 'b.sus-crit-slow', '0.9171163433425188', '41.10963257562507', 2),
    (1.2, 4, 0.6666666666666666, 1e-05, 'hfmax', '1.44', '41.10963257562507', 2),
    (1.2, 4, 0.6666666666666666, 1e-05, 'hno-reex', '1.0', '49.33155909075008', 2),
    (1.2, 4, 0.6666666666666666, 1e-05, 'a.greedy', '0.9984841521462045', '49.33155909075009', 2),
    (1.2, 4, 0.6666666666666666, 1e-05, 'a.sus-crit', '0.9984841521462045', '49.33155909075009', 2),
    (1.2, 4, 0.6666666666666666, 1e-05, 'b.greedy', '0.9600969036851139', '49.33155909075009', 2),
    (1.2, 4, 0.6666666666666666, 1e-05, 'b.sus-crit', '0.9854459343291664', '49.33155909075009', 2),
    (1.2, 4, 0.6666666666666666, 1e-05, 'b.sus-crit-slow', '0.9820729666264101', '49.33155909075009', 2),
    (2.0, 4, 0.6666666666666666, 1e-05, 'hfmax', '2.25', '41.10963257562507', 2),
    (2.0, 4, 0.6666666666666666, 1e-05, 'hno-reex', '1.0', '61.664448863437606', 2),
    (2.0, 4, 0.6666666666666666, 1e-05, 'a.greedy', '0.9623771021727581', '82.21926515125014', 2),
    (2.0, 4, 0.6666666666666666, 1e-05, 'a.sus-crit', '0.9613729868064605', '82.21926515125014', 2),
    (2.0, 4, 0.6666666666666666, 1e-05, 'b.greedy', '0.9889488609811887', '82.21926515125014', 2),
    (2.0, 4, 0.6666666666666666, 1e-05, 'b.sus-crit', '0.9764880175623006', '82.21926515125014', 2),
    (2.0, 4, 0.6666666666666666, 1e-05, 'b.sus-crit-slow', '0.9649222703344011', '82.21926515125014', 2),
    (5.0, 4, 0.6666666666666666, 1e-05, 'hfmax', '2.25', '41.10963257562507', 2),
    (5.0, 4, 0.6666666666666666, 1e-05, 'hno-reex', '1.0', '61.664448863437606', 2),
    (5.0, 4, 0.6666666666666666, 1e-05, 'a.greedy', '0.5845318219966185', '205.54816287812537', 2),
    (5.0, 4, 0.6666666666666666, 1e-05, 'a.sus-crit', '0.5979170734406483', '205.54816287812537', 2),
    (5.0, 4, 0.6666666666666666, 1e-05, 'b.greedy', '0.5881647193342042', '205.54816287812537', 2),
    (5.0, 4, 0.6666666666666666, 1e-05, 'b.sus-crit', '0.5945756037220713', '205.54816287812537', 2),
    (5.0, 4, 0.6666666666666666, 1e-05, 'b.sus-crit-slow', '0.5945756037220713', '205.54816287812537', 2),
]


@pytest.mark.parametrize("procs", [1, 4])
def test_sweep_rows_are_pinned(procs):
    config = ExperimentConfig(nodes=30, edges=60, procs=procs, runs=2, seed=1,
                              deadline_ratios=(1.0, 1.2, 2.0, 5.0))
    rows = [tuple(rec.row()[:-1]) for rec in sweep_records(config)]
    assert rows == [row for row in GOLDEN_SWEEP if row[1] == procs]

# Per kind: sha256 over p in (1, 4, 50) and ratio in (1.05, 1.2, 5) on one
# 30/60 DAG of the sorted (tid, speed1, speed2) plans and the reprs of the
# energy and makespan.
GOLDEN_PLANS = {
    'hfmax': '5bb60516015eb051fecfbcd7584f83b76f3e2f94fbee6effd92d00b941bb3d4f',
    'hno-reex': '66c88d85c4e11801bc180f68838f6a239ef962a27eefbf6fba11a781c8f74cca',
    'a.greedy': 'bb407d0ae0823bb2bd4d862b170cce9fb8cb6aebdd321188bd4dba2b6b635fbf',
    'a.sus-crit': '22cece484a62c73bc4a3226fc1a80e0bd6d80fe0100a2e80a830ed674b57d18e',
    'b.greedy': 'bcaaba4861193506061ebaac369945ce5773aedaf3324cccaef7027556e15d40',
    'b.sus-crit': 'f2d1163297a1b42e5556c88e8257e74124263ad125630b1beb335e662558d72d',
    'b.sus-crit-slow': 'b573052422d4d59900837e012b0d50c758734566dc8d0df597cd745bbd864f0a',
    'best': '49ada30e9c55b49bc61f1f39613ea00ce157cf83ed3e697c006b480319903bf2',
}


@pytest.mark.parametrize("kind", [*ALL_HEURISTICS, HeuristicKind.BEST], ids=lambda k: k.value)
def test_every_heuristic_plan_is_pinned(kind):
    g = generate_random(30, 60, seed=1)
    digest = hashlib.sha256()
    for procs in (1, 4, 50):
        platform = make_platform(procs=procs)
        mapping = list_schedule(g, procs)
        for ratio in (1.05, 1.2, 5.0):
            D = ratio * min_deadline(g, mapping, platform)
            sched, metrics = run(kind, g, mapping, D, platform)
            plans = sorted((tid, p.speed1, p.speed2) for tid, p in sched.plans.items())
            digest.update(f"{plans!r} {metrics.energy!r} {metrics.makespan!r}\n".encode())
    assert digest.hexdigest() == GOLDEN_PLANS[kind.value]


def test_vdd_conversion_of_a_best_schedule_is_pinned():
    g = generate_random(30, 60, seed=1)
    platform = make_platform(procs=4)
    mapping = list_schedule(g, 4)
    D = 2.0 * min_deadline(g, mapping, platform)
    sched, metrics = run(HeuristicKind.BEST, g, mapping, D, platform)
    result = vdd_schedule_convert(g, sched, (0.2, 0.4, 0.6, 0.8, 1.0), D, platform)
    assert repr(metrics.energy) == '57.84781708772174'
    assert repr(result.continuous_energy) == '57.84781708772174'
    assert repr(result.makespan) == '72.97883645622336'
    # The discrete total is a built-in sum() over every execution, which
    # Python 3.12 computes with compensated summation: equal up to rounding.
    assert math.isclose(result.energy, 61.80567559784736, rel_tol=1e-12)
