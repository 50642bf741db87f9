"""The benchmark's independent checks reject what they must and accept valid output.

The hand-made schedules break one rule each.  The program's own
``schedule.evaluate`` reports the first two (a speed above f_max, and
re-executed copies at different speeds) as feasible, which is why the
checks re-derive every rule instead of calling it.
"""

import math

import pytest

import checks

M = checks.Model(f_max=1.0, f_rel=2.0 / 3.0, lambda0=1e-5)
CHAIN = dict(weights={0: 1.0, 1: 1.0}, edges=[(0, 1)], proc_lists=[(0, 1)])


def rules(plans, D=100.0, energy=None, **over):
    args = {**CHAIN, **over}
    found = checks.check_schedule(args["weights"], args["edges"], args["proc_lists"], plans, D, M, energy)
    return {v.split(":")[0] for v in found}


def test_valid_chain_passes():
    plans = {0: (0.7, None), 1: (0.3, 0.3)}
    energy = 0.7**2 + 2 * 0.3**2
    assert rules(plans, D=100.0, energy=energy) == set()


def test_speed_above_f_max_is_rejected():
    assert "speed" in rules({0: (5.0, None), 1: (0.7, None)})


def test_reexecuted_copies_at_different_speeds_are_rejected():
    assert "reexec" in rules({0: (0.7, None), 1: (0.3, 0.9)})


def test_makespan_past_deadline_is_rejected():
    # Both tasks once at f_rel take 1.5 each on one processor.
    assert rules({0: (M.f_rel, None), 1: (M.f_rel, None)}, D=2.5) == {"makespan"}


def test_processor_order_counts_toward_makespan():
    # No precedence edge, but both tasks share one processor.
    plans = {0: (M.f_rel, None), 1: (M.f_rel, None)}
    assert rules(plans, D=2.5, edges=[]) == {"makespan"}
    assert rules(plans, D=2.5, edges=[], proc_lists=[(0,), (1,)]) == set()


def test_reliability_shortfall_is_rejected():
    # Two copies below f_inf = sqrt(lambda0 * w * f_rel) ~ 2.6e-3.
    assert "reliability" in rules({0: (0.7, None), 1: (1e-3, 1e-3)}, D=1e4)


def test_mapping_errors_are_rejected():
    plans = {0: (0.7, None), 1: (0.7, None)}
    assert rules(plans, proc_lists=[(0, 1), (1,)]) == {"mapping"}
    assert rules(plans, proc_lists=[(0,)]) == {"mapping"}


def test_wrong_reported_energy_is_rejected():
    assert rules({0: (0.7, None), 1: (0.7, None)}, energy=1.0) == {"energy"}


def test_single_task_reference_cases():
    w = 1.0
    assert checks.single_task_reference(w, 0.5, M) == (False, math.inf)
    assert checks.single_task_reference(w, 1.2, M)[1] == pytest.approx(1 / 1.2**2)
    assert checks.single_task_reference(w, 2.0, M)[1] == pytest.approx(4 / 9)
    assert checks.single_task_reference(w, 10.0, M)[1] == pytest.approx(2 * 0.2**2)
    assert checks.single_task_reference(w, 1e4, M)[1] == pytest.approx(2 * M.f_inf(w) ** 2)


def test_case_deadlines_cover_the_five_regimes():
    from trisched.model import PlatformModel, single_task_optimal

    platform = PlatformModel(f_min=1e-6, f_max=1.0, f_rel=2 / 3, lambda0=1e-5)
    for w in (0.5, 3.0, 9.5):
        results = [single_task_optimal(w, D, platform) for D in checks.case_deadlines(w, M)]
        assert [r.case for r in results] == [1, 2, 3, 4, 5]
        for D, r in zip(checks.case_deadlines(w, M), results):
            ok, e = checks.single_task_reference(w, D, M)
            assert r.feasible == ok
            if ok:
                assert r.energy == pytest.approx(e, rel=1e-9)


def test_fork_reference_is_tight_against_the_exact_solver():
    from trisched.fork import fork_optimal
    from trisched.model import PlatformModel, Task

    platform = PlatformModel(f_min=1e-6, f_max=1.0, f_rel=2 / 3, lambda0=1e-5)
    leaves = [Task(i + 1, w) for i, w in enumerate((2.0, 5.0, 3.5, 1.0))]
    for ratio in (1.5, 3.0, 6.0):
        D = ratio * (4.0 + 5.0)
        exact = fork_optimal(4.0, leaves, D, platform).energy
        ref = checks.fork_reference(4.0, [t.weight for t in leaves], D, M)
        assert exact <= ref * (1 + 1e-9)
        assert ref == pytest.approx(exact, rel=1e-6)


def test_program_schedules_pass():
    from trisched import HeuristicKind, generate_random, list_schedule, min_deadline, run
    from trisched.model import PlatformModel

    g = generate_random(20, 40, seed=3)
    weights = {t.id: t.weight for t in g.tasks}
    for p, ratio in ((1, 1.2), (3, 2.0), (3, 5.0)):
        platform = PlatformModel(f_min=1e-6, f_max=1.0, f_rel=2 / 3, lambda0=1e-5, proc_count=p)
        mapping = list_schedule(g, p)
        D = ratio * min_deadline(g, mapping, platform)
        sched, metrics = run(HeuristicKind.BEST, g, mapping, D, platform)
        plans = {tid: (pl.speed1, pl.speed2) for tid, pl in sched.plans.items()}
        assert checks.check_schedule(weights, g.edges, mapping.proc_lists, plans, D, M, metrics.energy) == []


def test_energy_order():
    assert checks.check_energy_order(1.0, 2.0, 3.0) == []
    assert checks.check_energy_order(2.5, 2.0, 3.0) != []
    assert checks.check_energy_order(1.0, 3.5, 3.0) != []


def test_lower_bound_above_a_valid_schedule_is_rejected():
    # chain_oracle's value against a.greedy on the chain of the exact workload's fixed op
    assert checks.check_lower_bound(2.6978, {"a.greedy": 2.6466, "hfmax": 9.0}) != []
    assert checks.check_lower_bound(2.6, {"a.greedy": 2.6466, "hfmax": 9.0}) == []


VDD_MODES = (0.55, 0.8)
ONE = dict(weights={0: 1.0}, edges=[], proc_lists=[(0,)], plans={0: (0.7, None)})


def vdd_rules(allocations, makespan=None, energy=None):
    span = sum(t for _, t in allocations)
    e = sum(t * f**3 for f, t in allocations)
    found = checks.check_vdd(
        ONE["weights"], ONE["edges"], ONE["proc_lists"], ONE["plans"], {0: [allocations]}, VDD_MODES,
        span if makespan is None else makespan, e if energy is None else energy,
    )
    return " ".join(found)


def test_vdd_conversion_checks():
    # 0.7 emulated by 0.55 and 0.8 for the same time and work.
    t = 1 / 0.7
    hi = (1 - 0.55 * t) / (0.8 - 0.55)
    assert vdd_rules([(0.55, t - hi), (0.8, hi)]) == ""
    assert "work" in vdd_rules([(0.8, 1.0)])
    assert "makespan grows" in vdd_rules([(0.55, 1 / 0.55)])
    assert "outside the mode set" in vdd_rules([(0.7, t)])
    assert "below the continuous" in vdd_rules([(0.5, 2.0)])
    assert "reported energy" in vdd_rules([(0.55, t - hi), (0.8, hi)], energy=0.1)
    assert "reported makespan" in vdd_rules([(0.55, t - hi), (0.8, hi)], makespan=1.0)
