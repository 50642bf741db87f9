"""The summary math of scripts/bench_pairs.py, on made-up runs (no benchmark is run)."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(rate, p50):
    return {
        "correct": True, "failed": 0, "attempted": 16, "median_chunk_ms": 1.0,
        "metrics": {"solves_per_s": {"value": rate, "unit": "1/s"}, "solve_s.p50": {"value": p50, "unit": "s"}},
    }


def test_quartiles():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert bench_pairs.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_summary_counts_wins_in_the_better_direction():
    runs = {
        "parent": [_run(r, t) for r, t in ((1.0, 0.5), (2.0, 0.4), (3.0, 0.3), (4.0, 0.2), (5.0, 0.1))],
        "change": [_run(r, t) for r, t in ((2.0, 0.6), (2.0, 0.3), (4.0, 0.2), (3.0, 0.1), (6.0, 0.1))],
    }
    out = bench_pairs.summarise(runs, {"solves_per_s": "higher", "solve_s.p50": "lower"})
    rate = out["metrics"]["solves_per_s"]
    # Higher is better: pairs 0, 2 and 4 win, the tie in pair 1 counts for neither side.
    assert rate["change_better"] == 3 and rate["pairs"] == 5
    assert rate["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [1.0, 2.0, 3.0, 4.0, 5.0]}
    assert rate["change"]["median"] == 3.0 and rate["change_over_parent"] == 1.0
    p50 = out["metrics"]["solve_s.p50"]
    # Lower is better: pairs 1, 2 and 3 win; pair 0 loses and pair 4 ties.
    assert p50["change_better"] == 3
    assert p50["change_over_parent"] == pytest.approx(0.2 / 0.3)
    assert out["parent"]["correct"] and out["change"]["attempted"] == [16] * 5


def test_slowest_reads_the_durations_report():
    text = (
        "........\n"
        "============================= slowest 10 durations =============================\n"
        "41.23s call     tests/test_acceptance.py::test_criterion_5_feasibility_on_1000_instances\n"
        "12.00s setup    tests/test_acceptance.py::test_criterion_8a_single_processor_favors_type_a\n"
        "12 passed in 70.12s (0:01:10)\n"
    )
    assert bench_pairs.slowest(text) == [
        {"test": "tests/test_acceptance.py::test_criterion_5_feasibility_on_1000_instances", "phase": "call", "s": 41.23},
        {"test": "tests/test_acceptance.py::test_criterion_8a_single_processor_favors_type_a", "phase": "setup", "s": 12.0},
    ]
