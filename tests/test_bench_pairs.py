"""scripts/bench_pairs.py on made-up runs (no benchmark is run): its summary math and the commits it records."""

import importlib.util
import json
import subprocess
import sys
import types
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


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd, check=True,
                   capture_output=True)


def test_describe_names_only_the_top_of_a_work_tree(tmp_path):
    repo = tmp_path / "repo"
    (repo / "sub").mkdir(parents=True)
    (repo / "sub" / "f").write_text("x\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "one")
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=repo, capture_output=True, text=True,
                          check=True).stdout.strip()
    assert bench_pairs.describe(repo) == head
    (repo / "sub" / "f").write_text("y\n")
    assert bench_pairs.describe(repo) == head + "-dirty"
    # A directory inside the repository, and one outside any.
    plain = tmp_path / "plain"
    plain.mkdir()
    for checkout in (repo / "sub", plain):
        with pytest.raises(ValueError, match="not the top of a git work tree"):
            bench_pairs.describe(checkout)


def _checkout(path):
    path.mkdir()
    spec = {"run_seconds": 1, "end_to_end": [{"name": "solves_per_s", "better": "higher"},
                                             {"name": "solve_s.p50", "better": "lower"}]}
    (path / "BENCHMARK.json").write_text(json.dumps(spec))
    return path


def test_commits_of_copies_come_from_the_options(tmp_path, monkeypatch, capsys):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    monkeypatch.setattr(bench_pairs, "bench_once", lambda *args: _run(1.0, 0.5))
    out = tmp_path / "out.json"
    argv = ["--parent", str(parent), "--change", str(change), "--out", str(out),
            "--workloads", "dag-loose", "--pairs", "1"]
    # Neither copy is a git work tree: no commit named, nothing run or written.
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv + ["--change-commit", "def456"])
    assert exc.value.code == 2 and "not the top of a git work tree" in capsys.readouterr().err
    assert not out.exists()
    assert bench_pairs.main(argv + ["--parent-commit", "abc123", "--change-commit", "def456"]) == 0
    report = json.loads(out.read_text())
    assert report["commits"] == {"parent": "abc123", "change": "def456"}
    assert report["workloads"]["dag-loose"]["metrics"]["solves_per_s"]["pairs"] == 1


def test_digest_records_both_sides_src(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    digested = []

    def fake_digest(src):
        digested.append(src)
        return f"digest of {src.parent.name}"

    # The grid is not run: scripts/digest_grid.py's tree_digest is replaced.
    monkeypatch.setitem(sys.modules, "digest_grid", types.SimpleNamespace(tree_digest=fake_digest))
    monkeypatch.setattr(bench_pairs, "bench_once", lambda *args: _run(1.0, 0.5))
    out = tmp_path / "out.json"
    argv = ["--parent", str(parent), "--change", str(change), "--out", str(out), "--workloads", "dag-loose",
            "--pairs", "1", "--parent-commit", "abc123", "--change-commit", "def456"]
    assert bench_pairs.main(argv) == 0
    assert "digest" not in json.loads(out.read_text()) and not digested
    assert bench_pairs.main(argv + ["--digest"]) == 0
    assert digested == [parent.resolve() / "src", change.resolve() / "src"]
    report = json.loads(out.read_text())
    assert report["digest"] == {"parent": "digest of parent", "change": "digest of change"}
    assert report["workloads"]["dag-loose"]["metrics"]["solves_per_s"]["pairs"] == 1


FAKE_RUN = """
import json, sys
ballast = bytearray(64 * 1024 * 1024)  # touch 64 MB so the child's peak RSS shows it
ballast[::4096] = b"x" * len(ballast[::4096])
print("workload", sys.argv[sys.argv.index("--workload") + 1])
print(json.dumps({"correct": True, "trace": sys.argv[sys.argv.index("--trace") + 1]}))
sys.exit(3)
"""


def test_traced_once_reports_the_childs_exit_code_and_peak_rss(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(FAKE_RUN)
    out = bench_pairs.traced_once(tmp_path, "exact", 1, 1.0)
    assert out["returncode"] == 3 and out["wall_s"] > 0.0
    assert out["result"] == {"correct": True, "trace": "1"}
    # The child's own peak, not this process's: at least its 64 MB ballast.
    assert out["peak_rss_mb"] >= 64.0
    (tmp_path / "bench" / "run.py").write_text("import sys\nsys.exit(124)\n")
    out = bench_pairs.traced_once(tmp_path, "exact", 1, 1.0)
    assert out["returncode"] == 124 and out["result"] is None


def test_traced_runs_parent_first_per_workload(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    order = []

    def fake_traced(checkout, workload, seed, seconds):
        order.append((checkout.name, workload))
        return {"wall_s": 1.0, "returncode": 0, "peak_rss_mb": 20.0, "result": None}

    monkeypatch.setattr(bench_pairs, "traced_once", fake_traced)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change), "--out", str(out),
                             "--workloads", "exact", "dag-tight", "--pairs", "0", "--traced",
                             "--parent-commit", "abc123", "--change-commit", "def456"]) == 0
    assert order == [("parent", "exact"), ("change", "exact"), ("parent", "dag-tight"), ("change", "dag-tight")]
    report = json.loads(out.read_text())
    assert report["workloads"] == {}
    assert report["traced"]["exact"]["change"]["peak_rss_mb"] == 20.0
