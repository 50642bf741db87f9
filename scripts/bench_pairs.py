"""Alternating parent/change pairs of ``bench/run.py``, summarised as JSON.

    python3 scripts/bench_pairs.py --parent ../parent --change . --out BENCH.json \\
        --workloads dag-tight dag-loose exact --pairs 10 --seed 1 --acceptance

Runs ``bench/run.py --trace 0`` in each checkout (each from its own
directory, so each times its own source), one after the other, alternating
which side runs first: the parent in even pairs, the change in odd ones.
Run length is ``BENCHMARK.json``'s ``run_seconds`` unless ``--seconds`` is
given, and the same on both sides. Writes, per workload and end-to-end
metric, each side's median and quartiles and every run, and how many pairs
the change won (ties count for neither side), plus each run's failed and
attempted ops and median reference chunk (the host's speed). With
``--acceptance``, it then runs ``pytest -q --durations=10
tests/test_acceptance.py`` once per side, parent first, each on its own
``src``, and writes each side's wall time, pytest's summary line and the ten
slowest test phases. With ``--traced``, it runs ``bench/run.py --trace 1``
once per side and workload, parent first, after that workload's pairs, and
writes each run's wall time, exit code, peak resident memory (from
``os.wait4``) and result line; ``--pairs 0`` runs only these. With
``--digest``, it first records ``scripts/digest_grid.py``'s digest of each
side's ``src``, so that a speed claim carries the evidence that both sides
give the same outputs, bit for bit. Each side's
commit is read with ``git describe`` when its checkout is the top of a git
work tree; for any other checkout, such as one made with ``git archive``, it
must be named with ``--parent-commit`` or ``--change-commit``, or the script
exits with an error before it runs anything. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
CHUNK = re.compile(r"median reference chunk ([0-9.]+) ms")
# One line of pytest's --durations report: "12.34s call     tests/x.py::test_y".
DURATION = re.compile(r"^([0-9.]+)s (setup|call|teardown)\s+(\S+)\s*$", re.M)


def bench_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of the checkout's benchmark: its result line plus the chunk time."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    chunk = CHUNK.search(proc.stdout)
    result["median_chunk_ms"] = float(chunk.group(1)) if chunk else None
    return result


def traced_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One traced run of the checkout's benchmark: wall time, exit code, peak RSS and result line.

    The child is reaped with ``os.wait4``, so its peak RSS is its own, not
    this script's. ``result`` is None when the last line is not JSON (a
    crashed or killed run).
    """
    with tempfile.TemporaryFile("w+") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1"],
            cwd=checkout, stdout=out, stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        # Reaped here, so Popen must be told, or it warns of a running child.
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    # ru_maxrss is in KiB on Linux, as bench/run.py's peak_rss_mb reads it.
    return {"wall_s": wall, "returncode": proc.returncode, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "result": result}


def slowest(pytest_output: str) -> list[dict]:
    """The test phases of a ``--durations`` report, slowest first."""
    return [
        {"test": m.group(3), "phase": m.group(2), "s": float(m.group(1))}
        for m in DURATION.finditer(pytest_output)
    ]


def acceptance_once(checkout: Path) -> dict:
    """One run of the checkout's acceptance suite on its own sources: wall time and slowest phases."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=10",
         "tests/test_acceptance.py"],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "returncode": proc.returncode, "summary": lines[-1] if lines else "",
            "slowest": slowest(proc.stdout)}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    out = {
        side: {
            "correct": all(r["correct"] for r in runs[side]),
            "failed": [r["failed"] for r in runs[side]],
            "attempted": [r["attempted"] for r in runs[side]],
            "median_chunk_ms": [r["median_chunk_ms"] for r in runs[side]],
        }
        for side in SIDES
    }
    metrics = {}
    for name, direction in better.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        entry = {"unit": runs["parent"][0]["metrics"][name]["unit"], "better": direction}
        for side in SIDES:
            entry[side] = {**quartiles(values[side]), "runs": values[side]}
        entry["change_better"] = wins
        entry["pairs"] = len(values["parent"])
        if entry["parent"]["median"]:
            entry["change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
        metrics[name] = entry
    out["metrics"] = metrics
    return out


def describe(checkout: Path) -> str:
    """The checkout's commit, marked ``-dirty`` when its files differ from it.

    ValueError unless the checkout is the top of its own git work tree: a
    copy made with ``git archive`` has no commit to name, and a directory
    inside another repository would name that repository's commit.
    """
    top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=checkout, capture_output=True, text=True)
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != checkout.resolve():
        raise ValueError(f"{checkout} is not the top of a git work tree, so its commit is unknown; "
                         "name it with --parent-commit or --change-commit")
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--acceptance", action="store_true", help="also time each side's acceptance suite")
    ap.add_argument("--traced", action="store_true", help="also run one --trace 1 run per side and workload")
    ap.add_argument("--digest", action="store_true", help="also record digest_grid.py's digest of each side's src")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--parent-commit", help="the parent's commit, when --parent is not a git work tree")
    ap.add_argument("--change-commit", help="the change's commit, when --change is not a git work tree")
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    commits = {}
    for side, given in (("parent", args.parent_commit), ("change", args.change_commit)):
        try:
            commits[side] = given or describe(checkouts[side])
        except ValueError as exc:
            ap.error(str(exc))
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    report = {
        "protocol": {
            "pairs": args.pairs, "seed": args.seed, "seconds": seconds,
            "order": "parent first in even pairs, change first in odd pairs",
        },
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()},
        "commits": commits,
        "workloads": {},
    }
    if args.digest:
        # This script's directory is first on sys.path when it runs.
        from digest_grid import tree_digest

        report["digest"] = {side: tree_digest(checkouts[side] / "src") for side in SIDES}
        print("digest " + " ".join(f"{side}={d}" for side, d in report["digest"].items()), file=sys.stderr, flush=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.traced:
        report["traced"] = {}
    for workload in args.workloads:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result = bench_once(checkouts[side], workload, args.seed, seconds)
                runs[side].append(result)
                print(f"{workload} pair {i} {side}: "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
        if args.pairs:
            report["workloads"][workload] = summarise(runs, better)
        if args.traced:
            report["traced"][workload] = traced = {}
            for side in SIDES:
                traced[side] = result = traced_once(checkouts[side], workload, args.seed, seconds)
                print(f"{workload} traced {side}: {result['wall_s']:.1f} s, exit {result['returncode']}, "
                      f"{result['peak_rss_mb']:.1f} MB", file=sys.stderr, flush=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    if args.acceptance:
        report["acceptance"] = {}
        for side in SIDES:
            report["acceptance"][side] = result = acceptance_once(checkouts[side])
            print(f"acceptance {side}: {result['wall_s']:.1f} s, {result['summary']}", file=sys.stderr, flush=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
