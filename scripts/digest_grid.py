"""One sha256 per source tree over every heuristic's output on a fixed grid.

    python3 scripts/digest_grid.py ../parent/src src

For each SRC (a directory holding the ``trisched`` package), runs the seven
heuristic kinds plus BEST on every instance of the grid in a subprocess that
imports ``trisched`` from SRC alone, and prints the digest of their plans,
energy, makespan, start times and feasibility verdict, as ``repr`` text, so
a one-ulp difference anywhere changes it. The grid: 30/60, 60/150 and
100/300 random DAGs, seeds 1-3, p in {1, 4, 50} processors (list
scheduling), lambda0 in {1e-5, 1e-3} and deadline ratios {1.05, 1.2, 2, 5}
of the full-speed makespan. The same grid is then run again with integer
weights 1-4 (drawn per graph from ``random.Random(seed)``, in task order), on
which times and trial energies tie, so the digest also sees which of two
equal-energy choices a heuristic keeps; 3,456 runs in all. Exits 1 when the
digests differ. Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

SIZES = ((30, 60), (60, 150), (100, 300))
SEEDS = (1, 2, 3)
PROCS = (1, 4, 50)
LAMBDA0S = (1e-5, 1e-3)
RATIOS = (1.05, 1.2, 2.0, 5.0)

# Run in the subprocess, with SRC first on the path and this directory next.
_WORKER = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import trisched, digest_grid
from pathlib import Path
if Path(trisched.__file__).resolve().parent != (Path(sys.argv[1]) / "trisched").resolve():
    raise ImportError(f"trisched imported from {trisched.__file__}, not from {sys.argv[1]}")
print(digest_grid.grid_digest())
"""


def add_run(hasher, label, schedule, metrics) -> None:
    """Feed one run's plans, energy, makespan, start times and verdict to hasher."""
    plans = sorted(schedule.plans.items())
    starts = sorted(metrics.start_times.items())
    text = repr((label, plans, metrics.energy, metrics.makespan, starts, metrics.feasible))
    hasher.update(text.encode())


def grid_instances():
    """Every instance of the grid: ``(label, g, mapping, D, platform)``, float weights first, then integer."""
    import random

    from trisched.graph import TaskGraph, generate_random
    from trisched.heuristics import min_deadline
    from trisched.model import PlatformModel, Task
    from trisched.schedule import list_schedule

    for integer, (n, m), seed, p, lam0, ratio in itertools.product(
        (False, True), SIZES, SEEDS, PROCS, LAMBDA0S, RATIOS
    ):
        g = generate_random(n, m, seed=seed)
        if integer:
            rng = random.Random(seed)
            g = TaskGraph(tuple(Task(t.id, float(rng.randint(1, 4))) for t in g.tasks), g.edges)
        mapping = list_schedule(g, p)
        platform = PlatformModel(f_min=1e-6, f_max=1.0, f_rel=2.0 / 3.0, lambda0=lam0, proc_count=p)
        D = ratio * min_deadline(g, mapping, platform)
        label = (n, m, seed, p, lam0, ratio)
        yield ("int", *label) if integer else label, g, mapping, D, platform


def grid_digest() -> str:
    """The digest of the grid under the ``trisched`` on ``sys.path``."""
    import warnings

    from trisched.heuristics import ALL_HEURISTICS, HeuristicKind, run

    warnings.simplefilter("ignore")
    hasher = hashlib.sha256()
    for label, g, mapping, D, platform in grid_instances():
        for kind in (*ALL_HEURISTICS, HeuristicKind.BEST):
            schedule, metrics = run(kind, g, mapping, D, platform)
            add_run(hasher, (*label, kind.value), schedule, metrics)
    return hasher.hexdigest()


def tree_digest(src: Path) -> str:
    """``grid_digest`` of the source tree src, computed in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, str(src.resolve()), str(Path(__file__).resolve().parent)],
        env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="+", type=Path, help="directory holding the trisched package")
    args = ap.parse_args(argv)
    digests = []
    for src in args.src:
        digest = tree_digest(src)
        digests.append(digest)
        print(f"{digest}  {src}", flush=True)
    return 0 if len(set(digests)) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
