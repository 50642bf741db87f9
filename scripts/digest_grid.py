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
equal-energy choices a heuristic keeps. Next come large weights, drawn from
(0, 1e9) by ``generate_random``, at lambda0 = 1e-14 and the same sizes,
seeds, processors and ratios: near such times a float's last bit is above
SLACK_TOL, so slow-downs can end past the deadline and some kinds end
infeasible, and the digest sees the paths that handle an infeasible state.
Last come other platforms, on 30/60 and 60/150 DAGs with the same seeds,
processors and ratios: (f_max, f_rel, d, lambda0) in {(4, 2, 0.7, 1e-5),
(1, 2/3, 2, 1e-3), (1, 2/3, 0, 2e-2)}, so the digest sees d > 0 and, at
lambda0 = 2e-2, probes that reject on a task's reliability; 6,048 runs in
all. Beside each tree's digest it prints one per part (``float``, ``int``,
``big``, ``model``), so a change that moves the digest shows where. Exits 1
when the digests differ. Standard library only.
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
BIG_WEIGHTS = (0.0, 1e9)
BIG_LAMBDA0 = 1e-14
# (f_max, f_rel, d, lambda0) of the model part; the other parts run (1, 2/3, 0, lambda0).
MODELS = ((4.0, 2.0, 0.7, 1e-5), (1.0, 2.0 / 3.0, 2.0, 1e-3), (1.0, 2.0 / 3.0, 0.0, 2e-2))

# Run in the subprocess, with SRC first on the path and this directory next.
_WORKER = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import trisched, digest_grid
from pathlib import Path
if Path(trisched.__file__).resolve().parent != (Path(sys.argv[1]) / "trisched").resolve():
    raise ImportError(f"trisched imported from {trisched.__file__}, not from {sys.argv[1]}")
for part, digest in digest_grid.grid_digests().items():
    print(part, digest)
"""


def add_run(hasher, label, schedule, metrics) -> None:
    """Feed one run's plans, energy, makespan, start times and verdict to hasher."""
    plans = sorted(schedule.plans.items())
    starts = sorted(metrics.start_times.items())
    text = repr((label, plans, metrics.energy, metrics.makespan, starts, metrics.feasible))
    hasher.update(text.encode())


def grid_instances():
    """Every instance of the grid: ``(label, g, mapping, D, platform)``; float weights, then integer, large and model.

    A label starts with its part's name, except in the float part; the model
    part's label holds its (f_max, f_rel, d, lambda0) where the others hold
    lambda0.
    """
    import random

    from trisched.graph import TaskGraph, generate_random
    from trisched.heuristics import min_deadline
    from trisched.model import PlatformModel, Task
    from trisched.schedule import list_schedule

    parts = itertools.chain(
        itertools.product((None, "int"), SIZES, SEEDS, PROCS, LAMBDA0S, RATIOS),
        itertools.product(("big",), SIZES, SEEDS, PROCS, (BIG_LAMBDA0,), RATIOS),
        itertools.product(("model",), SIZES[:2], SEEDS, PROCS, MODELS, RATIOS),
    )
    for part, (n, m), seed, p, model, ratio in parts:
        if part == "big":
            g = generate_random(n, m, weight_range=BIG_WEIGHTS, seed=seed)
        else:
            g = generate_random(n, m, seed=seed)
        if part == "int":
            rng = random.Random(seed)
            g = TaskGraph(tuple(Task(t.id, float(rng.randint(1, 4))) for t in g.tasks), g.edges)
        mapping = list_schedule(g, p)
        f_max, f_rel, d, lam0 = model if part == "model" else (1.0, 2.0 / 3.0, 0.0, model)
        platform = PlatformModel(f_min=1e-6, f_max=f_max, f_rel=f_rel, lambda0=lam0, d_sensitivity=d, proc_count=p)
        D = ratio * min_deadline(g, mapping, platform)
        label = (n, m, seed, p, model, ratio)
        yield (part, *label) if part else label, g, mapping, D, platform


def grid_digests() -> dict[str, str]:
    """The digest of the grid (``total``), then of each part, under the ``trisched`` on ``sys.path``."""
    import warnings

    from trisched.heuristics import ALL_HEURISTICS, HeuristicKind, run

    warnings.simplefilter("ignore")
    total, parts = hashlib.sha256(), {}
    for label, g, mapping, D, platform in grid_instances():
        hashers = total, parts.setdefault(label[0] if isinstance(label[0], str) else "float", hashlib.sha256())
        for kind in (*ALL_HEURISTICS, HeuristicKind.BEST):
            schedule, metrics = run(kind, g, mapping, D, platform)
            for hasher in hashers:
                add_run(hasher, (*label, kind.value), schedule, metrics)
    return {"total": total.hexdigest(), **{part: hasher.hexdigest() for part, hasher in parts.items()}}


def tree_digest(src: Path) -> dict[str, str]:
    """``grid_digests`` of the source tree src, computed in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, str(src.resolve()), str(Path(__file__).resolve().parent)],
        env=env, capture_output=True, text=True, check=True,
    )
    return dict(line.split() for line in proc.stdout.splitlines())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="+", type=Path, help="directory holding the trisched package")
    args = ap.parse_args(argv)
    totals = []
    for src in args.src:
        digests = tree_digest(src)
        totals.append(digests.pop("total"))
        print(f"{totals[-1]}  {src}", flush=True)
        for part, digest in digests.items():
            print(f"  {digest}  {part}", flush=True)
    return 0 if len(set(totals)) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
