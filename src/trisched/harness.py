"""Experiment driver: instance sweeps, CSV emission and exhaustive small oracles.

A sweep point generates `runs` DAGs (seeds seed..seed+runs-1), maps each with
critical-path list scheduling, derives the deadline from the full-speed
makespan and the deadline ratio, runs the seven heuristics and averages
energies normalized by the no-re-execution baseline on the same instance.
Output is deterministic for a given config.
"""

from __future__ import annotations

import csv
import itertools
import math
import time
from dataclasses import dataclass

from .graph import TaskGraph, generate_random
from .heuristics import ALL_HEURISTICS, HeuristicKind, min_deadline, run
from .model import PlatformModel, f_inf
from .schedule import list_schedule

CSV_HEADER = ["ratio", "procs", "frel", "lambda0", "heuristic", "norm_energy", "makespan", "feasible", "ms"]


@dataclass
class ExperimentConfig:
    nodes: int = 100
    edges: int = 300
    procs: int = 1
    runs: int = 10
    seed: int = 1
    deadline_ratios: tuple[float, ...] = (1.0, 1.2, 1.5, 2.0, 3.0, 5.0, 8.0)
    f_rels: tuple[float, ...] = (2.0 / 3.0,)
    lambda0s: tuple[float, ...] = (1e-5,)
    d_sensitivity: float = 0.0
    f_min: float = 1e-6
    f_max: float = 1.0
    output: str = "sweep.csv"

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if any(r < 1.0 for r in self.deadline_ratios):
            raise ValueError("deadline ratios must be >= 1")


@dataclass(frozen=True)
class ExperimentRecord:
    ratio: float
    procs: int
    f_rel: float
    lambda0: float
    heuristic: HeuristicKind
    norm_energy: float
    makespan: float
    feasible: int
    ms: float

    def row(self) -> list:
        return [
            self.ratio,
            self.procs,
            self.f_rel,
            self.lambda0,
            self.heuristic.value,
            repr(self.norm_energy),
            repr(self.makespan),
            self.feasible,
            repr(self.ms),
        ]


def sweep_records(config: ExperimentConfig) -> list[ExperimentRecord]:
    instances = [
        (generate_random(config.nodes, config.edges, seed=config.seed + k), config.seed + k)
        for k in range(config.runs)
    ]
    mappings = {seed: list_schedule(g, config.procs) for g, seed in instances}

    records: list[ExperimentRecord] = []
    for ratio, frel, lam0 in itertools.product(
        config.deadline_ratios, config.f_rels, config.lambda0s
    ):
        platform = PlatformModel(
            f_min=config.f_min,
            f_max=config.f_max,
            f_rel=frel,
            lambda0=lam0,
            d_sensitivity=config.d_sensitivity,
            proc_count=config.procs,
        )
        acc = {
            h: {"norm": 0.0, "makespan": 0.0, "feasible": 0, "ms": 0.0}
            for h in ALL_HEURISTICS
        }
        for g, seed in instances:
            mapping = mappings[seed]
            dmin = min_deadline(g, mapping, platform)
            D = ratio * dmin
            timed = {}
            for h in ALL_HEURISTICS:
                t0 = time.perf_counter()
                _, metrics = run(h, g, mapping, D, platform)
                timed[h] = metrics, (time.perf_counter() - t0) * 1e3
            base = timed[HeuristicKind.HNO_REEX][0]
            for h, (metrics, elapsed) in timed.items():
                a = acc[h]
                a["norm"] += metrics.energy / base.energy
                a["makespan"] += metrics.makespan
                a["feasible"] += int(metrics.feasible)
                a["ms"] += elapsed
        for h in ALL_HEURISTICS:
            a = acc[h]
            records.append(
                ExperimentRecord(
                    ratio,
                    config.procs,
                    frel,
                    lam0,
                    h,
                    a["norm"] / config.runs,
                    a["makespan"] / config.runs,
                    a["feasible"],
                    a["ms"] / config.runs,
                )
            )
    return records


def run_sweep(config: ExperimentConfig) -> list[ExperimentRecord]:
    """Run the sweep and write the CSV to config.output."""
    records = sweep_records(config)
    try:
        with open(config.output, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for rec in records:
                writer.writerow(rec.row())
    except OSError as exc:
        raise OSError(f"cannot write sweep output to {config.output}: {exc}") from exc
    return records


def chain_oracle(g: TaskGraph, D: float, platform: PlatformModel, max_n: int = 12) -> float:
    """Exhaustive energy lower bound for a single-processor chain.

    Enumerates all re-execution subsets; non-re-executed tasks run at the
    uniform speed filling the residual time (floored at f_rel), re-executed
    tasks share one speed found by ternary search in the admissible window.
    """
    n = len(g)
    if n > max_n:
        raise ValueError(f"chain oracle limited to {max_n} tasks, got {n}")
    weights = [t.weight for t in g.tasks]
    fmax, frel = platform.f_max, platform.f_rel
    fhi_window = frel / math.sqrt(2.0)
    finfs = [f_inf(w, platform) for w in weights]

    best = math.inf
    for mask in range(1 << n):
        s1 = sum(w for i, w in enumerate(weights) if not (mask >> i) & 1)
        s2 = sum(w for i, w in enumerate(weights) if (mask >> i) & 1)

        def once_energy(residual_time: float) -> float:
            if s1 == 0.0:
                return 0.0
            if residual_time <= 0.0:
                return math.inf
            f1 = max(frel, s1 / residual_time)
            if f1 > fmax * (1.0 + 1e-12):
                return math.inf
            return s1 * f1 * f1

        if mask == 0:
            e = once_energy(D)
            best = min(best, e)
            continue

        flo = max(fi for i, fi in enumerate(finfs) if (mask >> i) & 1)
        # the re-execution block must leave room for the single executions
        min_speed_for_time = 2.0 * s2 / max(D - s1 / fmax, 1e-300)
        flo = max(flo, min_speed_for_time)
        fhi = fhi_window * (1.0 - 1e-12)
        if flo >= fhi:
            continue

        def total(f: float) -> float:
            return once_energy(D - 2.0 * s2 / f) + 2.0 * s2 * f * f

        a, b = flo, fhi
        for _ in range(200):
            if b - a <= 1e-10:
                break
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            if total(m1) <= total(m2):
                b = m2
            else:
                a = m1
        candidates = [flo, fhi, 0.5 * (a + b)]
        e = min(total(f) for f in candidates)
        best = min(best, e)
    return best
