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
    """Exact minimum energy of a single-processor chain, over every re-execution set.

    With the set S of re-executed tasks fixed, the chain is a separable
    convex problem with one time constraint: minimise sum m*w*f^2 subject to
    sum m*w/f <= D (m = 1 for a single run, 2 for a re-execution), each speed
    in its own box: [f_rel, f_max] for a single run, [f_inf(w), c) for a
    re-execution, with c = f_rel/sqrt(2). The optimum is one common speed
    clipped to each box. Every re-execution box lies below every single-run
    box, so it has one of two shapes (s1, s2: single and re-executed work):

    - re-executions at c, the single runs sharing s1/(D - 2*s2/c), which is
      at least f_rel and at most f_max;
    - single runs at f_rel, the re-executions water-filled over
      D - s1/f_rel: scanned by decreasing f_inf, each is clamped at its floor
      while the common speed 2*free_w/(rest - clamped_time) is below it.

    The box is open at c (a re-execution at c itself breaks the speed rule),
    so the first shape's value is an infimum: approached by valid schedules,
    not reached. It is still a lower bound on every valid schedule's energy.
    A set is skipped if a member's f_inf is at or above c, or if its single
    runs would need more than f_max, or an all-re-executed set more than c.
    Returns math.inf when no set fits the deadline. O(2^n * n).
    """
    n = len(g)
    if n > max_n:
        raise ValueError(f"chain oracle limited to {max_n} tasks, got {n}")
    fmax, frel = platform.f_max, platform.f_rel
    c = frel / math.sqrt(2.0)
    # Bit k of a mask is the task with the k-th largest f_inf, so the
    # water-filling scans a set's members in increasing bit order.
    floors = sorted(((f_inf(t.weight, platform), t.weight) for t in g.tasks), reverse=True)
    finfs = [fi for fi, _ in floors]
    weights = [w for _, w in floors]
    no_window = (1 << sum(fi >= c for fi in finfs)) - 1
    full = (1 << n) - 1
    work = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        work[mask] = work[mask ^ low] + weights[low.bit_length() - 1]

    best = math.inf
    for mask in range(1 << n):
        if mask & no_window:
            continue
        s1, s2 = work[full ^ mask], work[mask]
        rest = D - s1 / frel
        if 2.0 * s2 < c * rest:
            e = s1 * frel * frel
            free_w = s2
            m = mask
            while m:
                low = m & -m
                m ^= low
                k = low.bit_length() - 1
                fi = finfs[k]
                if 2.0 * free_w >= fi * rest:
                    v = 2.0 * free_w / rest
                    e += 2.0 * free_w * v * v
                    break
                w = weights[k]
                free_w -= w
                rest -= 2.0 * w / fi
                e += 2.0 * w * fi * fi
        else:
            left = D - 2.0 * s2 / c
            if s1 == 0.0 or left <= 0.0:
                continue
            f1 = s1 / left
            if f1 > fmax * (1.0 + 1e-12):
                continue
            e = s1 * f1 * f1 + 2.0 * s2 * c * c
        if e < best:
            best = e
    return best
