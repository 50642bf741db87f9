"""Exact polynomial solvers: single task, independent tasks and fork graphs.

The fork solver splits the deadline between the source (share D - D2) and the
leaves running in parallel (share D2). On each interval between per-task case
breakpoints, total energy is K/(D-D2)^2 + K'/D2^2 + K'', convex, minimized in
closed form; the global optimum is the best over intervals. The identical-fork
closed form serves as an independent cross-check inside its validity range.

A solve builds a table of one ``model._case_row`` per task, once, and reads
every interval's K terms and every candidate split's energy off it with
``model._case_at``, the five-case rule that ``single_task_optimal`` also
decides by. Each distinct split is scored once. Every result is the one a
``_single_task_case`` call per task and split would give, bit for bit: a row
holds that call's float expressions, evaluated once, and the energies are
summed in the same leaf order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .model import (
    SLACK_TOL,
    ExecutionPlan,
    PlatformModel,
    Task,
    _case_at,
    _case_plan,
    _case_row,
    _single_task_case,
    deadline_breakpoints,
    f_inf,
    single_task_optimal,
)

_DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class ForkSolution:
    feasible: bool
    d2: float  # leaves' deadline share
    plans: dict[int, ExecutionPlan]  # keyed by task id (0 = source)
    energy: float


class ClosedFormNotApplicable(Exception):
    """Deadline outside the validity range of the identical-fork formulas."""


def independent_tasks_optimal(
    tasks: list[Task], D: float, platform: PlatformModel
) -> tuple[Optional[dict[int, ExecutionPlan]], float]:
    """One task per processor: per-task optima are independent and add up."""
    plans: dict[int, ExecutionPlan] = {}
    total = 0.0
    for t in tasks:
        res = single_task_optimal(t.weight, D, platform)
        if not res.feasible:
            return None, math.inf
        plans[t.id] = res.plan
        total += res.energy
    return plans, total


def fork_optimal(w0: float, leaves: list[Task], D: float, platform: PlatformModel) -> ForkSolution:
    """Exact minimum-energy plans for a fork mapped one task per processor.

    Each task's row is built once per solve, and every interval's K terms
    and every candidate split's energy are read off the rows, leaves in
    order, then the source. A split that two intervals share is scored
    once: scored again it would give the same energy, which the strict
    ``<`` never lets win. Only the winning split's plans go through
    ``_single_task_case``. Raises ValueError unless D is finite and
    positive.
    """
    if not 0.0 < D < math.inf:
        raise ValueError(f"deadline must be finite and positive, got {D!r}")
    if not leaves:
        res = single_task_optimal(w0, D, platform)
        plans = {0: res.plan} if res.feasible else {}
        return ForkSolution(res.feasible, 0.0, plans, res.energy)

    weights = [t.weight for t in leaves]
    fi0 = f_inf(w0, platform)
    fis = [f_inf(w, platform) for w in weights]
    src_bp = deadline_breakpoints(w0, platform, fi0)
    leaf_bps = [deadline_breakpoints(w, platform, fi) for w, fi in zip(weights, fis)]

    lo = max(bp[0] for bp in leaf_bps)
    hi = D - src_bp[0]
    if lo > hi + SLACK_TOL:
        return ForkSolution(False, 0.0, {}, math.inf)
    hi = max(hi, lo)
    if D - hi <= 0.0:
        # Only a source negligible beside D gets here: lighter than
        # SLACK_TOL * f_max, or lost to rounding in D - w0/f_max.
        raise ValueError("the source's deadline share must be positive")

    points = {lo, hi}
    for bp in leaf_bps:
        for v in bp:
            if lo - SLACK_TOL <= v <= hi + SLACK_TOL:
                points.add(min(max(v, lo), hi))
    for v in src_bp:
        cand = D - v
        if lo - SLACK_TOL <= cand <= hi + SLACK_TOL:
            points.add(min(max(cand, lo), hi))
    sorted_points = sorted(points)
    dedup = [sorted_points[0]]
    for v in sorted_points[1:]:
        if v - dedup[-1] > _DEDUP_TOL:
            dedup.append(v)

    src = _case_row(w0, platform, fi0)
    rows = [_case_row(w, platform, fi) for w, fi in zip(weights, fis)]

    def total_at(d2: float) -> float:
        """Energy of the leaves at d2 plus the source at D - d2 (math.inf if infeasible)."""
        e_leaves = 0.0
        for row in rows:
            case, _, e, _ = _case_at(row, d2)
            if case == 1:
                return math.inf
            e_leaves += e
        return e_leaves + _case_at(src, D - d2)[2]

    best_energy = math.inf
    best_d2 = lo
    scored = set()

    intervals = list(zip(dedup, dedup[1:])) or [(lo, hi)]
    for a, b in intervals:
        if b - a <= _DEDUP_TOL and (a, b) != (lo, hi):
            candidates = [a]
        else:
            mid = 0.5 * (a + b)
            k_src = _case_at(src, D - mid)[3]
            k_leaf = 0.0
            for row in rows:
                k_leaf += _case_at(row, mid)[3]
            candidates = [a, b]
            if k_src > 0.0 and k_leaf > 0.0:
                # stationary point of K/(D-D2)^2 + K'/D2^2 (NaN when both K
                # overflowed, and then max gives a)
                star = D / (1.0 + (k_src / k_leaf) ** (1.0 / 3.0))
                candidates.append(min(max(a, star), b))
            elif k_src == 0.0 and k_leaf > 0.0:
                candidates = [b]
            elif k_leaf == 0.0 and k_src > 0.0:
                candidates = [a]
        for d2 in candidates:
            if d2 in scored:
                continue
            scored.add(d2)
            e = total_at(d2)
            if e < best_energy:
                best_energy, best_d2 = e, d2

    if best_energy == math.inf:
        return ForkSolution(False, 0.0, {}, math.inf)
    plans = {t.id: _case_plan(*_single_task_case(t.weight, best_d2, platform, fi)[:2])
             for t, fi in zip(leaves, fis)}
    plans[0] = _case_plan(*_single_task_case(w0, D - best_d2, platform, fi0)[:2])
    return ForkSolution(True, best_d2, plans, best_energy)


def identical_fork_validity_bound(w: float, n: int, platform: PlatformModel) -> float:
    return (w / platform.f_rel) * (1.0 + 2.0 * n ** (1.0 / 3.0)) ** 1.5 / math.sqrt(1.0 + n)


def identical_fork_closed_form(
    w: float, n: int, D: float, platform: PlatformModel
) -> ForkSolution:
    """Closed-form optimum for a fork of n+1 identical tasks, no-re-execution regime.

    Valid only up to the deadline bound below which re-execution provably
    does not pay off; outside it (or for n < 2) raises ClosedFormNotApplicable.
    """
    if n < 2:
        raise ClosedFormNotApplicable("the closed form needs at least two leaves")
    fmax, frel = platform.f_max, platform.f_rel
    d_valid = identical_fork_validity_bound(w, n, platform)
    if D > d_valid + SLACK_TOL:
        raise ClosedFormNotApplicable(
            f"deadline {D} beyond the no-re-execution bound {d_valid}"
        )
    if D < 2.0 * w / fmax - SLACK_TOL:
        return ForkSolution(False, 0.0, {}, math.inf)

    cbrt_n = n ** (1.0 / 3.0)
    bound_speed = (w / fmax) * (1.0 + cbrt_n)
    bound_rel = w * (1.0 / frel + 1.0 / fmax)

    if D <= min(bound_speed, bound_rel) + SLACK_TOL:
        fsrc = fmax
        fleaf = w * fmax / (D * fmax - w)
    elif D <= 2.0 * w / frel + SLACK_TOL:
        if bound_speed <= bound_rel and D <= (w / frel) * (1.0 + cbrt_n) / cbrt_n + SLACK_TOL:
            fsrc = (w / D) * (1.0 + cbrt_n)
            fleaf = fsrc / cbrt_n
        else:
            fleaf = frel
            fsrc = w * frel / (D * frel - w)
    else:
        fsrc = fleaf = frel

    plans = {0: ExecutionPlan(fsrc)}
    for i in range(1, n + 1):
        plans[i] = ExecutionPlan(fleaf)
    total = w * fsrc ** 2 + n * w * fleaf ** 2
    d2 = w / fleaf
    return ForkSolution(True, d2, plans, total)
