"""Independent output checks for the benchmark.

Nothing here calls trisched: every rule of the model is re-derived from its
formulas, so a fault in the program's own feasibility test (``evaluate``)
cannot hide a wrong schedule.  The model is the benchmark's: d = 0, so the
fault rate is the constant lambda0 and

    f_inf = sqrt(lambda0 * w * f_rel)

is the slowest speed at which two executions still meet the reliability of
one execution at f_rel.

A schedule is plain data: task weights, precedence edges, one ordered task
list per processor and one plan ``(speed1, speed2 or None)`` per task.
``check_schedule`` returns the list of broken rules, each prefixed by its
rule name (``mapping``, ``speed``, ``reexec``, ``reliability``, ``makespan``,
``energy``); an empty list means the schedule is valid.  The other checks
return their findings the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

# Speeds are compared with the absolute slack the model's case boundaries
# carry; times, energies and failure probabilities relatively.
SPEED_TOL = 1e-9
TIME_RTOL = 1e-9
ENERGY_RTOL = 1e-9
# A speed SPEED_TOL under f_inf (about 5e-3 here) raises the failure
# probability of a re-executed task by about 4e-7 relative.
FAIL_RTOL = 1e-6
# Grid points of the fork's deadline-split search, before golden-section refinement.
FORK_GRID = 400

Plan = tuple[float, Optional[float]]


@dataclass(frozen=True)
class Model:
    f_max: float
    f_rel: float
    lambda0: float

    def f_inf(self, w: float) -> float:
        return math.sqrt(self.lambda0 * w * self.f_rel)

    def reexec_ceiling(self) -> float:
        return self.f_rel / math.sqrt(2.0)

    def fail_threshold(self, w: float) -> float:
        """Allowed failure probability: one execution at f_rel."""
        return self.lambda0 * w / self.f_rel

    def fail_prob(self, w: float, plan: Plan) -> float:
        s1, s2 = plan
        p = self.lambda0 * w / s1
        return p if s2 is None else p * (self.lambda0 * w / s2)


def plan_time(w: float, plan: Plan) -> float:
    s1, s2 = plan
    return w / s1 + (0.0 if s2 is None else w / s2)


def plan_energy(w: float, plan: Plan) -> float:
    s1, s2 = plan
    return w * s1 * s1 + (0.0 if s2 is None else w * s2 * s2)


def makespan(weights: dict, edges, proc_lists, durations: dict) -> float:
    """Forward pass over the DAG edges plus consecutive pairs on each processor."""
    preds: dict = {tid: [] for tid in weights}
    for u, v in edges:
        preds[v].append(u)
    for lst in proc_lists:
        for a, b in zip(lst, lst[1:]):
            preds[b].append(a)
    finish: dict = {}
    pending = list(weights)
    while pending:
        rest = []
        for tid in pending:
            if all(p in finish for p in preds[tid]):
                finish[tid] = max((finish[p] for p in preds[tid]), default=0.0) + durations[tid]
            else:
                rest.append(tid)
        if len(rest) == len(pending):
            raise ValueError("processor order conflicts with precedence (cycle)")
        pending = rest
    return max(finish.values(), default=0.0)


def check_schedule(
    weights: dict,
    edges,
    proc_lists,
    plans: dict,
    D: float,
    m: Model,
    reported_energy: Optional[float] = None,
) -> list[str]:
    """Every rule of the model a schedule must meet; returns the broken ones."""
    bad: list[str] = []
    seen: dict = {}
    for lst in proc_lists:
        for tid in lst:
            seen[tid] = seen.get(tid, 0) + 1
    for tid in weights:
        if seen.get(tid, 0) != 1:
            bad.append(f"mapping: task {tid} mapped {seen.get(tid, 0)} times")
    for tid in seen:
        if tid not in weights:
            bad.append(f"mapping: unknown task {tid}")
    if set(plans) != set(weights):
        bad.append("mapping: plans do not cover exactly the tasks")
    if bad:
        return bad

    ceiling = m.reexec_ceiling()
    for tid, w in weights.items():
        s1, s2 = plans[tid]
        if s1 <= 0.0 or (s2 is not None and s2 <= 0.0):
            bad.append(f"speed: task {tid} has a non-positive speed")
            continue
        if s2 is None:
            if not (m.f_rel - SPEED_TOL <= s1 <= m.f_max + SPEED_TOL):
                bad.append(f"speed: task {tid} runs once at {s1}, outside [{m.f_rel}, {m.f_max}]")
        else:
            if s1 != s2:
                bad.append(f"reexec: task {tid} copies at different speeds {s1} and {s2}")
            lo = m.f_inf(w)
            for s in (s1, s2):
                if not (lo - SPEED_TOL <= s < ceiling + SPEED_TOL):
                    bad.append(f"reexec: task {tid} copy at {s}, outside [{lo}, {ceiling})")
        if m.fail_prob(w, plans[tid]) > m.fail_threshold(w) * (1.0 + FAIL_RTOL):
            bad.append(f"reliability: task {tid} below its threshold")

    if any(b.startswith("speed") for b in bad):
        return bad

    durations = {tid: plan_time(w, plans[tid]) for tid, w in weights.items()}
    try:
        span = makespan(weights, edges, proc_lists, durations)
    except ValueError as exc:
        bad.append(f"makespan: {exc}")
    else:
        if span > D * (1.0 + TIME_RTOL):
            bad.append(f"makespan: {span} > deadline {D}")

    if reported_energy is not None:
        e = sum(plan_energy(w, plans[tid]) for tid, w in weights.items())
        if abs(reported_energy - e) > ENERGY_RTOL * e:
            bad.append(f"energy: reported {reported_energy}, recomputed {e}")
    return bad


def check_energy_order(best: float, hno_reex: float, hfmax: float) -> list[str]:
    """BEST picks the least energy of the seven heuristics, hno-reex included,
    and hno-reex slows hfmax's schedule down, so their energies never rise."""
    if best > hno_reex * (1.0 + ENERGY_RTOL) or hno_reex > hfmax * (1.0 + ENERGY_RTOL):
        return [f"order: BEST, hno-reex, hfmax energies {best}, {hno_reex}, {hfmax} not increasing"]
    return []


def check_lower_bound(bound: float, feasible_energies: dict) -> list[str]:
    """A lower bound is at most the energy of every valid schedule."""
    return [
        f"oracle: bound {bound} above the valid {name} at {e}"
        for name, e in feasible_energies.items()
        if bound > e * (1.0 + ENERGY_RTOL)
    ]


def check_vdd(
    weights: dict,
    edges,
    proc_lists,
    plans: dict,
    executions: dict,
    modes,
    reported_makespan: float,
    reported_energy: float,
) -> list[str]:
    """A conversion of a continuous schedule to discrete modes.

    ``executions`` maps each task to one allocation list [(speed, time), ...]
    per execution.  Each execution must do the task's whole work at mode
    speeds; the converted schedule must not be longer than the continuous one,
    and its energy, sum of t * f^3, cannot be below the continuous energy.
    """
    bad = []
    durations = {}
    for tid, w in weights.items():
        parts = executions[tid]
        if len(parts) != (1 if plans[tid][1] is None else 2):
            bad.append(f"vdd: task {tid} has {len(parts)} executions")
        for allocations in parts:
            work = sum(f * t for f, t in allocations)
            if abs(work - w) > ENERGY_RTOL * w:
                bad.append(f"vdd: task {tid} execution does {work} work, not {w}")
            if any(f not in modes for f, _ in allocations):
                bad.append(f"vdd: task {tid} uses a speed outside the mode set")
        durations[tid] = sum(t for allocations in parts for _, t in allocations)
    cont = makespan(weights, edges, proc_lists, {t: plan_time(w, plans[t]) for t, w in weights.items()})
    span = makespan(weights, edges, proc_lists, durations)
    if abs(span - reported_makespan) > TIME_RTOL * span:
        bad.append(f"vdd: reported makespan {reported_makespan}, recomputed {span}")
    if span > cont * (1.0 + TIME_RTOL):
        bad.append(f"vdd: makespan grows from {cont} to {span}")
    e = sum(t * f**3 for parts in executions.values() for allocations in parts for f, t in allocations)
    e_cont = sum(plan_energy(w, plans[t]) for t, w in weights.items())
    if abs(e - reported_energy) > ENERGY_RTOL * e:
        bad.append(f"vdd: reported energy {reported_energy}, recomputed {e}")
    if e < e_cont * (1.0 - ENERGY_RTOL):
        bad.append(f"vdd: energy {e} below the continuous {e_cont}")
    return bad


def single_task_reference(w: float, D: float, m: Model) -> tuple[bool, float]:
    """Minimum energy of one task alone: best of once and twice, in closed form.

    Once: the slowest speed that meets the deadline, floored at f_rel.
    Twice: both copies at the slowest speed that meets the deadline, floored at
    f_inf, allowed only strictly under f_rel / sqrt(2).
    """
    best = math.inf
    once = max(m.f_rel, w / D)
    if once <= m.f_max * (1.0 + TIME_RTOL):
        best = w * once * once
    twice = max(m.f_inf(w), 2.0 * w / D)
    if twice < m.reexec_ceiling() - SPEED_TOL and twice <= m.f_max:
        best = min(best, 2.0 * w * twice * twice)
    return best < math.inf, best


def case_deadlines(w: float, m: Model) -> list[float]:
    """One deadline inside each of the five single-task regimes.

    The regimes are split at w/f_max, w/f_rel, 2*sqrt(2)*w/f_rel and
    2*w/f_inf; each deadline is the geometric mean of its regime's ends
    (the first and last lie a factor 2 outside).
    """
    b = [w / m.f_max, w / m.f_rel, 2.0 * math.sqrt(2.0) * w / m.f_rel, 2.0 * w / m.f_inf(w)]
    return [b[0] / 2.0] + [math.sqrt(x * y) for x, y in zip(b, b[1:])] + [2.0 * b[3]]


def fork_reference(w0: float, leaf_weights, D: float, m: Model) -> float:
    """Least energy found by searching the deadline split of a fork.

    The source gets D - d2 and every leaf, alone on its processor, gets d2.
    A uniform grid over the feasible d2 is refined by golden-section search
    around the best grid point.  The result is an upper bound on the optimum.
    """
    lo = max(w / m.f_max for w in leaf_weights)
    hi = D - w0 / m.f_max
    if hi < lo:
        return math.inf

    def total(d2: float) -> float:
        ok, e = single_task_reference(w0, D - d2, m)
        if not ok:
            return math.inf
        for w in leaf_weights:
            ok, ew = single_task_reference(w, d2, m)
            if not ok:
                return math.inf
            e += ew
        return e

    if hi - lo <= 0.0:
        return total(lo)
    step = (hi - lo) / FORK_GRID
    points = [lo + k * step for k in range(FORK_GRID + 1)]
    values = [total(x) for x in points]
    k = min(range(len(points)), key=values.__getitem__)
    a, b = points[max(k - 1, 0)], points[min(k + 1, FORK_GRID)]
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        x1, x2 = b - g * (b - a), a + g * (b - a)
        if total(x1) <= total(x2):
            b = x2
        else:
            a = x1
    return min(values[k], total(0.5 * (a + b)))
