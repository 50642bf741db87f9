"""Discrete-speed (voltage-hopping) model.

A task execution is split across a finite mode set; the two-speed reduction
shows at most two modes are ever needed. Continuous solutions are converted
mode pair by mode pair while preserving the execution time and work exactly,
promoting to higher modes when the discrete reliability falls short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import TaskGraph
from .model import SLACK_TOL, PlatformModel
from .model import energy as cont_energy
from .schedule import Schedule, _forward, _indexed, _plans_at, _thresholds

_REL_TOL = 1e-12


class VddInfeasibleError(Exception):
    """No mode pair can reach the target reliability."""


@dataclass(frozen=True)
class VddPlan:
    """Time allocations (speed, duration) for one execution of one task."""

    allocations: tuple[tuple[float, float], ...]

    @property
    def time(self) -> float:
        return sum(t for _, t in self.allocations)

    @property
    def work(self) -> float:
        return sum(f * t for f, t in self.allocations)

    @property
    def energy(self) -> float:
        return sum(t * f ** 3 for f, t in self.allocations)

    def reliability_term(self, platform: PlatformModel) -> float:
        """The sum h_j * alpha_j with h_j = exp(-d f_j); smaller is more reliable."""
        d = platform.d_sensitivity
        return sum(t * math.exp(-d * f) for f, t in self.allocations)

    def reliability(self, platform: PlatformModel) -> float:
        return 1.0 - platform.lambda0 * self.reliability_term(platform)


def _normalize(allocs) -> list[list[float]]:
    merged: dict[float, float] = {}
    for f, t in allocs:
        if t > 0.0:
            merged[f] = merged.get(f, 0.0) + t
    return sorted([[f, t] for f, t in merged.items()])


def reduce_to_two_speeds(plan: VddPlan) -> VddPlan:
    """Collapse a multi-speed allocation to at most two speeds.

    Repeatedly lets the middle of the three smallest active speeds absorb
    time from the extremes; work is conserved exactly while total time,
    energy and the reliability term never increase.
    """
    allocs = _normalize(plan.allocations)
    while len(allocs) > 2:
        (f1, a1), (f2, a2), (f3, a3) = allocs[0], allocs[1], allocs[2]
        eps1 = min(a1, a3 * (f3 - f2) / (f2 - f1))
        eps3 = min(a3, a1 * (f2 - f1) / (f3 - f2))
        allocs[0][1] = a1 - eps1
        allocs[1][1] = a2 + eps1 + eps3
        allocs[2][1] = a3 - eps3
        allocs = [pair for pair in allocs if pair[1] > _REL_TOL * (a1 + a2 + a3)]
    return VddPlan(tuple((f, t) for f, t in allocs))


def continuous_to_vdd(
    f: float, w: float, modes, platform: PlatformModel
) -> VddPlan:
    """Emulate one continuous-speed execution on the discrete mode set.

    Splits the work across the two adjacent modes bounding f so that time
    (w/f) and work (w) are matched exactly. If the discrete reliability
    falls short of the continuous one, promotes to the next-higher mode
    run at a single speed; at the top mode failure is reported explicitly.
    """
    modes = sorted(modes)
    if f > modes[-1] * (1.0 + _REL_TOL):
        raise ValueError(f"speed {f} above the fastest mode {modes[-1]}")
    if f < modes[0] * (1.0 - _REL_TOL):
        # no slower mode to mix with: round up to the slowest mode (the
        # execution shortens and reliability can only improve)
        return VddPlan(((modes[0], w / modes[0]),))
    d = platform.d_sensitivity
    target = 1.0 - platform.lambda0 * math.exp(-d * f) * w / f

    for j, mode in enumerate(modes):
        if abs(mode - f) <= _REL_TOL * f:
            return VddPlan(((mode, w / mode),))

    idx = max(j for j, mode in enumerate(modes) if mode < f)
    fa, fb = modes[idx], modes[idx + 1]
    t = w / f
    alpha_b = (w - fa * t) / (fb - fa)
    alpha_a = t - alpha_b
    mixed = VddPlan(((fa, alpha_a), (fb, alpha_b)))
    if mixed.reliability(platform) >= target - _REL_TOL:
        return mixed

    # Promotion: single-speed plans at successively higher modes.
    for mode in modes[idx + 1 :]:
        single = VddPlan(((mode, w / mode),))
        if single.reliability(platform) >= target - _REL_TOL:
            return single
    raise VddInfeasibleError(
        f"no mode in {modes} reaches the target reliability for speed {f}"
    )


@dataclass(frozen=True)
class VddScheduleResult:
    plans: dict[int, tuple[VddPlan, ...]]  # one VddPlan per execution
    makespan: float
    energy: float
    continuous_energy: float
    feasible: bool  # within the deadline and every task's reliability threshold

    @property
    def energy_overhead(self) -> float:
        return self.energy / self.continuous_energy - 1.0


def vdd_schedule_convert(
    g: TaskGraph, schedule: Schedule, modes, D: float, platform: PlatformModel
) -> VddScheduleResult:
    """Convert every execution of a continuous schedule to the discrete modes.

    The makespan is the forward pass of the converted durations over the
    augmented DAG (``schedule._indexed``). ``feasible`` holds when it is at
    most D + SLACK_TOL and each task's discrete reliability, ``1 - prod(1 -
    VddPlan.reliability)`` over its executions, is at least its reliability
    threshold - SLACK_TOL, ``evaluate``'s tolerances. ValueError, as in
    ``evaluate``, for a task without a plan.
    """
    order, _, _, pred, chain, _ = _indexed(g, schedule.mapping)
    threshold = _thresholds(g, platform)
    vdd_plans: dict[int, tuple[VddPlan, ...]] = {}
    cont_total = 0.0
    reliable = True
    for t, plan in zip(g.tasks, _plans_at(schedule, [t.id for t in g.tasks])):
        parts = [continuous_to_vdd(plan.speed1, t.weight, modes, platform)]
        if plan.speed2 is not None:
            parts.append(continuous_to_vdd(plan.speed2, t.weight, modes, platform))
        vdd_plans[t.id] = tuple(parts)
        cont_total += cont_energy(t.weight, plan)
        fails = math.prod(1.0 - p.reliability(platform) for p in parts)
        reliable = reliable and 1.0 - fails >= threshold[t.id] - SLACK_TOL

    _, finish = _forward(pred, [sum(p.time for p in vdd_plans[tid]) for tid in order], chain)
    makespan = max(finish, default=0.0)
    total = sum(p.energy for parts in vdd_plans.values() for p in parts)
    return VddScheduleResult(vdd_plans, makespan, total, cont_total, makespan <= D + SLACK_TOL and reliable)
