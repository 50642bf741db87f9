"""Closed-form physics of the tri-criteria problem.

Execution time, energy, fault rate, reliability, the threshold speeds
(reliability speed, minimum re-execution speed) and the exact single-task
optimizer. Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

# Absolute slack tolerance on time/reliability comparisons (case boundaries
# are equalities, this absorbs floating-point noise).
SLACK_TOL = 1e-9

# Residual tolerance and iteration cap for the threshold-speed bisection.
ROOT_TOL = 1e-12
MAX_BISECT_ITERS = 200


class ModelValidityWarning(UserWarning):
    """First-order reliability approximation stretched past its comfort zone."""


@dataclass(frozen=True)
class PlatformModel:
    """Homogeneous platform: speed bounds, reliability parameters, processor count.

    ``lambda0`` is the fault-rate scale at speed 0 of the reparametrized
    exponential law lambda(f) = lambda0 * exp(-d * f); ``d_sensitivity`` is
    the (already normalized) DVFS sensitivity exponent.  Speeds are
    continuous in [f_min, f_max]; the discrete-mode model (``vdd``) takes its
    mode set as an argument.
    """

    f_min: float
    f_max: float
    f_rel: float
    lambda0: float = 1e-5
    d_sensitivity: float = 0.0
    proc_count: int = 1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.f_max, self.lambda0, self.d_sensitivity))):
            raise ValueError("f_max, lambda0 and d_sensitivity must be finite")
        if not (0.0 < self.f_min <= self.f_rel <= self.f_max):
            raise ValueError(
                f"need 0 < f_min <= f_rel <= f_max, got "
                f"({self.f_min}, {self.f_rel}, {self.f_max})"
            )
        if self.lambda0 <= 0.0:
            raise ValueError("lambda0 must be positive")
        if self.d_sensitivity < 0.0:
            raise ValueError("d_sensitivity must be nonnegative")
        if self.proc_count < 1:
            raise ValueError("proc_count must be >= 1")


@dataclass(frozen=True)
class Task:
    id: int
    weight: float

    def __post_init__(self):
        if not 0.0 < self.weight < math.inf:
            raise ValueError(f"task {self.id}: weight must be positive and finite")


@dataclass(frozen=True)
class ExecutionPlan:
    """One or two executions of a task; two executions share one speed."""

    speed1: float
    speed2: Optional[float] = None

    def __post_init__(self):
        if not (self.speed1 > 0.0 and (self.speed2 is None or self.speed2 > 0.0)):
            raise ValueError(f"speeds must be positive, got ({self.speed1}, {self.speed2})")

    @property
    def re_executed(self) -> bool:
        return self.speed2 is not None


def _speed_fault(plan: ExecutionPlan, platform: PlatformModel) -> Optional[str]:
    """The first broken speed rule that needs no f_inf, or None.

    Non-positive speeds cannot occur (``ExecutionPlan`` rejects them). The
    f_inf floor of a re-execution and the f_rel floor of a single run are left
    to the caller (``evaluate`` sees them as a reliability shortfall).
    """
    if plan.speed2 is None:
        if plan.speed1 > platform.f_max + SLACK_TOL:
            return "single execution above f_max"
        return None
    if abs(plan.speed1 - plan.speed2) > SLACK_TOL:
        return "re-execution must reuse the first execution speed"
    if plan.speed1 >= platform.f_rel / math.sqrt(2.0) + SLACK_TOL:
        return f"re-execution speed {plan.speed1} at or above f_rel/sqrt(2)"
    return None


def validate_plan(w: float, plan: ExecutionPlan, platform: PlatformModel) -> None:
    """Raise ValueError unless the plan satisfies the speed-window invariants."""
    fault = _speed_fault(plan, platform)
    if fault is not None:
        raise ValueError(fault)
    if plan.speed2 is None:
        if plan.speed1 < platform.f_rel - SLACK_TOL:
            raise ValueError("single execution below the reliability speed")
    else:
        lo = f_inf(w, platform)
        if plan.speed1 < lo - SLACK_TOL:
            raise ValueError(
                f"re-execution speed {plan.speed1} below f_inf = {lo}"
            )


def exe_time(w: float, plan: ExecutionPlan) -> float:
    """Worst-case execution time: both executions always counted."""
    t = w / plan.speed1
    if plan.speed2 is not None:
        t += w / plan.speed2
    return t


def energy(w: float, plan: ExecutionPlan) -> float:
    """Dynamic energy w*f^2 per execution, summed over both executions."""
    e = w * plan.speed1 ** 2
    if plan.speed2 is not None:
        e += w * plan.speed2 ** 2
    return e


def fault_rate(f: float, platform: PlatformModel) -> float:
    """Transient fault rate lambda0 * exp(-d * f) at speed f."""
    if f < platform.f_min - SLACK_TOL or f > platform.f_max + SLACK_TOL:
        raise ValueError(f"speed {f} outside [{platform.f_min}, {platform.f_max}]")
    return platform.lambda0 * math.exp(-platform.d_sensitivity * f)


def _lam(f: float, platform: PlatformModel) -> float:
    # Internal fault-rate without the range check: threshold speeds such as
    # the re-execution floor legitimately sit below f_min.
    return platform.lambda0 * math.exp(-platform.d_sensitivity * f)


def _rel_once(w: float, f: float, platform: PlatformModel) -> float:
    eps = _lam(f, platform) * w / f
    if eps > 0.01:
        warnings.warn(
            f"failure probability per execution {eps:.3g} > 0.01; the first-order "
            "reliability approximation is inaccurate for this task",
            ModelValidityWarning,
            stacklevel=3,
        )
    return 1.0 - eps


def reliability(w: float, plan: ExecutionPlan, platform: PlatformModel) -> float:
    """Success probability of the plan (first-order approximation).

    Two executions succeed unless both attempts fail. Emits a
    ModelValidityWarning when the per-execution failure probability exceeds
    0.01, where the first-order expansion degrades.
    """
    r1 = _rel_once(w, plan.speed1, platform)
    if plan.speed2 is None:
        return r1
    r2 = _rel_once(w, plan.speed2, platform)
    return 1.0 - (1.0 - r1) * (1.0 - r2)


def reliability_threshold(w: float, platform: PlatformModel) -> float:
    """Required reliability: that of one execution at the reliability speed."""
    return 1.0 - _lam(platform.f_rel, platform) * w / platform.f_rel


def meets_reliability(w: float, plan: ExecutionPlan, platform: PlatformModel) -> bool:
    return reliability(w, plan, platform) >= reliability_threshold(w, platform) - SLACK_TOL


def f_inf(w: float, platform: PlatformModel) -> float:
    """Minimum speed at which two executions still meet the reliability threshold.

    Unique positive root of  lambda0 * w * exp(-2 d f) / f^2 = exp(-d f_rel) / f_rel,
    found by bisection (the left-hand side is monotone decreasing in f).
    """
    if w <= 0.0:
        raise ValueError("weight must be positive")
    lam0, d, frel = platform.lambda0, platform.d_sensitivity, platform.f_rel
    rhs = math.exp(-d * frel) / frel

    def residual(f: float) -> float:
        return lam0 * w * math.exp(-2.0 * d * f) / (f * f) - rhs

    hi = frel
    for _ in range(200):
        if residual(hi) < 0.0:
            break
        hi *= 2.0
    lo = hi / 2.0
    for _ in range(2000):
        if residual(lo) > 0.0:
            break
        lo /= 2.0
    for _ in range(MAX_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if abs(r) <= ROOT_TOL * rhs:
            return mid
        if r > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def compute_c() -> float:
    """Unique positive real root of 7y^3 + 21y^2 - 3y - 1 (closed form)."""
    return 4.0 * math.sqrt(2.0 / 7.0) * math.cos(
        (math.pi - math.atan(1.0 / math.sqrt(7.0))) / 3.0
    ) - 1.0


# Fixed once; reused by the heuristics for the re-execution speed.
C_REEXEC = compute_c()


def reexec_speed(platform: PlatformModel) -> float:
    """Canonical re-execution speed 2c/(1+c) * f_rel."""
    return 2.0 * C_REEXEC / (1.0 + C_REEXEC) * platform.f_rel


@dataclass(frozen=True)
class SingleTaskResult:
    """Outcome of the exact single-task optimization."""

    feasible: bool
    plan: Optional[ExecutionPlan]
    energy: float
    case: int  # 1..5; 1 = infeasible


def deadline_breakpoints(w: float, platform: PlatformModel) -> tuple[float, float, float, float]:
    """Per-task deadline breakpoints separating the five optimizer cases."""
    fi = f_inf(w, platform)
    return (
        w / platform.f_max,
        w / platform.f_rel,
        2.0 * math.sqrt(2.0) * w / platform.f_rel,
        2.0 * w / fi,
    )


def single_task_optimal(w: float, D: float, platform: PlatformModel) -> SingleTaskResult:
    """Minimum-energy plan for one task alone on one processor.

    Five deadline regimes: infeasible; once at w/D; once at f_rel; twice at
    2w/D; twice at the minimum re-execution speed.  When the re-execution
    window is empty (its floor at or above f_rel/sqrt(2)) re-execution is
    treated as unavailable and the task runs once at f_rel for any deadline
    past w/f_rel.
    """
    if not (w > 0.0 and D > 0.0):
        raise ValueError("weight and deadline must be positive")
    frel, fmax = platform.f_rel, platform.f_max
    d0 = w / fmax
    if D < d0 - SLACK_TOL:
        return SingleTaskResult(False, None, math.inf, 1)
    d1 = w / frel
    if D <= d1 + SLACK_TOL:
        f = min(w / D, fmax)
        return SingleTaskResult(True, ExecutionPlan(f), w * f * f, 2)
    fi = f_inf(w, platform)
    reexec_window = fi < frel / math.sqrt(2.0) - SLACK_TOL
    d2 = 2.0 * math.sqrt(2.0) * w / frel
    if not reexec_window or D <= d2 + SLACK_TOL:
        return SingleTaskResult(True, ExecutionPlan(frel), w * frel * frel, 3)
    d3 = 2.0 * w / fi
    if D <= d3 + SLACK_TOL:
        f = 2.0 * w / D
        return SingleTaskResult(True, ExecutionPlan(f, f), 2.0 * w * f * f, 4)
    return SingleTaskResult(True, ExecutionPlan(fi, fi), 2.0 * w * fi * fi, 5)
