"""Closed-form physics of the tri-criteria problem.

Execution time, energy, fault rate, reliability, the threshold speeds
(reliability speed, minimum re-execution speed) and the exact single-task
optimizer. Everything here is a pure function over immutable inputs.
"""

from __future__ import annotations

import functools
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
    f_inf floor of a re-execution and the f_rel floor of a single run are not
    checked here: below either, the task misses its reliability threshold, and
    ``evaluate`` reports that as a reliability shortfall.
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
        # A constant text, so the default filter shows it once per call site.
        warnings.warn(
            "failure probability per execution > 0.01; the first-order "
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


@functools.lru_cache(maxsize=4096)
def f_inf(w: float, platform: PlatformModel) -> float:
    """Minimum speed at which two executions still meet the reliability threshold.

    Unique positive root of  lambda0 * w * exp(-2 d f) / f^2 = exp(-d f_rel) / f_rel,
    found by bisection (the left-hand side is monotone decreasing in f).
    A pure function of its arguments, memoised per (w, platform): heuristics,
    solvers and oracles ask for the same task's floor many times. The memo
    holds 4,096 entries, room for the about 1,500 distinct weights that the
    benchmark's ``exact`` pool asks for.
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


def deadline_breakpoints(
    w: float, platform: PlatformModel, fi: Optional[float] = None
) -> tuple[float, float, float, float]:
    """Per-task deadline breakpoints separating the five optimizer cases.

    ``fi`` is the task's f_inf when the caller already has it.
    """
    if fi is None:
        fi = f_inf(w, platform)
    return (
        w / platform.f_max,
        w / platform.f_rel,
        2.0 * math.sqrt(2.0) * w / platform.f_rel,
        2.0 * w / fi,
    )


def _single_task_case(
    w: float, D: float, platform: PlatformModel, fi: Optional[float] = None
) -> tuple[int, float, float]:
    """``single_task_optimal``'s case (1..5), the speed of each execution and the energy.

    Speed and energy are math.inf in case 1 (infeasible). ``fi`` is the
    task's f_inf when the caller already has it; otherwise it is looked up
    only if the deadline reaches past case 2.
    """
    if not (w > 0.0 and D > 0.0):
        raise ValueError("weight and deadline must be positive")
    frel, fmax = platform.f_rel, platform.f_max
    if D < w / fmax - SLACK_TOL:
        return 1, math.inf, math.inf
    if D <= w / frel + SLACK_TOL:
        f = min(w / D, fmax)
        return 2, f, w * f * f
    if fi is None:
        fi = f_inf(w, platform)
    reexec_window = fi < frel / math.sqrt(2.0) - SLACK_TOL
    if not reexec_window or D <= 2.0 * math.sqrt(2.0) * w / frel + SLACK_TOL:
        return 3, frel, w * frel * frel
    if D <= 2.0 * w / fi + SLACK_TOL:
        f = 2.0 * w / D
        return 4, f, 2.0 * w * f * f
    return 5, fi, 2.0 * w * fi * fi


def _case_plan(case: int, f: float) -> Optional[ExecutionPlan]:
    """The plan of a ``_single_task_case`` outcome: none, one run, or two at one speed."""
    if case == 1:
        return None
    return ExecutionPlan(f) if case < 4 else ExecutionPlan(f, f)


def single_task_optimal(w: float, D: float, platform: PlatformModel) -> SingleTaskResult:
    """Minimum-energy plan for one task alone on one processor.

    Five deadline regimes: infeasible; once at w/D; once at f_rel; twice at
    2w/D; twice at the minimum re-execution speed.  When the re-execution
    window is empty (its floor at or above f_rel/sqrt(2)) re-execution is
    treated as unavailable and the task runs once at f_rel for any deadline
    past w/f_rel.
    """
    case, f, e = _single_task_case(w, D, platform)
    return SingleTaskResult(case != 1, _case_plan(case, f), e, case)
