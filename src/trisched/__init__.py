"""Tri-criteria DAG scheduling: energy minimization under deadline and
per-task reliability constraints, via speed scaling and task re-execution."""

from .model import (
    ExecutionPlan,
    PlatformModel,
    SingleTaskResult,
    Task,
    compute_c,
    energy,
    exe_time,
    f_inf,
    fault_rate,
    meets_reliability,
    reexec_speed,
    reliability,
    single_task_optimal,
)
from .graph import (
    TaskGraph,
    bottom_levels,
    chain,
    fork,
    fork_identical,
    generate_random,
    topological_order,
)
from .schedule import (
    Mapping,
    Schedule,
    ScheduleMetrics,
    evaluate,
    list_schedule,
    schedule_energy,
    slack_reclaim,
)
from .heuristics import ALL_HEURISTICS, HeuristicKind, derived_speeds, min_deadline, run
from .fork import ForkSolution, fork_optimal, identical_fork_closed_form, independent_tasks_optimal
from .vdd import VddPlan, continuous_to_vdd, reduce_to_two_speeds, vdd_schedule_convert
from .harness import ExperimentConfig, chain_oracle, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
