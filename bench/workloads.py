"""The benchmark's workloads: inputs built from the seed, timed ops, checks.

Every workload is a pool of ops built from ``--seed``; a run repeats whole
rounds of the pool, so a later round re-solves the same inputs and must give
the same outputs.  The program is driven only through its public functions,
looked up on their modules at call time so that the traced run's wrappers
see every call.

Model of all instances (the paper's campaign): lambda0 = 1e-5, f_rel = 2/3,
f_max = 1, d = 0.
"""

from __future__ import annotations

import importlib
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import checks
from trisched import graph, harness, heuristics, model, schedule, vdd

# ``trisched.fork`` is shadowed by ``graph.fork`` in the package namespace.
fork_solver = importlib.import_module("trisched.fork")
Kind = heuristics.HeuristicKind

F_MIN, F_MAX, F_REL, LAMBDA0 = 1e-6, 1.0, 2.0 / 3.0, 1e-5
NODES, EDGES = 100, 300
# Discrete speeds for the vdd conversion; the slowest sits above every
# re-execution speed of this model, so those executions round up.
VDD_MODES = (0.1, 0.25, 0.4, 0.55, 2.0 / 3.0, 0.8, 1.0)
# Deadline ratios of every exact op (those of the paper's campaign that leave
# room for re-execution).
EXACT_RATIOS = (1.5, 2.0, 3.0, 5.0)
# harness.chain_oracle returns 2.6978 here although a.greedy finds a
# feasible 2.6466: the "bound" floors every re-executed task at the largest
# f_inf of the set.  At lambda0 = 0.023 the model warns of its validity.
ORACLE_COUNTEREXAMPLE = dict(
    weights=(3.3199, 4.6569, 2.1531, 3.1845, 1.159, 4.4171), lambda0=0.023, deadline=150.33
)
# Sizes of the exact op's instances.  They are fixed because fork_optimal's
# cost grows with the square of the leaf count: drawn from 10-20 leaves, the
# fork alone made the mean op time of a seed's pool vary by several percent.
CHAIN_TASKS, FORK_LEAVES = 9, 15
RTOL = 1e-9


def platform(procs: int = 1, lambda0: float = LAMBDA0) -> model.PlatformModel:
    return model.PlatformModel(
        f_min=F_MIN, f_max=F_MAX, f_rel=F_REL, lambda0=lambda0, d_sensitivity=0.0, proc_count=procs
    )


def plain_plans(plans) -> dict:
    return {tid: (p.speed1, p.speed2) for tid, p in plans.items()}


def schedule_violations(g, sched, D: float, m: checks.Model, energy: float) -> list[str]:
    weights = {t.id: t.weight for t in g.tasks}
    return checks.check_schedule(
        weights, g.edges, sched.mapping.proc_lists, plain_plans(sched.plans), D, m, energy
    )


def fingerprint(sched, metrics) -> tuple:
    return metrics.energy, metrics.makespan, tuple(sorted(plain_plans(sched.plans).items()))


@dataclass
class Op:
    """One timed unit of work: ``run`` is timed, ``check`` is not.

    ``check(output)`` returns (energy ratio to hno-reex, broken rules);
    ``fingerprint(output)`` must repeat exactly on every round.
    """

    key: str
    solves: int
    run: Callable[[], Any]
    check: Callable[[Any], tuple[float, list[str]]]
    fingerprint: Callable[[Any], tuple]
    # The rule prefix of a known fault this op exposes on fixed inputs.
    known_fault: str = ""


@dataclass(frozen=True)
class DagSolve:
    g: Any
    mapping: Any
    D: float
    plat: Any


def _dag_op(key: str, solves: list[DagSolve]) -> Op:
    m = checks.Model(F_MAX, F_REL, LAMBDA0)

    def run():
        return [heuristics.run(Kind.BEST, s.g, s.mapping, s.D, s.plat) for s in solves]

    def check(out):
        bad, ratios = [], []
        for s, (sched, met) in zip(solves, out):
            if not met.feasible:
                bad.append("feasible: BEST reports an infeasible schedule")
            bad += schedule_violations(s.g, sched, s.D, m, met.energy)
            energies = [met.energy]
            for kind in (Kind.HNO_REEX, Kind.HFMAX):
                ref_sched, ref_met = heuristics.run(kind, s.g, s.mapping, s.D, s.plat)
                bad += [f"{kind.value} {v}" for v in schedule_violations(s.g, ref_sched, s.D, m, ref_met.energy)]
                energies.append(ref_met.energy)
            bad += checks.check_energy_order(*energies)
            ratios.append(energies[0] / energies[1])
        return sum(ratios) / len(ratios), bad

    return Op(key, len(solves), run, check, lambda out: tuple(fingerprint(*r) for r in out))


@dataclass(frozen=True)
class DagWorkload:
    """BEST on random 100-node/300-edge DAGs at one deadline ratio.

    An op solves one DAG on each processor count in ``procs``.
    """

    name: str
    ratio: float
    procs: tuple[int, ...]
    ops_per_round: int

    def build(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{seed}")
        ops = []
        for _ in range(self.ops_per_round):
            gseed = rng.randrange(2**31)
            g = graph.generate_random(NODES, EDGES, seed=gseed)
            solves = []
            for p in self.procs:
                plat = platform(p)
                mapping = schedule.list_schedule(g, p)
                D = self.ratio * heuristics.min_deadline(g, mapping, plat)
                solves.append(DagSolve(g, mapping, D, plat))
            ops.append(_dag_op(f"{self.name} dag seed {gseed}", solves))
        return ops


@dataclass(frozen=True)
class ExactInstance:
    """A chain and a fork with their deadlines, plus single tasks."""

    lambda0: float
    chain: Any
    chain_mapping: Any
    chain_deadlines: tuple[float, ...]
    fork_source: float
    fork_leaves: tuple  # of trisched Task
    fork_graph: Any
    fork_mapping: Any
    fork_deadlines: tuple[float, ...]
    singles: tuple[tuple[float, float], ...]  # (weight, deadline)


def _exact_op(key: str, inst: ExactInstance, known_fault: str = "") -> Op:
    m = checks.Model(F_MAX, F_REL, inst.lambda0)
    plat = platform(1, inst.lambda0)
    fork_plat = platform(len(inst.fork_leaves) + 1, inst.lambda0)
    leaves = list(inst.fork_leaves)

    def run():
        chains = []
        for D in inst.chain_deadlines:
            bound = harness.chain_oracle(inst.chain, D, plat)
            sched, met = heuristics.run(Kind.BEST, inst.chain, inst.chain_mapping, D, plat)
            conv = vdd.vdd_schedule_convert(inst.chain, sched, VDD_MODES, D, plat)
            chains.append((bound, sched, met, conv))
        forks = [fork_solver.fork_optimal(inst.fork_source, leaves, D, fork_plat) for D in inst.fork_deadlines]
        singles = [model.single_task_optimal(w, D, plat) for w, D in inst.singles]
        return chains, forks, singles

    def check(out):
        chains, forks, singles = out
        bad, ratios = [], []
        g = inst.chain
        for D, (bound, sched, met, conv) in zip(inst.chain_deadlines, chains):
            bad += schedule_violations(g, sched, D, m, met.energy)
            bad += checks.check_vdd(
                {t.id: t.weight for t in g.tasks}, g.edges, sched.mapping.proc_lists, plain_plans(sched.plans),
                {tid: [p.allocations for p in parts] for tid, parts in conv.plans.items()},
                VDD_MODES, conv.makespan, conv.energy,
            )
            valid = {}
            for kind in heuristics.ALL_HEURISTICS:
                k_sched, k_met = heuristics.run(kind, g, inst.chain_mapping, D, plat)
                if not schedule_violations(g, k_sched, D, m, k_met.energy):
                    valid[kind.value] = k_met.energy
            bad += checks.check_lower_bound(bound, valid)
            if Kind.HNO_REEX.value in valid:
                ratios.append(bound / valid[Kind.HNO_REEX.value])
        fg = inst.fork_graph
        for D, sol in zip(inst.fork_deadlines, forks):
            if not sol.feasible:
                bad.append(f"fork: infeasible at D={D}")
                continue
            plans = plain_plans(sol.plans)
            weights = {t.id: t.weight for t in fg.tasks}
            bad += ["fork " + v for v in checks.check_schedule(
                weights, fg.edges, inst.fork_mapping.proc_lists, plans, D, m, sol.energy)]
            ref = checks.fork_reference(inst.fork_source, [t.weight for t in leaves], D, m)
            if sol.energy > ref * (1 + RTOL):
                bad.append(f"fork: fork_optimal {sol.energy} above the split search {ref} (D={D})")
            _, hno = heuristics.run(Kind.HNO_REEX, fg, inst.fork_mapping, D, fork_plat)
            ratios.append(sol.energy / hno.energy)
        for (w, D), res in zip(inst.singles, singles):
            ok, e = checks.single_task_reference(w, D, m)
            if res.feasible != ok or (ok and abs(res.energy - e) > RTOL * e):
                bad.append(f"single: w={w} D={D} gives {res.feasible} {res.energy}, reference {ok} {e}")
            elif ok:
                bad += ["single " + v for v in checks.check_schedule(
                    {0: w}, (), ((0,),), {0: (res.plan.speed1, res.plan.speed2)}, D, m, res.energy)]
        return (sum(ratios) / len(ratios) if ratios else math.nan), bad

    def fp(out):
        chains, forks, singles = out
        return (
            tuple((b, *fingerprint(s, met), c.energy, c.makespan) for b, s, met, c in chains),
            tuple((f.energy, f.d2, tuple(sorted(plain_plans(f.plans).items()))) for f in forks),
            tuple((r.feasible, r.energy, r.case) for r in singles),
        )

    return Op(key, 1, run, check, fp, known_fault)


def _exact_instance(chain_weights, lambda0, chain_deadlines, fork_source, fork_weights, fork_deadlines):
    m = checks.Model(F_MAX, F_REL, lambda0)
    g = graph.chain(chain_weights)
    fg = graph.fork(fork_source, fork_weights)
    # fork_optimal assumes one task per processor.
    fork_mapping = schedule.Mapping(tuple((t.id,) for t in fg.tasks))
    return ExactInstance(
        lambda0=lambda0,
        chain=g,
        chain_mapping=schedule.list_schedule(g, 1),
        chain_deadlines=tuple(chain_deadlines),
        fork_source=fork_source,
        fork_leaves=tuple(t for t in fg.tasks if t.id != 0),
        fork_graph=fg,
        fork_mapping=fork_mapping,
        fork_deadlines=tuple(fork_deadlines),
        singles=tuple((w, D) for w in chain_weights for D in checks.case_deadlines(w, m)),
    )


@dataclass(frozen=True)
class ExactWorkload:
    """Cross-checks of the exact solvers on small chains and forks.

    An op is one chain of CHAIN_TASKS tasks and one fork of FORK_LEAVES
    leaves, each at the deadline ratios of EXACT_RATIOS: chain_oracle, BEST
    and the vdd conversion on the chain, fork_optimal on the fork, and
    single_task_optimal in the five deadline regimes of each chain task.
    Every round ends with the fixed ORACLE_COUNTEREXAMPLE op, which fails
    until the oracle is fixed.
    """

    name: str
    ops_per_round: int

    def build(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{seed}")
        ops = []
        for k in range(self.ops_per_round):
            ws = [rng.uniform(0.5, 10.0) for _ in range(CHAIN_TASKS)]
            src = rng.uniform(0.5, 10.0)
            leaves = [rng.uniform(0.5, 10.0) for _ in range(FORK_LEAVES)]
            inst = _exact_instance(
                ws, LAMBDA0,
                [r * sum(ws) / F_MAX for r in EXACT_RATIOS],
                src, leaves,
                [r * (src + max(leaves)) / F_MAX for r in EXACT_RATIOS],
            )
            ops.append(_exact_op(f"exact op {k}", inst))
        ce = ORACLE_COUNTEREXAMPLE
        ws = list(ce["weights"])
        inst = _exact_instance(ws, ce["lambda0"], [ce["deadline"]], ws[0], ws[1:], [ce["deadline"]])
        ops.append(_exact_op("chain_oracle counterexample", inst, known_fault="oracle:"))
        return ops


# One round takes about 30 s (DAG workloads) or 20 s (exact) of wall time where
# the reference chunk takes 1 ms, so that the 70 runs of a full benchmark
# campaign fit in under an hour on a host 30% slower than that.  The DAG pools
# are as large as that allows: one seed's DAGs can be several percent easier
# than another's.
WORKLOADS = {
    w.name: w
    for w in (
        # Tight deadlines: time goes to feasibility probes (evaluate).
        DagWorkload("dag-tight", ratio=1.2, procs=(1, 50), ops_per_round=8),
        # Loose deadlines: time goes to the type-B reclaim tail (slack_reclaim).
        DagWorkload("dag-loose", ratio=5.0, procs=(1,), ops_per_round=6),
        # The model, fork, harness and vdd layers, which the DAG workloads barely touch.
        ExactWorkload("exact", ops_per_round=60),
    )
}
