"""Command-line front end.

Subcommands: ``gen`` (emit a DAG file), ``solve`` (per-heuristic table for one
instance), ``fork`` (exact fork solver), ``vdd-convert`` (continuous schedule
to discrete modes), ``oracle`` (exact chain optimum, a lower bound) and ``sweep``
(the full experiment campaign, CSV output). Defaults follow the simulation
protocol: 100 nodes, 300 edges, 10 runs, lambda0 = 1e-5, f_rel = 2/3 * f_max.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import fork as fork_mod
from . import graph as graph_mod
from . import harness, vdd
from .heuristics import ALL_HEURISTICS, HeuristicKind, min_deadline, run
from .model import PlatformModel, Task
from .schedule import format_schedule, list_schedule

OUTPUT_DIR_ENV = "TRISCHED_OUTPUT_DIR"


def _speed_args(p: argparse.ArgumentParser) -> None:
    """The platform flags ``sweep`` shares; it takes f_rel and lambda0 as lists (``--frels``, ``--lambda0s``)."""
    p.add_argument("--fmax", type=float, default=1.0, help="maximum speed (default 1.0)")
    p.add_argument("--fmin", type=float, default=1e-6, help="minimum speed (default 1e-6)")
    p.add_argument("--d", type=float, default=0.0, dest="d_sensitivity",
                   help="fault-rate speed sensitivity exponent (default 0)")


def _platform_args(p: argparse.ArgumentParser) -> None:
    _speed_args(p)
    p.add_argument("--frel", type=float, default=None,
                   help="reliability threshold speed (default 2/3 of fmax)")
    p.add_argument("--lambda0", type=float, default=1e-5,
                   help="fault-rate scale (default 1e-5)")


def _platform(args, procs: int = 1) -> PlatformModel:
    frel = args.frel if args.frel is not None else 2.0 / 3.0 * args.fmax
    return PlatformModel(
        f_min=args.fmin,
        f_max=args.fmax,
        f_rel=frel,
        lambda0=args.lambda0,
        d_sensitivity=args.d_sensitivity,
        proc_count=procs,
    )


def _instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dag", help="DAG file to load (overrides --nodes/--edges/--seed)")
    p.add_argument("--nodes", type=int, default=100)
    p.add_argument("--edges", type=int, default=300)
    p.add_argument("--seed", type=int, default=1)


def _load_graph(args) -> graph_mod.TaskGraph:
    if args.dag:
        with open(args.dag) as fh:
            return graph_mod.parse_dag(fh.read())
    return graph_mod.generate_random(args.nodes, args.edges, seed=args.seed)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _config_flags(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """A sweep config file's ``key=value`` lines as ``--key=value`` flags; blank lines and ``#`` comments are skipped."""
    flags = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key == "config":
                parser.error(f"config key 'config' in {path}: a config file cannot name another")
            flags.append(f"--{key}={value.strip()}")
    return flags


def cmd_gen(args) -> int:
    g = graph_mod.generate_random(
        args.nodes, args.edges, weight_range=(args.weight_min, args.weight_max), seed=args.seed
    )
    text = graph_mod.dump_dag(g)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_solve(args) -> int:
    g = _load_graph(args)
    platform = _platform(args, args.procs)
    mapping = list_schedule(g, args.procs)
    dmin = min_deadline(g, mapping, platform)
    D = args.deadline if args.deadline is not None else args.deadline_ratio * dmin
    no_reex = run(HeuristicKind.HNO_REEX, g, mapping, D, platform)
    base = no_reex[1]
    print(f"tasks={len(g)} edges={len(g.edges)} procs={args.procs} "
          f"Dmin={dmin:.6g} D={D:.6g}")
    print(f"{'heuristic':<18}{'energy':>14}{'norm':>10}{'makespan':>14}{'feasible':>10}")
    for kind in (*ALL_HEURISTICS, HeuristicKind.BEST):
        sched, metrics = (no_reex if kind is HeuristicKind.HNO_REEX
                          else run(kind, g, mapping, D, platform))
        norm = metrics.energy / base.energy if base.energy > 0 else math.nan
        print(f"{kind.value:<18}{metrics.energy:>14.6g}{norm:>10.4f}"
              f"{metrics.makespan:>14.6g}{str(metrics.feasible):>10}")
        if kind is HeuristicKind.BEST and args.schedule_out:
            with open(args.schedule_out, "w") as fh:
                fh.write(format_schedule(g, sched))
    # The loop ends on BEST, which is infeasible exactly when no kind is feasible.
    if not metrics.feasible:
        print("infeasible: deadline below the full-speed makespan", file=sys.stderr)
        return 1
    return 0


def cmd_fork(args) -> int:
    platform = _platform(args)
    if args.leaf_weights:
        leaf_w = list(_parse_floats(args.leaf_weights))
    else:
        leaf_w = [args.weight] * args.leaves
    w0 = args.source_weight if args.source_weight is not None else (
        args.weight if not args.leaf_weights else leaf_w[0]
    )
    leaves = [Task(i + 1, w) for i, w in enumerate(leaf_w)]
    sol = fork_mod.fork_optimal(w0, leaves, args.deadline, platform)
    if not sol.feasible:
        print("infeasible: deadline too tight for the fork", file=sys.stderr)
        return 1
    print(f"energy={sol.energy!r} leaf_share={sol.d2!r}")
    for tid in sorted(sol.plans):
        plan = sol.plans[tid]
        label = "source" if tid == 0 else f"leaf{tid}"
        twice = f" x2" if plan.speed2 is not None else ""
        print(f"  {label}: speed={plan.speed1:.6g}{twice}")
    identical = len(set(leaf_w)) == 1 and abs(w0 - leaf_w[0]) < 1e-12 and len(leaf_w) >= 2
    if identical:
        try:
            cf = fork_mod.identical_fork_closed_form(w0, len(leaf_w), args.deadline, platform)
            print(f"closed-form cross-check: energy={cf.energy!r}")
        except fork_mod.ClosedFormNotApplicable as exc:
            print(f"closed-form cross-check not applicable: {exc}")
    return 0


def cmd_vdd_convert(args) -> int:
    g = _load_graph(args)
    platform = _platform(args, args.procs)
    mapping = list_schedule(g, args.procs)
    dmin = min_deadline(g, mapping, platform)
    D = args.deadline_ratio * dmin
    sched, metrics = run(HeuristicKind.BEST, g, mapping, D, platform)
    if not metrics.feasible:
        print("infeasible continuous schedule", file=sys.stderr)
        return 1
    result = vdd.vdd_schedule_convert(g, sched, _parse_floats(args.modes), D, platform)
    print(f"continuous_energy={result.continuous_energy!r}")
    print(f"discrete_energy={result.energy!r}")
    print(f"overhead={result.energy_overhead:.6%}")
    print(f"makespan={result.makespan!r} (deadline {D!r})")
    print(f"feasible={result.feasible}")
    return 0


def cmd_oracle(args) -> int:
    if args.chain_weights:
        weights = list(_parse_floats(args.chain_weights))
    else:
        rng_graph = graph_mod.generate_random(args.n, 0, seed=args.seed)
        weights = [t.weight for t in rng_graph.tasks]
    g = graph_mod.chain(weights)
    platform = _platform(args)
    mapping = list_schedule(g, 1)
    dmin = min_deadline(g, mapping, platform)
    D = args.deadline_ratio * dmin
    lower = harness.chain_oracle(g, D, platform)
    _, best = run(HeuristicKind.BEST, g, mapping, D, platform)
    print(f"n={len(g)} D={D!r}")
    print(f"oracle_lower_bound={lower!r}")
    print(f"best_heuristic_energy={best.energy!r}")
    return 0


def cmd_sweep(args) -> int:
    output = args.output
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir and not os.path.isabs(output):
        output = os.path.join(out_dir, output)
    config = harness.ExperimentConfig(
        nodes=args.nodes,
        edges=args.edges,
        procs=args.procs,
        runs=args.runs,
        seed=args.seed,
        deadline_ratios=args.ratios,
        f_rels=args.frels if args.frels else (2.0 / 3.0 * args.fmax,),
        lambda0s=args.lambda0s,
        d_sensitivity=args.d_sensitivity,
        f_min=args.fmin,
        f_max=args.fmax,
        output=output,
    )
    records = harness.run_sweep(config)
    print(f"wrote {len(records)} rows to {output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisched",
        description="Energy-aware DAG scheduling under deadline and reliability constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random DAG file")
    p.add_argument("--nodes", type=int, default=100)
    p.add_argument("--edges", type=int, default=300)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--weight-min", type=float, default=0.0)
    p.add_argument("--weight-max", type=float, default=10.0)
    p.add_argument("--output", help="file path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run every heuristic on one instance")
    _instance_args(p)
    _platform_args(p)
    p.add_argument("--procs", type=int, default=1)
    p.add_argument("--deadline-ratio", type=float, default=2.0)
    p.add_argument("--deadline", type=float, default=None,
                   help="absolute deadline (overrides --deadline-ratio)")
    p.add_argument("--schedule-out", help="write the best schedule to this file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("fork", help="exact fork solver")
    _platform_args(p)
    p.add_argument("--deadline", type=float, required=True)
    p.add_argument("--source-weight", type=float, default=None)
    p.add_argument("--leaf-weights", help="comma-separated leaf weights")
    p.add_argument("--leaves", type=int, default=2, help="leaf count for identical forks")
    p.add_argument("--weight", type=float, default=1.0, help="weight for identical forks")
    p.set_defaults(func=cmd_fork)

    p = sub.add_parser("vdd-convert", help="convert the best continuous schedule to discrete modes")
    _instance_args(p)
    _platform_args(p)
    p.add_argument("--procs", type=int, default=1)
    p.add_argument("--deadline-ratio", type=float, default=2.0)
    p.add_argument("--modes", required=True, help="comma-separated mode speeds")
    p.set_defaults(func=cmd_vdd_convert)

    p = sub.add_parser("oracle", help="exact minimum energy (a lower bound) of a single-processor chain")
    _platform_args(p)
    p.add_argument("--chain-weights", help="comma-separated weights")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--deadline-ratio", type=float, default=2.0)
    p.set_defaults(func=cmd_oracle)

    # No abbreviations: --lambda0 and --frel would pass as --lambda0s and --frels.
    p = sub.add_parser("sweep", help="run the simulation campaign and write a CSV", allow_abbrev=False)
    _speed_args(p)
    p.add_argument("--nodes", type=int, default=100)
    p.add_argument("--edges", type=int, default=300)
    p.add_argument("--procs", type=int, default=1)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--ratios", type=_parse_floats, default=(1.0, 1.2, 1.5, 2.0, 3.0, 5.0, 8.0))
    p.add_argument("--frels", type=_parse_floats, default=None)
    p.add_argument("--lambda0s", type=_parse_floats, default=(1e-5,))
    p.add_argument("--output", default="sweep.csv")
    p.add_argument("--config", help="config file of key=value lines, each a flag without its --, overriding flags")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; bad input it rejects is one ``<command> failed: ...`` line on stderr and exit 1."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # The file's lines come last, so they override the command line's flags.
            args = parser.parse_args([*argv, *_config_flags(parser, args.config)])
        return args.func(args)
    except (ValueError, OSError, vdd.VddInfeasibleError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
