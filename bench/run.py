"""Benchmark of trisched: BEST on random DAGs and the exact solvers.

    python3 bench/run.py --workload dag-tight --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed through the program (timed as
set-up), then repeats whole rounds of its ops until the next round would
overrun ``--seconds`` (at least one round).  Every op's output is checked
afterwards by the independent checks of ``checks.py``.  All times are
reference-normalised (see ``refclock.py``); raw wall figures are printed
beside them for information.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the rounds run once untraced (half of ``--seconds``) and then as
many times traced, and the last line reports the per-layer metrics and the
tracing overhead.  Results and spans are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Set-up is short (10-100 ms), so it is repeated, at least SETUP_REPS times
# and for SETUP_MIN_S, and its median reported.
SETUP_REPS = 15
SETUP_MIN_S = 0.5


def import_program():
    """Import trisched from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    if not (src / "trisched" / "__init__.py").is_file():
        raise ImportError(f"no trisched package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import trisched

    if Path(trisched.__file__).resolve().parent != (src / "trisched").resolve():
        raise ImportError(f"trisched imported from {trisched.__file__}, not from {src}")


@dataclass
class Record:
    op: int
    round: int
    t0: float
    t1: float
    output: Any
    error: str = ""


def run_rounds(clock, ops, seconds=None, rounds=None) -> list[Record]:
    """Whole rounds of ops: exactly ``rounds``, or while the next fits ``seconds``."""
    records = []
    start = clock.now()
    done = 0
    while True:
        for i, op in enumerate(ops):
            gc.collect()  # every op starts from the same collector state
            t0 = clock.now()
            try:
                out, err = op.run(), ""
            except Exception:  # a raising op is a failed op, reported below
                out, err = None, traceback.format_exc()
            t1 = clock.now()
            # Later rounds keep only whether they repeat the first round, so
            # memory does not grow with the number of rounds a host manages.
            if done and not err:
                first = records[i]
                out = not first.error and op.fingerprint(out) == op.fingerprint(first.output)
            records.append(Record(i, done, t0, t1, out, err))
        done += 1
        if rounds is not None:
            if done == rounds:
                return records
        elif (clock.now() - start) * (done + 1) / done > seconds:
            return records


def timed_setup(clock, wl, seed):
    marks = []
    while len(marks) < SETUP_REPS or marks[-1][1] - marks[0][0] < SETUP_MIN_S:
        gc.collect()
        t0 = clock.now()
        ops = wl.build(seed)
        marks.append((t0, clock.now()))
    scale = clock.scale(marks[0][0], marks[-1][1])
    norm = statistics.median(clock.work_time(a, b) * scale for a, b in marks)
    raw = statistics.median(b - a for a, b in marks)
    return ops, norm, raw


def check_records(ops, records, first=None):
    """Check outputs; returns (ratios, failed flags, unexpected failures, first-round prints).

    The first round of each op gets the full checks; every later round must
    repeat the first round's fingerprint exactly.
    """
    first = dict(first or {})
    ratios: dict[int, float] = {}
    failed, unexpected = [], []
    for r in records:
        op = ops[r.op]
        if r.error:
            bad = [f"raised: {r.error}"]
        elif r.op in first:
            same = op.fingerprint(r.output) == first[r.op][0] if r.round == 0 else r.output
            bad = [] if same else ["round: output differs from the first round"]
            bad += first[r.op][1]
        else:
            ratio, bad = op.check(r.output)
            first[r.op] = (op.fingerprint(r.output), bad)
            ratios[r.op] = ratio
        failed.append(bool(bad))
        if bad and not (op.known_fault and all(b.startswith(op.known_fault) for b in bad)):
            unexpected.append((op.key, r.round, bad))
    return ratios, failed, unexpected, first


def end_to_end(ops, records, failed, clock, ratios, setup):
    ok = [r for r, f in zip(records, failed) if not f]
    if not ok:
        raise SystemExit("bench: every op failed; no metric to report")
    norm = [clock.interval(r.t0, r.t1) for r in ok]
    raw = [r.t1 - r.t0 for r in ok]
    solves = [ops[r.op].solves for r in ok]
    good_ops = {r.op for r in ok}
    energy = [ratios[i] for i in sorted(ratios) if i in good_ops]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "solves_per_s": (sum(solves) / sum(norm), "1/s"),
        "solve_s.p50": (statistics.median(t / s for t, s in zip(norm, solves)), "s"),
        "energy_norm": (sum(energy) / len(energy), "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (setup[0], "s"),
    }
    raw_metrics = {
        "solves_per_s": sum(solves) / sum(raw),
        "solve_s.p50": statistics.median(t / s for t, s in zip(raw, solves)),
        "setup_s": setup[1],
    }
    return metrics, raw_metrics


def main(argv=None) -> int:
    try:
        import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from trisched.model import ModelValidityWarning

    import tracing
    import workloads
    from refclock import RefClock

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # The fixed chain_oracle counterexample runs at lambda0 = 0.023.
    warnings.filterwarnings("ignore", category=ModelValidityWarning)

    wl = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    with RefClock() as clock:
        ops, setup_norm, setup_raw = timed_setup(clock, wl, args.seed)
        if args.trace:
            t0 = clock.now()
            with tracer:
                wl.build(args.seed)
            setup_mark = (t0, clock.now())
            setup_spans = len(tracer.spans)
            records = run_rounds(clock, ops, seconds=args.seconds / 2)
            n_rounds = records[-1].round + 1
            with tracer:
                traced = run_rounds(clock, ops, rounds=n_rounds)
        else:
            records = run_rounds(clock, ops, seconds=args.seconds)
    # The clock has stopped: everything below is outside the timed interval.
    ratios, failed, unexpected, first = check_records(ops, records)
    if args.trace:
        _, traced_failed, traced_unexpected, _ = check_records(ops, traced, first)
        unexpected += traced_unexpected
        failed += traced_failed
    for key, rnd, bad in unexpected:
        print(f"FAILED {key} (round {rnd}): " + "; ".join(bad[:5]), file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        intervals = [setup_mark] + [(r.t0, r.t1) for r in traced]
        self_s, incl_s = tracer.normalised_times(clock, intervals)
        tracer.write(OUT / f"spans-{tag}.jsonl.gz", self_s, setup_mark[0])
        metrics = tracing.layer_metrics(tracer, self_s, incl_s, len(traced), setup_spans)
        plain = sum(clock.interval(r.t0, r.t1) for r in records)
        with_spans = sum(clock.interval(r.t0, r.t1) for r in traced)
        metrics["trace.overhead_s"] = ((with_spans - plain) / len(traced), "s/op")
        raw_metrics = {}
    else:
        metrics, raw_metrics = end_to_end(ops, records, failed, clock, ratios, (setup_norm, setup_raw))

    print(f"workload {args.workload}, seed {args.seed}: {len(records)} ops in "
          f"{records[-1].round + 1} round(s), median reference chunk {clock.median_chunk_s() * 1e3:.4f} ms")
    for name, (value, unit) in metrics.items():
        raw = f"   (raw wall {raw_metrics[name]:.6g} {unit})" if name in raw_metrics else ""
        print(f"  {name:48s} {value:.6g} {unit}{raw}")
    result = {
        "correct": not unexpected,
        "attempted": len(failed),
        "failed": sum(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {**result, "raw": raw_metrics, "median_chunk_s": clock.median_chunk_s()}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
