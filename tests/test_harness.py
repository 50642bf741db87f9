"""Experiment driver, exhaustive chain oracle, CSV output and the CLI."""

import csv
import itertools
import math
import random

import pytest

from conftest import make_platform
from trisched import cli
from trisched.graph import chain, generate_random, parse_dag
from trisched.harness import (
    CSV_HEADER,
    ExperimentConfig,
    chain_oracle,
    run_sweep,
    sweep_records,
)
from trisched.heuristics import ALL_HEURISTICS, HeuristicKind, min_deadline, run
from trisched.model import f_inf, single_task_optimal
from trisched.schedule import list_schedule


class TestChainOracle:
    def test_single_task_matches_exact_solver(self, platform):
        g = chain([2.0])
        for D in (2.5, 4.0, 9.0, 40.0):
            oracle = chain_oracle(g, D, platform)
            exact = single_task_optimal(2.0, D, platform)
            assert oracle == pytest.approx(exact.energy, rel=1e-6)

    def test_tight_deadline_forces_full_speed(self, platform):
        weights = [1.0, 2.0, 0.5]
        g = chain(weights)
        oracle = chain_oracle(g, sum(weights), platform)
        assert oracle == pytest.approx(sum(weights) * platform.f_max ** 2, rel=1e-9)

    def test_lower_bounds_every_heuristic(self, platform):
        rng = random.Random(61)
        for _ in range(5):
            weights = [rng.uniform(0.3, 4.0) for _ in range(8)]
            g = chain(weights)
            mapping = list_schedule(g, 1)
            D = rng.uniform(1.0, 8.0) * sum(weights)
            oracle = chain_oracle(g, D, platform)
            for kind in ALL_HEURISTICS:
                _, metrics = run(kind, g, mapping, D, platform)
                assert oracle <= metrics.energy + 1e-9

    def test_size_limit(self, platform):
        with pytest.raises(ValueError):
            chain_oracle(chain([1.0] * 13), 100.0, platform)


# A chain on which an oracle that floors every re-executed task at the
# largest f_inf of its set returns 2.6978, above a.greedy's feasible 2.6466.
ORACLE_COUNTEREXAMPLE = dict(
    weights=(3.3199, 4.6569, 2.1531, 3.1845, 1.159, 4.4171), lambda0=0.023, deadline=150.33
)


def bisection_chain_oracle(weights, D, platform):
    """Minimum chain energy by a bisection on the common speed of each re-execution set.

    Every task runs at a common speed s clipped to its box: [f_rel, f_max]
    for a single run, [f_inf, f_rel/sqrt(2)] for a re-execution (closed, so
    the value is the infimum); s is the smallest speed whose total time fits D.
    """
    frel, fmax = platform.f_rel, platform.f_max
    c = frel / math.sqrt(2.0)
    floors = [f_inf(w, platform) for w in weights]
    best = math.inf
    for redo in itertools.product((False, True), repeat=len(weights)):
        if any(r and fi >= c for r, fi in zip(redo, floors)):
            continue
        boxes = [(fi, c) if r else (frel, fmax) for r, fi in zip(redo, floors)]
        mult = [2.0 if r else 1.0 for r in redo]

        def speeds(s):
            return [min(max(s, a), b) for a, b in boxes]

        def total_time(s):
            return sum(m * w / f for m, w, f in zip(mult, weights, speeds(s)))

        if total_time(fmax) > D:
            continue
        lo, hi = 0.0, fmax
        if total_time(lo) <= D:
            hi = lo
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if total_time(mid) <= D:
                hi = mid
            else:
                lo = mid
        best = min(best, sum(m * w * f * f for m, w, f in zip(mult, weights, speeds(hi))))
    return best


class TestChainOracleExact:
    """The water-filling oracle is the exact infimum, and behaves like one."""

    @pytest.mark.parametrize("lambda0", [1e-5, 1e-3, 0.023])
    @pytest.mark.parametrize("d", [0.0, 0.5])
    def test_equals_per_set_bisection(self, lambda0, d):
        platform = make_platform(lambda0=lambda0, d=d)
        rng = random.Random(f"{lambda0}/{d}")
        for n in range(1, 10):
            weights = [rng.uniform(0.3, 6.0) for _ in range(n)]
            # Tight, loose, and loose enough that re-executions reach their floors.
            for ratio in (rng.uniform(0.95, 1.6), rng.uniform(1.6, 10.0), math.exp(rng.uniform(2.3, 6.2))):
                D = ratio * sum(weights) / platform.f_max
                oracle = chain_oracle(chain(weights), D, platform)
                reference = bisection_chain_oracle(weights, D, platform)
                if reference == math.inf:
                    assert oracle == math.inf, (n, D)
                else:
                    assert oracle == pytest.approx(reference, rel=1e-9), (n, D)

    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_counterexample_bounds_every_feasible_heuristic(self):
        ce = ORACLE_COUNTEREXAMPLE
        platform = make_platform(lambda0=ce["lambda0"])
        g = chain(list(ce["weights"]))
        oracle = chain_oracle(g, ce["deadline"], platform)
        assert oracle == pytest.approx(2.4019, abs=1e-4)
        mapping = list_schedule(g, 1)
        energies = [run(kind, g, mapping, ce["deadline"], platform)[1] for kind in ALL_HEURISTICS]
        feasible = [m.energy for m in energies if m.feasible]
        assert feasible and oracle <= min(feasible)

    def test_non_increasing_in_the_deadline(self, platform):
        rng = random.Random(3)
        for _ in range(10):
            weights = [rng.uniform(0.3, 6.0) for _ in range(rng.randint(1, 8))]
            g = chain(weights)
            values = [chain_oracle(g, r * sum(weights), platform) for r in (0.9, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0, 8.0, 20.0)]
            for a, b in zip(values, values[1:]):
                assert b <= a * (1.0 + 1e-12)

    def test_invariant_under_permuting_the_chain(self, platform):
        rng = random.Random(4)
        for _ in range(10):
            weights = [rng.uniform(0.3, 6.0) for _ in range(rng.randint(2, 8))]
            D = rng.uniform(1.0, 8.0) * sum(weights)
            shuffled = weights[:]
            rng.shuffle(shuffled)
            assert chain_oracle(chain(shuffled), D, platform) == pytest.approx(
                chain_oracle(chain(weights), D, platform), rel=1e-12
            )

    def test_scales_with_work_time_and_fault_rate(self):
        # f_inf depends on lambda0 * w only when d = 0, so every speed stays
        # the same and energy scales with the work.
        rng = random.Random(5)
        for a in (0.5, 3.0, 10.0):
            weights = [rng.uniform(0.3, 6.0) for _ in range(rng.randint(1, 8))]
            D = rng.uniform(1.0, 8.0) * sum(weights)
            lambda0 = rng.choice((1e-5, 1e-3))
            base = chain_oracle(chain(weights), D, make_platform(lambda0=lambda0))
            scaled = chain_oracle(chain([a * w for w in weights]), a * D, make_platform(lambda0=lambda0 / a))
            assert scaled == pytest.approx(a * base, rel=1e-9)


class TestExperimentConfig:
    def test_rejects_bad_runs(self):
        with pytest.raises(ValueError):
            ExperimentConfig(runs=0)

    def test_rejects_sub_unit_ratio(self):
        with pytest.raises(ValueError):
            ExperimentConfig(deadline_ratios=(0.5, 2.0))


SMALL = dict(nodes=10, edges=15, runs=2, seed=3)


class TestSweep:
    def test_no_slack_normalizes_to_one(self, tmp_path):
        config = ExperimentConfig(
            deadline_ratios=(1.0,), output=str(tmp_path / "s.csv"), **SMALL
        )
        records = sweep_records(config)
        assert len(records) == len(ALL_HEURISTICS)
        for rec in records:
            assert rec.norm_energy == pytest.approx(1.0, rel=1e-12)
            assert rec.feasible == config.runs

    def test_baseline_normalizations(self, tmp_path):
        config = ExperimentConfig(
            deadline_ratios=(2.0,), output=str(tmp_path / "s.csv"), **SMALL
        )
        by_kind = {rec.heuristic: rec for rec in sweep_records(config)}
        assert by_kind[HeuristicKind.HNO_REEX].norm_energy == pytest.approx(1.0, rel=1e-12)
        # at ratio 2 the decelerated speed is f_rel, so the full-speed
        # baseline costs exactly (f_max/f_rel)^2 = 2.25 relative
        assert by_kind[HeuristicKind.HFMAX].norm_energy == pytest.approx(2.25, rel=1e-9)

    def test_csv_deterministic_and_well_formed(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            run_sweep(
                ExperimentConfig(
                    deadline_ratios=(1.0, 2.0), output=str(out), **SMALL
                )
            )
        def science_columns(path):
            # everything except the trailing wall-time measurement column
            with open(path, newline="") as fh:
                return [row[:-1] for row in csv.reader(fh)]

        assert science_columns(out1) == science_columns(out2)
        with open(out1, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 2 * len(ALL_HEURISTICS)

    def test_unwritable_output_reports_path(self, tmp_path):
        config = ExperimentConfig(
            deadline_ratios=(1.0,), output=str(tmp_path / "no" / "dir.csv"), **SMALL
        )
        with pytest.raises(OSError, match="dir.csv"):
            run_sweep(config)


class TestCli:
    def test_gen_round_trip(self, tmp_path, capsys):
        out = tmp_path / "g.dag"
        assert cli.main(["gen", "--nodes", "5", "--edges", "4", "--seed", "1",
                         "--output", str(out)]) == 0
        g = parse_dag(out.read_text())
        assert len(g) == 5 and len(g.edges) == 4

    def test_gen_to_stdout(self, capsys):
        assert cli.main(["gen", "--nodes", "3", "--edges", "2", "--seed", "2"]) == 0
        g = parse_dag(capsys.readouterr().out)
        assert len(g) == 3

    def test_solve_prints_table(self, capsys):
        rc = cli.main(["solve", "--nodes", "12", "--edges", "20", "--seed", "4",
                       "--deadline-ratio", "2.0"])
        out = capsys.readouterr().out
        assert rc == 0
        for kind in ALL_HEURISTICS:
            assert kind.value in out

    def test_solve_infeasible_deadline(self, capsys):
        rc = cli.main(["solve", "--nodes", "5", "--edges", "4", "--seed", "1",
                       "--deadline", "0.001"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "infeasible" in captured.err

    def test_solve_exits_on_best_when_a_kind_ends_infeasible(self, tmp_path, capsys):
        # Near times of 1e9 b.greedy ends past the deadline while BEST is
        # feasible; the verdict is BEST's.
        dag = tmp_path / "big.dag"
        cli.main(["gen", "--nodes", "30", "--edges", "60", "--seed", "1", "--weight-max", "1e9",
                  "--output", str(dag)])
        capsys.readouterr()
        rc = cli.main(["solve", "--dag", str(dag), "--procs", "1", "--deadline-ratio", "1.2",
                       "--lambda0", "1e-14"])
        captured = capsys.readouterr()
        rows = {line.split()[0]: line.split()[-1] for line in captured.out.splitlines()[2:]}
        assert rc == 0 and captured.err == ""
        assert rows["b.greedy"] == "False" and rows["best"] == "True"

    def test_solve_on_dag_file(self, tmp_path, capsys):
        dag = tmp_path / "g.dag"
        cli.main(["gen", "--nodes", "6", "--edges", "5", "--seed", "9",
                  "--output", str(dag)])
        capsys.readouterr()
        assert cli.main(["solve", "--dag", str(dag)]) == 0

    def test_fork_identical(self, capsys):
        rc = cli.main(["fork", "--deadline", "2.2", "--weight", "1", "--leaves", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "energy=" in out and "closed-form cross-check" in out

    def test_fork_infeasible(self, capsys):
        rc = cli.main(["fork", "--deadline", "1.0", "--weight", "1", "--leaves", "2"])
        assert rc == 1
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("deadline,leaves", [("inf", "2"), ("0", "0"), ("-1", "3")])
    def test_fork_rejected_deadline_is_one_line_on_stderr(self, capsys, deadline, leaves):
        rc = cli.main(["fork", "--deadline", deadline, "--leaves", leaves])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith("fork failed: deadline must be finite and positive")
        assert captured.err.count("\n") == 1

    def test_oracle_bounds_best(self, capsys):
        rc = cli.main(["oracle", "--chain-weights", "1,2,1.5", "--deadline-ratio", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        lower = float(out.split("oracle_lower_bound=")[1].splitlines()[0])
        best = float(out.split("best_heuristic_energy=")[1].splitlines()[0])
        assert lower <= best + 1e-9

    def test_vdd_convert(self, capsys):
        rc = cli.main(["vdd-convert", "--nodes", "10", "--edges", "12", "--seed", "6",
                       "--modes", "0.2,0.4,0.6,0.8,1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "discrete_energy=" in out and "overhead=" in out and "feasible=True" in out

    def test_sweep_with_config_file_and_output_dir(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# tiny campaign\nnodes=8\nedges=10\nruns=2\nratios=1,2\noutput=out.csv\n"
        )
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        with open(tmp_path / "out.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER and len(rows) > 1

    def test_config_value_overrides_the_same_flag(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("ratios = 2\n")
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--nodes", "8", "--edges", "10", "--runs", "1", "--ratios", "1.5",
                         "--config", str(cfg), "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            assert {row["ratio"] for row in csv.DictReader(fh)} == {"2.0"}

    @pytest.mark.parametrize("line,key", [("bogus=1", "--bogus"), ("nodes=8\nlambda0=1e-2", "--lambda0"),
                                          ("config=other.cfg", "'config'")])
    def test_bad_config_key_exits_with_usage(self, tmp_path, capsys, line, key):
        # A config line is a sweep flag without its --; the single --lambda0 is not one.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", str(cfg)])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lambda0", "--frel"])
    def test_sweep_rejects_the_single_platform_flags(self, tmp_path, capsys, flag):
        # A sweep takes lambda0 and f_rel as lists; one value is --lambda0s or --frels.
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--nodes", "8", "--edges", "10", "--runs", "1", "--ratios", "1.5",
                      flag, "1e-2", "--output", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.filterwarnings("ignore::trisched.model.ModelValidityWarning")
    def test_sweep_writes_the_lambda0s_it_is_given(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--nodes", "10", "--edges", "15", "--runs", "1", "--ratios", "1.5",
                         "--lambda0s", "1e-2", "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and {row["lambda0"] for row in rows} == {"0.01"}

    @pytest.mark.parametrize("argv", [
        ["oracle", "--n", "13"],
        ["oracle", "--chain-weights", "1,0,2"],
        ["gen", "--nodes", "10", "--edges", "100"],
        ["solve", "--nodes", "5", "--edges", "4", "--deadline", "-1"],
        ["sweep", "--nodes", "8", "--edges", "10", "--runs", "1", "--ratios", "0.5"],
        ["solve", "--dag", "no-such.dag"],
    ])
    def test_rejected_input_is_one_line_on_stderr(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(argv)
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err.startswith(f"{argv[0]} failed: ") and captured.err.count("\n") == 1

    def test_bad_flags_exit_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--no-such-flag"])
        assert exc.value.code == 2
