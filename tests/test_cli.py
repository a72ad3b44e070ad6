import argparse
import concurrent.futures
import hashlib
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from asyncadmm import admm, cli, digraph, oracle
from asyncadmm.cli import ExperimentConfig, main
from asyncadmm.digraph import random_strongly_connected, save_edge_list

FAST = [
    "--nodes", "8",
    "--edge-prob", "0.3",
    "--dim", "2",
    "--epsilon", "0.1",
    "--tau-bar", "2",
    "--kmax", "15",
    "--seed", "4",
]


# SHA-256 of outputs frozen from the message-object simulator that preceded
# the array engine; FAST with --trace, FAST in sync_baseline mode, and a sweep
GOLDEN_SHA256 = {
    "run.csv": "65c47a4173349416909d4e2ae6c4d7c8c6c116c7539e8775467ed8071fd8498d",
    "trace.txt": "2107b0bf118f1ee77d0491c5968f937e0d011f981ec1c3cb64177627ce42acb0",
    "sync_baseline run.csv": "65e2a027bfce2d4aa9847f6a80dfb1b43911449d94b8dc6c86319c8f560bf65c",
    "sweep.csv": "700e3269d8b7ef2607987460877d230ac99de41caa4deeb5db628b2f4688d73f",
}


# every flag `run` takes; `sweep` adds --epsilons and --tau-bars
FLAGS = {
    "--config", "--topology", "--nodes", "--edge-prob", "--dim", "--epsilon", "--tau-bar", "--rho",
    "--kmax", "--eps-abs", "--eps-rel", "--step-cap", "--seed", "--mode", "--trace", "--out",
}
NUMERIC_FIELDS = [f for f in fields(ExperimentConfig) if f.type in ("int", "float")]


def zero_optimum_flags(tmp_path):
    """Flags for a one-node digraph with ``--dim 1 --seed 1``, whose centralized optimum is exactly 0.0."""
    topo = tmp_path / "one_node.txt"
    topo.write_text("1\n")
    return ["--topology", f"file:{topo}", "--dim", "1", "--seed", "1"]


def run_cli(*args):
    return main(list(args))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(nodes=12, epsilon=0.05, tau_bar=4, seed=77, trace=True)
        path = tmp_path / "config.txt"
        cfg.to_file(path)
        assert ExperimentConfig.from_file(path) == cfg
        # blank lines and # comments are skipped
        path.write_text("# a comment\n\n  \nnodes=12\n  # indented\nseed=77\n")
        assert ExperimentConfig.from_file(path) == ExperimentConfig(nodes=12, seed=77)

    def test_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "config.txt"
        # an unknown key, a typo in a boolean that must not read as false, and a repeated key
        for text, message in (
            ("nodes=5\nbogus=1\n", "bogus"),
            ("nodes=5\ntrace=ture\n", "trace"),
            ("seed=1\nnodes=5\n seed = 2\n", "repeated config key in .*'seed'"),
            ("nodes=5\nkmax 3\n", "malformed config line in .*'kmax 3'"),
        ):
            path.write_text(text)
            with pytest.raises(ValueError, match=message):
                ExperimentConfig.from_file(path)

    @pytest.mark.parametrize(
        "line,message",
        [
            ("kmax=abc", "config kmax must be an integer, got 'abc'"),
            ("edge_prob=abc", "config edge_prob must be a number, got 'abc'"),
        ],
    )
    def test_unparsable_value_names_its_key(self, tmp_path, capsys, line, message):
        # int() and float() alone name neither the key nor the file's line
        config = tmp_path / "config.txt"
        config.write_text(f"nodes=8\n{line}\n")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "o")) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_validation(self):
        with pytest.raises(ValueError):
            cli.build_problem(ExperimentConfig(mode="turbo"))
        with pytest.raises(ValueError):
            cli.build_problem(ExperimentConfig(topology="ring"))


class TestSettings:
    @pytest.mark.parametrize("f", NUMERIC_FIELDS, ids=lambda f: f.name)
    def test_unparsable_value_exits_1_naming_the_flag_or_key(self, tmp_path, capsys, f):
        what = "an integer" if f.type == "int" else "a number"
        flag = "--" + f.name.replace("_", "-")
        assert run_cli("run", flag, "abc", "--out", str(tmp_path / "o")) == 1
        assert f"error: {flag} must be {what}, got 'abc'" in capsys.readouterr().err
        config = tmp_path / "config.txt"
        config.write_text(f"{f.name}=abc\n")
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path / "o")) == 1
        assert f"error: config {f.name} must be {what}, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--tau-bars", "abc", "--tau-bars must be an integer, got 'abc'"),
            ("--tau-bars", "1,2.5", "--tau-bars must be an integer, got '2.5'"),
            ("--epsilons", "0.1,x", "--epsilons must be a number, got 'x'"),
            ("--epsilons", ",", "sweep needs nonempty epsilon and tau_bar lists"),
        ],
        ids=["tau_bars_abc", "tau_bars_2.5", "epsilons_x", "epsilons_empty"],
    )
    def test_unparsable_sweep_list_item_exits_1_naming_the_flag(self, tmp_path, capsys, flag, value, message):
        lists = {"--epsilons": "0.1", "--tau-bars": "1", flag: value}
        args = [item for pair in lists.items() for item in pair]
        assert run_cli("sweep", "--nodes", "6", "--kmax", "2", *args, "--out", str(tmp_path / "o")) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_mode_exits_1_naming_it(self, tmp_path, capsys):
        assert run_cli("run", "--mode", "bogus", "--out", str(tmp_path / "o")) == 1
        assert "error: mode must be one of ('asyadmm', 'sync_baseline'), got 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("mode", cli.MODES)
    def test_topology_that_is_not_strongly_connected_exits_1_naming_it(self, tmp_path, capsys, monkeypatch, command, mode):
        # a path 0 -> 1 -> 2; exact averaging would run on it, but the termination rule needs strong connectivity
        topo = tmp_path / "path.txt"
        topo.write_text("3\n1 0\n2 1\n")
        monkeypatch.setattr(os, "fork", _no_fork, raising=False)
        lists = ["--epsilons", "0.1", "--tau-bars", "1,2"] if command == "sweep" else []
        code = run_cli(
            command, "--topology", f"file:{topo}", "--mode", mode, "--kmax", "2", *lists, "--out", str(tmp_path / "o")
        )
        assert code == 1
        assert f"error: topology file:{topo} is not strongly connected" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_negative_seed_exits_1_naming_it_before_any_draw(self, tmp_path, capsys, monkeypatch, command):
        def draw(*args, **kwargs):
            pytest.fail("a draw ran before the seed was checked")

        monkeypatch.setattr(cli, "random_strongly_connected", draw)
        monkeypatch.setattr(cli, "generate_ls", draw)
        monkeypatch.setattr(os, "fork", _no_fork, raising=False)
        lists = ["--epsilons", "0.1", "--tau-bars", "1,2"] if command == "sweep" else []
        assert run_cli(command, "--seed", "-1", *lists, "--out", str(tmp_path / "o")) == 1
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "args,named",
        [
            (["--config", "{tmp}/missing.txt", "--out", "{tmp}/o"], "{tmp}/missing.txt"),
            (["--topology", "file:{tmp}", "--out", "{tmp}/o"], "{tmp}"),
            (["--out", "{tmp}/file/o"], "{tmp}/file"),
        ],
        ids=["missing_config", "directory_topology", "out_below_a_file"],
    )
    def test_unusable_path_exits_2_naming_it(self, tmp_path, capsys, args, named):
        (tmp_path / "file").write_text("")
        args = [arg.format(tmp=tmp_path) for arg in args]
        assert run_cli("run", *FAST, "--kmax", "2", *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named.format(tmp=tmp_path) in err
        assert not (tmp_path / "o").exists()

    def test_flag_and_config_key_build_equal_configs(self, tmp_path):
        values = {
            "topology": "file:topo.txt", "nodes": "7", "edge_prob": "0.5", "dim": "4", "epsilon": "0.05",
            "tau_bar": "2", "rho": "2.5", "kmax": "9", "eps_abs": "1e-06", "eps_rel": "0.001",
            "step_cap": "50", "seed": "11", "mode": "sync_baseline", "trace": "true",
        }
        assert list(values) == [f.name for f in fields(ExperimentConfig)]
        parser = argparse.ArgumentParser()
        cli._add_common_flags(parser)
        config = tmp_path / "config.txt"
        for name, raw in values.items():
            flag = ["--" + name.replace("_", "-")] + ([] if name == "trace" else [raw])
            from_flag = cli._config_from_args(parser.parse_args([*flag, "--out", "o"]))
            config.write_text(f"{name}={raw}\n")
            from_key = ExperimentConfig.from_file(config)
            assert from_flag == from_key != ExperimentConfig()

    @pytest.mark.parametrize("command,extra", [("run", set()), ("sweep", {"--epsilons", "--tau-bars"})])
    def test_help_lists_every_flag(self, capsys, command, extra):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        listed = set(re.findall(r"^ +(--[a-z-]+)", capsys.readouterr().out, re.MULTILINE))
        assert listed == FLAGS | extra


class TestRunOnce:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", *FAST, "--out", str(out)) == 0
        for name in ("run.csv", "summary.csv", "config.txt", "topology.txt"):
            assert (out / name).is_file()
        header = (out / "run.csv").read_text().splitlines()[0]
        assert header == "k,objective,primal_res,dual_res,consensus_steps,gap,max_node_err"

    def test_reachability_is_squared_once(self, tmp_path, monkeypatch):
        # asyadmm, the default mode: build_problem's connectivity check keeps the D every consensus instance reads
        calls = _count_calls(tmp_path, monkeypatch, [(digraph, "_hops_to_reach_all")])
        assert run_cli("run", *FAST, "--out", str(tmp_path / "out")) == 0
        assert (calls / "_hops_to_reach_all").read_text() == f"{os.getpid()}\n"

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", *FAST, "--out", str(out_a)) == 0
        assert run_cli("run", *FAST, "--out", str(out_b)) == 0
        assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()
        assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()

    def test_all_csv_fields_finite(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", *FAST, "--out", str(out))
        for line in (out / "run.csv").read_text().splitlines()[1:]:
            assert all(np.isfinite(float(v)) for v in line.split(","))
        summary = (out / "summary.csv").read_text().splitlines()[1]
        assert all(np.isfinite(float(v)) for v in summary.split(","))

    def test_config_file_round_trips_to_identical_run(self, tmp_path):
        out_a = tmp_path / "a"
        run_cli("run", *FAST, "--out", str(out_a))
        out_b = tmp_path / "b"
        assert run_cli("run", "--config", str(out_a / "config.txt"), "--out", str(out_b)) == 0
        assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()

    def test_missing_topology_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        code = run_cli("run", "--topology", f"file:{missing}", "--out", str(tmp_path / "o"))
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_file_topology_is_used(self, tmp_path):
        g = random_strongly_connected(6, 0.3, seed=5)
        topo = tmp_path / "topo.txt"
        save_edge_list(g, topo)
        out = tmp_path / "out"
        assert run_cli(
            "run", "--topology", f"file:{topo}", "--dim", "2", "--epsilon", "0.1",
            "--tau-bar", "1", "--kmax", "10", "--seed", "3", "--out", str(out),
        ) == 0
        assert (out / "topology.txt").read_text() == topo.read_text()

    @pytest.mark.parametrize("mode", ["asyadmm", "sync_baseline"])
    def test_zero_optimum_gives_an_infinite_relative_error(self, tmp_path, mode):
        out = tmp_path / "out"
        assert run_cli("run", *zero_optimum_flags(tmp_path), "--kmax", "3", "--mode", mode, "--out", str(out)) == 0
        header, row = (line.split(",") for line in (out / "summary.csv").read_text().splitlines())
        summary = dict(zip(header, row))
        assert summary["oracle_objective"] == "0.0" and float(summary["final_objective"]) > 0.0
        assert summary["relative_error"] == "inf"

    def test_invalid_config_nonzero_exit(self, tmp_path, capsys):
        code = run_cli("run", "--nodes", "0", "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,name", [("--epsilon", "eps"), ("--rho", "rho")])
    def test_nan_exits_1_and_names_the_field(self, tmp_path, capsys, flag, name):
        # NaN is not > 0: --epsilon nan would cap every instance, --rho nan fail as a y0 error
        code = run_cli("run", *FAST, flag, "nan", "--out", str(tmp_path / "o"))
        assert code == 1
        assert f"error: {name} must be > 0, got nan" in capsys.readouterr().err
        assert not (tmp_path / "o" / "run.csv").exists()

    def test_infinite_rho_exits_1_and_names_it(self, tmp_path, capsys):
        # inf passes "> 0": it used to warn in the prox, then fail as a y0 error
        code = run_cli(
            "run", "--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--kmax", "5",
            "--seed", "4", "--rho", "inf", "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert "error: rho must be finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "o" / "run.csv").exists()

    @pytest.mark.parametrize(
        "rho,where", [("1e308", "the prox system"), ("1e-320", "the prox target"), ("1e200", "the residual test")]
    )
    def test_extreme_finite_rho_exits_1_and_names_it(self, tmp_path, capsys, rho, where):
        # rho * targets, lam / rho, or the residual test's ||lam|| overflows
        # (past 1.3e154, and at 1e200 the run used to stop early on an
        # infinite threshold); this suite turns the RuntimeWarning such an
        # overflow used to print into an error
        code = run_cli(
            "run", "--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--kmax", "5",
            "--seed", "4", "--rho", rho, "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert f"error: rho={float(rho)!r} overflows {where}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rho_that_overflows_the_dual_step_exits_1_and_names_it(self, tmp_path, capsys):
        # rho * targets is finite (below 0.99 of the largest float), but at
        # seed 24 one node's x - z is 1.22 times the largest target
        code = run_cli(
            "run", "--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--kmax", "5",
            "--seed", "24", "--rho", "8.5e307", "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert "error: rho=8.5e+307 overflows the dual step lam + rho * (x - z)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rho_1e150_keeps_its_iterations(self, tmp_path):
        # ||lam|| stays below the overflow of its squares: the whole run, as before that check
        out = tmp_path / "o"
        assert run_cli(
            "run", "--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--kmax", "5",
            "--seed", "4", "--rho", "1e150", "--out", str(out),
        ) == 0
        assert len((out / "run.csv").read_text().splitlines()) == 1 + 5

    @pytest.mark.parametrize(
        "flags", [["--rho", "inf"], ["--mode", "sync_baseline", "--tau-bar", "-1"]], ids=["rho_inf", "sync_tau_bar"]
    )
    def test_rejected_run_makes_no_directory(self, tmp_path, flags):
        assert run_cli("run", *FAST, *flags, "--out", str(tmp_path / "o")) == 1
        assert not (tmp_path / "o").exists()

    def test_sync_baseline_validates_tau_bar(self, tmp_path, capsys):
        # exact averaging never draws a delay, but a bad tau_bar is still an error
        code = run_cli("run", *FAST, "--mode", "sync_baseline", "--tau-bar", "-1", "--out", str(tmp_path / "o"))
        assert code == 1
        assert "error: tau_bar must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o" / "config.txt").exists()

    def test_trace_output(self, tmp_path):
        out = tmp_path / "out"
        run_cli("run", *FAST, "--trace", "--out", str(out))
        lines = (out / "trace.txt").read_text().splitlines()
        assert lines
        k, sender, receiver, kind = lines[0].split(",")
        assert kind in ("RATIO_PAIR", "MIN_MAX_PAIR")
        int(k), int(sender), int(receiver)

    def test_trace_leaves_the_csvs_as_they_are(self, tmp_path):
        # the trace is replayed after the run: the solver ran as it runs untraced
        for name, flags in (("traced", ["--trace"]), ("plain", [])):
            assert run_cli("run", *FAST, *flags, "--out", str(tmp_path / name)) == 0
        assert not (tmp_path / "plain" / "trace.txt").exists()
        for csv in ("run.csv", "summary.csv"):
            assert (tmp_path / "traced" / csv).read_bytes() == (tmp_path / "plain" / csv).read_bytes()

    def test_sync_baseline_trace_is_empty(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", *FAST, "--mode", "sync_baseline", "--trace", "--out", str(out)) == 0
        assert (out / "trace.txt").read_bytes() == b""

    def test_outputs_match_golden_digests(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", *FAST, "--trace", "--out", str(out)) == 0
        assert sha256(out / "run.csv") == GOLDEN_SHA256["run.csv"]
        assert sha256(out / "trace.txt") == GOLDEN_SHA256["trace.txt"]
        sync = tmp_path / "sync"
        assert run_cli("run", *FAST, "--mode", "sync_baseline", "--out", str(sync)) == 0
        assert sha256(sync / "run.csv") == GOLDEN_SHA256["sync_baseline run.csv"]

    def test_sync_baseline_matches_vanishing_eps_gap_column(self, tmp_path):
        shared = [
            "--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--kmax", "25",
            "--seed", "6", "--eps-abs", "0", "--eps-rel", "0",
        ]
        out_sync = tmp_path / "sync"
        out_tiny = tmp_path / "tiny"
        run_cli("run", *shared, "--mode", "sync_baseline", "--epsilon", "0.1", "--out", str(out_sync))
        run_cli(
            "run", *shared, "--mode", "asyadmm", "--epsilon", "1e-12", "--tau-bar", "0",
            "--step-cap", "5000", "--out", str(out_tiny),
        )
        gaps_sync = [float(l.split(",")[5]) for l in (out_sync / "run.csv").read_text().splitlines()[1:]]
        gaps_tiny = [float(l.split(",")[5]) for l in (out_tiny / "run.csv").read_text().splitlines()[1:]]
        assert len(gaps_sync) == len(gaps_tiny)
        assert max(abs(a - b) for a, b in zip(gaps_sync, gaps_tiny)) <= 1e-9


class TestSweep:
    def test_grid_rows_and_trend(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--nodes", "10", "--edge-prob", "0.3", "--dim", "2", "--kmax", "12",
            "--seed", "4", "--epsilons", "0.1,0.01", "--tau-bars", "3,5,10",
            "--out", str(out),
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "epsilon,tau_bar,status,final_rel_error,mean_consensus_steps,capped_iterations"
        assert len(lines) == 7
        rows = [line.split(",") for line in lines[1:]]
        assert all(r[2] == "ok" for r in rows)
        for eps in ("0.1", "0.01"):
            steps = [float(r[4]) for r in rows if r[0] == eps]
            assert steps == sorted(steps)

    def test_singleton_matches_run_once_summary(self, tmp_path):
        args = ["--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--kmax", "10", "--seed", "9"]
        out_run = tmp_path / "run"
        run_cli("run", *args, "--epsilon", "0.1", "--tau-bar", "2", "--out", str(out_run))
        out_sweep = tmp_path / "sweep"
        run_cli("sweep", *args, "--epsilons", "0.1", "--tau-bars", "2", "--out", str(out_sweep))
        summary = (out_run / "summary.csv").read_text().splitlines()[1].split(",")
        row = (out_sweep / "sweep.csv").read_text().splitlines()[1].split(",")
        assert float(row[3]) == float(summary[2])  # relative error
        assert float(row[4]) == float(summary[4])  # mean consensus steps

    def test_reference_annotation_printed(self, tmp_path, capsys):
        run_cli(
            "sweep", "--nodes", "6", "--edge-prob", "0.4", "--dim", "2", "--kmax", "5",
            "--seed", "1", "--epsilons", "0.1", "--tau-bars", "1", "--out", str(tmp_path / "s"),
        )
        out = capsys.readouterr().out
        assert "9/13/23" in out
        assert "2*(1+tau_bar)*D steps: 16/24/44" in out

    def test_sweep_output_deterministic(self, tmp_path):
        args = [
            "sweep", "--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--kmax", "8",
            "--seed", "3", "--epsilons", "0.1,0.05", "--tau-bars", "1,2",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*args, "--out", str(out_a)) == 0
        assert run_cli(*args, "--out", str(out_b)) == 0
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_sweep_matches_golden_digest(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli(
            "sweep", "--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--epsilon", "0.1",
            "--tau-bar", "2", "--kmax", "8", "--seed", "3", "--epsilons", "0.1,0.05",
            "--tau-bars", "1,2", "--out", str(out),
        ) == 0
        assert sha256(out / "sweep.csv") == GOLDEN_SHA256["sweep.csv"]

    def test_zero_optimum_cells_are_ok_with_an_infinite_error(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli(
            "sweep", *zero_optimum_flags(tmp_path), "--kmax", "3", "--epsilons", "0.1,0.01", "--tau-bars", "1,3",
            "--out", str(out),
        ) == 0
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [row[2:4] for row in rows] == [["ok", "inf"]] * 4

    def test_cell_failure_recorded_not_fatal(self, tmp_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--kmax", "5",
            "--seed", "2", "--epsilons=-1,0.1", "--tau-bars", "1", "--out", str(out),
        )
        assert code == 0
        rows = [l.split(",") for l in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert rows[0][2].startswith("error")
        assert rows[1][2] == "ok"

    @pytest.mark.parametrize("flags,name", [(["--epsilons", "nan,0.1"], "eps")])
    def test_nan_is_a_cell_error_that_names_the_field(self, tmp_path, flags, name):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--kmax", "5",
            "--seed", "2", "--tau-bars", "1", *flags, "--out", str(out),
        )
        assert code == 0
        rows = [l.split(",") for l in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert rows[0][2] == f"error: {name} must be > 0; got nan"
        assert [row[2] for row in rows[1:]] == ["ok"]

    def test_non_integer_tau_bar_is_a_cell_error(self, tmp_path):
        # a library caller's 2.5 reaches SolverConfig as given, not truncated to 2
        cfg = ExperimentConfig(nodes=6, edge_prob=0.4, dim=2, kmax=3, seed=1)
        assert cli.sweep(cfg, [0.1], [2.5, 2], tmp_path / "sweep") == 0
        rows = [l.split(",") for l in (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]]
        assert rows[0] == ["0.1", "2.5", "error: tau_bar must be an integer; got 2.5", "", "", ""]
        assert rows[1][:3] == ["0.1", "2", "ok"]

    def test_programming_error_in_a_cell_propagates(self, tmp_path, monkeypatch):
        def broken_run(*args, **kwargs):
            raise TypeError("broken solver")

        monkeypatch.setattr(admm, "run", broken_run)
        with pytest.raises(TypeError, match="broken solver"):
            run_cli(
                "sweep", "--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--kmax", "5",
                "--seed", "2", "--epsilons", "0.1", "--tau-bars", "1", "--out", str(tmp_path / "s"),
            )

    def test_trace_is_rejected_by_flag_and_config_file(self, tmp_path, capsys):
        args = [
            "sweep", "--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--kmax", "5",
            "--seed", "2", "--epsilons", "0.1", "--tau-bars", "1",
        ]
        assert run_cli(*args, "--trace", "--out", str(tmp_path / "flag")) == 1
        assert "--trace is only written by run" in capsys.readouterr().err
        config = tmp_path / "config.txt"
        config.write_text("trace=true\n")
        assert run_cli(*args, "--config", str(config), "--out", str(tmp_path / "file")) == 1
        assert "--trace is only written by run" in capsys.readouterr().err
        assert not (tmp_path / "flag").exists() and not (tmp_path / "file").exists()

    def test_pooled_rows_equal_in_process_cells(self, tmp_path, monkeypatch):
        eps_list, tau_list = [0.1, -1.0, 0.05], [1, 3, 2]
        out = tmp_path / "sweep"
        args = [
            "sweep", "--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--kmax", "5",
            "--seed", "2", "--epsilons", "0.1,-1,0.05", "--tau-bars", "1,3,2",
        ]
        assert run_cli(*args, "--out", str(out)) == 0
        cfg = ExperimentConfig(nodes=8, edge_prob=0.3, dim=2, kmax=5, seed=2)
        solver, g, instance = cli.build_problem(cfg)
        shared = (solver, False, g, instance, oracle.centralized_solution(instance))
        want = [(eps, tau, *cli._sweep_cell(shared, eps, tau)) for eps in eps_list for tau in tau_list]
        cli._write_csv(tmp_path / "want.csv", cli.SWEEP_COLUMNS, want)
        assert (out / "sweep.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2].startswith("error") for row in rows] == [False] * 3 + [True] * 3 + [False] * 3
        # where the platform cannot fork, the sweep runs the cells in this process
        methods = [method for method in multiprocessing.get_all_start_methods() if method != "fork"]
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        monkeypatch.setattr(os, "fork", _no_fork, raising=False)
        assert run_cli(*args, "--out", str(tmp_path / "here")) == 0
        assert (tmp_path / "here" / "sweep.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="cells run in-process without fork")
    def test_cells_run_in_worker_processes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_sweep_cell", _cell_pid)
        out = tmp_path / "sweep"
        assert run_cli(
            "sweep", "--nodes", "8", "--epsilons", "0.1,0.01", "--tau-bars", "1,2", "--out", str(out),
        ) == 0
        pids = {row.split(",")[2] for row in (out / "sweep.csv").read_text().splitlines()[1:]}
        assert pids and str(os.getpid()) not in pids


    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--mode", "bogus"], "mode must be one of ('asyadmm', 'sync_baseline'), got 'bogus'"),
            (["--topology", "ring"], "topology must be 'random' or 'file:<path>', got 'ring'"),
            (["--rho", "nan"], "rho must be > 0, got nan"),
        ],
        ids=["mode", "topology", "rho"],
    )
    def test_shared_setting_error_fails_the_sweep_before_any_fork(self, tmp_path, capsys, monkeypatch, flags, message):
        monkeypatch.setattr(os, "fork", _no_fork, raising=False)
        code = run_cli(
            "sweep", "--nodes", "8", "--kmax", "3", *flags, "--epsilons", "0.1,0.01", "--tau-bars", "1,2",
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("epsilons,tau_bars", [("0.1", "1"), ("0.1,0.01", "1,2,3")], ids=["1_cell", "6_cells"])
    def test_problem_and_optimum_are_built_once_in_the_parent(self, tmp_path, monkeypatch, epsilons, tau_bars):
        targets = [
            (cli, "random_strongly_connected"),
            (cli, "generate_ls"),
            (oracle, "centralized_solution"),
            (ExperimentConfig, "solver_config"),
            (digraph, "_hops_to_reach_all"),  # the diameter travels to the cells on the digraph
        ]
        calls = _count_calls(tmp_path, monkeypatch, targets)
        assert run_cli(
            "sweep", "--nodes", "8", "--edge-prob", "0.3", "--dim", "2", "--kmax", "3", "--seed", "2",
            "--epsilons", epsilons, "--tau-bars", tau_bars, "--out", str(tmp_path / "o"),
        ) == 0
        for _, name in targets:
            assert (calls / name).read_text() == f"{os.getpid()}\n", name

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="cells run in-process without fork")
    def test_cells_are_submitted_by_tau_bar_descending_then_epsilon_ascending(self, tmp_path, monkeypatch):
        submitted = []

        class RecordingPool:
            """Stands in for the process pool: runs each cell as it is submitted, in this process."""

            def __init__(self, workers, mp_context):
                pass

            def submit(self, cell, shared, eps, tau):
                submitted.append((eps, tau))
                future = concurrent.futures.Future()
                future.set_result(cell(shared, eps, tau))
                return future

            def shutdown(self, cancel_futures):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_sweep_cell", lambda shared, eps, tau: ("ok", None, None, None))
        out = tmp_path / "o"
        assert run_cli(
            "sweep", "--nodes", "8", "--kmax", "3", "--epsilons", "0.1,0.01,0.05", "--tau-bars", "1,3,2",
            "--out", str(out),
        ) == 0
        assert submitted == [(eps, tau) for tau in (3, 2, 1) for eps in (0.01, 0.05, 0.1)]
        rows = [row.split(",")[:2] for row in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert rows == [[eps, tau] for eps in ("0.1", "0.01", "0.05") for tau in ("1", "3", "2")]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="cells run in-process without fork")
    def test_workers_fork_while_one_thread_runs(self, tmp_path, monkeypatch):
        # no Python thread besides the main one runs when a worker forks.  This
        # is not the condition of Python 3.12's fork DeprecationWarning, which
        # counts OS threads (numpy's BLAS pool among them)
        real_fork, threads = os.fork, []

        def fork():
            threads.append(threading.active_count())
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        assert run_cli(
            "sweep", "--nodes", "8", "--kmax", "3", "--epsilons", "0.1,0.01", "--tau-bars", "1,2",
            "--out", str(tmp_path / "o"),
        ) == 0
        assert threads and set(threads) == {1}


def _count_calls(tmp_path, monkeypatch, targets):
    """Wrap each ``(module, name)``; every call appends its process id to ``calls/<name>``.

    The ids go to files, so calls made in a forked worker count too.
    """
    calls = tmp_path / "calls"
    calls.mkdir()

    def counted(original, name):
        def wrapper(*args, **kwargs):
            with open(calls / name, "a") as f:
                f.write(f"{os.getpid()}\n")
            return original(*args, **kwargs)

        return wrapper

    for module, name in targets:
        monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    return calls


def _no_fork():
    pytest.fail("the sweep forked a worker")


def _cell_pid(shared, eps, tau):
    """Stands in for a sweep cell: reports the process that ran it."""
    return (str(os.getpid()), "", "", "")


def test_csv_writer_cell_rules(tmp_path):
    path = tmp_path / "t.csv"
    row = (0.1, np.float64(1 / 3), 7, np.int64(-2), None, "error: eps must be > 0; got nan")
    cli._write_csv(path, ("a", "b", "c", "d", "e", "f"), [row, (1e-320, 2.0, 0, 0, None, "ok")])
    assert path.read_text() == (
        "a,b,c,d,e,f\n"
        "0.1,0.3333333333333333,7,-2,,error: eps must be > 0; got nan\n"
        "1e-320,2.0,0,0,,ok\n"
    )


def test_importing_the_cli_loads_no_process_pool():
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, asyncadmm.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout.strip() == "[]"
