from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from mwis import driver, generate, oracle
from mwis.cli import _add_solve_parser, main
from mwis.driver import RunConfig, TraceEvent
from mwis.generate import GenSpec, generate_graph
from mwis.graph import load_graph, save_graph
from mwis.greedy import GreedyConfig
from mwis.local_search import LocalSearchParams
from mwis.lp_bias import DEFAULT_EPSILON
from mwis.oracle import exact_mwis
from mwis.relink import RelinkParams
from mwis.solution import Solution

from reference_oracle import enumerate_mwis


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
# solve options that name files rather than tune the solver
FILE_OPTIONS = {"-h", "--graph", "--format", "--initial", "--relaxed", "--trace",
                "--solution-out"}


def solve_options() -> set[str]:
    sub = argparse.ArgumentParser().add_subparsers()
    _add_solve_parser(sub)
    return {a.option_strings[0] for a in sub.choices["solve"]._actions}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "mwis.cli", *args],
                          capture_output=True, text=True)


def config_fields(cfg, prefix=""):
    """(dotted name, value) of every field of a config, nested ones included."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            yield from config_fields(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def gen_file(tmp_path, name, spec):
    g = generate_graph(spec)
    path = str(tmp_path / name)
    save_graph(g, path, "edge-list")
    return path, g


class TestGenerate:
    def test_path_model_edge_count(self, tmp_path):
        out = str(tmp_path / "p.g")
        r = run_cli("generate", "--model", "path", "--n", "3", "--out", out,
                    "--seed", "1")
        assert r.returncode == 0
        g = load_graph(out)
        assert (g.n, g.m) == (3, 2)

    def test_id_mod_weight_rule(self, tmp_path):
        out = str(tmp_path / "m.g")
        r = run_cli("generate", "--model", "path", "--n", "500",
                    "--weights", "id-mod:200", "--out", out)
        assert r.returncode == 0
        g = load_graph(out)
        assert g.node_weight(405) == 5.0
        assert g.node_weight(199) == 199.0

    def test_same_spec_same_file(self, tmp_path):
        a, b = str(tmp_path / "a.g"), str(tmp_path / "b.g")
        for out in (a, b):
            r = run_cli("generate", "--model", "gnp", "--n", "40", "--p", "0.2",
                        "--seed", "7", "--out", out)
            assert r.returncode == 0
        assert open(a).read() == open(b).read()

    def test_invalid_spec_exits_one(self, tmp_path):
        r = run_cli("generate", "--model", "cycle", "--n", "2",
                    "--out", str(tmp_path / "c.g"))
        assert r.returncode == 1
        assert "error" in r.stderr

    def test_grid_model(self, tmp_path):
        out = str(tmp_path / "g.g")
        assert run_cli("generate", "--model", "grid", "--rows", "3", "--cols", "4",
                       "--out", out).returncode == 0
        g = load_graph(out)
        assert g.n == 12 and g.m == 3 * 3 + 2 * 4  # vertical + horizontal

    @pytest.mark.parametrize("args, message", [
        (("gnp", "--n", "5", "--p", "7"), "p must be in [0, 1]"),
        (("gnp", "--n", "5", "--p", "-0.5"), "p must be in [0, 1]"),
        (("gnp", "--n", "5", "--p", "nan"), "p must be in [0, 1]"),
        (("grid", "--n", "5", "--rows", "2", "--cols", "2"), "model 'grid' does not read n"),
        (("path", "--n", "5", "--p", "0.5"), "model 'path' does not read p"),
        (("gnp", "--n", "5", "--rows", "2"), "model 'gnp' does not read rows")],
        ids=["p=7", "p=-0.5", "p=nan", "grid-n", "path-p", "gnp-rows"])
    def test_impossible_spec_exits_one(self, tmp_path, capsys, args, message):
        # a spec no model can honour writes no file: it is not silently
        # clamped to an edgeless or complete graph, or resized by another field
        out = tmp_path / "x.g"
        assert main(["generate", "--model", *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_model_and_out_alone_build_default_spec(self, tmp_path, monkeypatch):
        seen = []
        real = generate.generate_graph
        monkeypatch.setattr(generate, "generate_graph",
                            lambda spec: seen.append(spec) or real(spec))
        assert main(["generate", "--model", "path", "--out", str(tmp_path / "d.g")]) == 0
        assert seen == [GenSpec(model="path")]


class TestExact:
    def test_triangle(self, tmp_path):
        path, _ = gen_file(tmp_path, "t.g", GenSpec(model="cycle", n=3, seed=0))
        r = run_cli("exact", "--graph", path)
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["weight"] == max(load_graph(path).weights.tolist())

    def test_size_guard_exits_one(self, tmp_path):
        path, _ = gen_file(tmp_path, "big.g", GenSpec(model="path", n=31, seed=0))
        r = run_cli("exact", "--graph", path)
        assert r.returncode == 1

    def test_help_names_the_size_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "BB_NODE_LIMIT", 31)
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # however argparse wraps it
        assert "n <= 31" in out
        assert "--method" not in out

    def test_methods_agree(self, tmp_path):
        path, g = gen_file(tmp_path, "e.g",
                           GenSpec(model="gnp", n=14, p=0.3, seed=3))
        out = json.loads(run_cli("exact", "--graph", path).stdout)
        ref = enumerate_mwis(g)
        assert out["weight"] == ref.weight
        assert sum(g.node_weight(v) for v in out["witness"]) == ref.weight


class TestSolve:
    def test_solve_matches_exact(self, tmp_path):
        path, g = gen_file(tmp_path, "s.g",
                           GenSpec(model="gnp", n=12, p=0.3, seed=5))
        trace = str(tmp_path / "trace.csv")
        r = run_cli("solve", "--graph", path, "--time-limit", "0.5",
                    "--seed", "1", "--trace", trace)
        assert r.returncode == 0
        summary = json.loads(r.stdout)
        assert summary["schema"] == 1
        assert summary["best_weight"] == exact_mwis(g).weight
        rows = open(trace).read().strip().splitlines()
        assert rows[0] == "elapsed_s,best_weight,event"
        elapsed = [float(line.split(",")[0]) for line in rows[1:]]
        weights = [float(line.split(",")[1]) for line in rows[1:]]
        assert all(a < b for a, b in zip(elapsed, elapsed[1:]))
        assert weights == sorted(weights)
        assert weights[-1] == summary["best_weight"]

    def test_missing_graph_exits_one(self):
        r = run_cli("solve", "--graph", "/nonexistent.g", "--time-limit", "0.1")
        assert r.returncode == 1
        assert "error" in r.stderr

    def test_unreadable_input_or_unwritable_output_exits_one(self, tmp_path, capsys):
        # a directory where a file is expected raises IsADirectoryError, an
        # OSError other than FileNotFoundError
        path, _ = gen_file(tmp_path, "s.g", GenSpec(model="path", n=4, seed=0))
        for args in (["--graph", str(tmp_path)], ["--graph", path, "--solution-out", str(tmp_path)],
                     ["--graph", path, "--trace", str(tmp_path)]):
            assert main(["solve", *args, "--time-limit", "0.05"]) == 1, args
            assert capsys.readouterr().err.startswith("error: ")

    def test_infeasible_initial_exits_two(self, tmp_path):
        path, g = gen_file(tmp_path, "s.g", GenSpec(model="path", n=4, seed=0))
        bad = tmp_path / "bad.txt"
        bad.write_text("0\n1\n")
        r = run_cli("solve", "--graph", path, "--time-limit", "0.1",
                    "--initial", str(bad))
        assert r.returncode == 2

    def test_initial_and_solution_out(self, tmp_path):
        path, g = gen_file(tmp_path, "s.g",
                           GenSpec(model="gnp", n=10, p=0.3, seed=6))
        init = tmp_path / "init.txt"
        init.write_text("")  # empty independent set is a valid warm start
        sol_out = str(tmp_path / "best.txt")
        r = run_cli("solve", "--graph", path, "--time-limit", "0.3",
                    "--seed", "0", "--initial", str(init),
                    "--solution-out", sol_out)
        assert r.returncode == 0
        ids = [int(x) for x in open(sol_out).read().split()]
        flags = set(ids)
        for v in ids:  # written solution is independent
            assert not flags & set(g.neighbors(v).tolist())

    def test_default_arguments_build_default_config(self, tmp_path, monkeypatch, capsys):
        path, g = gen_file(tmp_path, "s.g",
                           GenSpec(model="gnp", n=10, p=0.3, seed=8))
        rs = tmp_path / "rs.txt"
        rs.write_text("0.5\n" * g.n)
        seen = []

        def fake_run(graph, cfg, clock=None, initial=None, relaxed=None):
            seen.append((cfg, relaxed))
            return Solution(graph), [TraceEvent(0.0, 0.0, "final")]

        monkeypatch.setattr(driver, "run", fake_run)
        assert main(["solve", "--graph", path, "--relaxed", str(rs)]) == 0
        [(cfg, relaxed)] = seen
        assert cfg == RunConfig()
        assert relaxed.epsilon == DEFAULT_EPSILON

    def test_tuning_flags_reach_their_config_fields(self, tmp_path, monkeypatch):
        path, g = gen_file(tmp_path, "s.g",
                           GenSpec(model="gnp", n=10, p=0.3, seed=8))
        rs = tmp_path / "rs.txt"
        rs.write_text("0.5\n" * g.n)
        seen = []

        def fake_run(graph, cfg, clock=None, initial=None, relaxed=None):
            seen.append((cfg, relaxed))
            return Solution(graph), [TraceEvent(0.0, 0.0, "final")]

        monkeypatch.setattr(driver, "run", fake_run)
        flags = {"--time-limit": "3.5", "--seed": "9",
                 "--greedy-noise": "0.25", "--num-iterations": "5",
                 "--exact-recursion-limit": "4", "--aap-max-len": "9",
                 "--aap-gain-floor": "-2.5", "--aap-delta": "7",
                 "--relink-f0": "0.9", "--relink-cn0": "4", "--relink-cp0": "2",
                 "--relink-f-decay": "0.5", "--relink-budget-growth": "2",
                 "--check-interstate-every": "6", "--max-iterations": "3",
                 "--lp-epsilon": "0.01"}
        argv = ["solve", "--graph", path, "--relaxed", str(rs)]
        for flag, value in flags.items():
            argv += [flag, value]
        assert main(argv) == 0
        [(cfg, relaxed)] = seen
        assert cfg == RunConfig(
            time_limit=3.5, seed=9, greedy=GreedyConfig(noise=0.25),
            ls_params=LocalSearchParams(
                num_iterations=5, exact_recursion_limit=4, aap_max_len=9,
                aap_gain_floor=-2.5, aap_delta=7.0),
            relink_params=RelinkParams(f0=0.9, c_n0=4.0, c_p0=2.0, f_decay=0.5,
                                       budget_growth=2.0),
            check_interstate_every=6, max_iterations=3)
        assert relaxed.epsilon == 0.01 != DEFAULT_EPSILON
        # every config field moved off its default, and every tuning flag was set
        defaults = dict(config_fields(RunConfig()))
        assert all(value != defaults[name] for name, value in config_fields(cfg))
        assert solve_options() - FILE_OPTIONS == set(flags)

    @pytest.mark.parametrize("flag, value", [
        ("--time-limit", "nan"), ("--time-limit", "inf"), ("--relink-cn0", "nan"),
        ("--relink-cp0", "nan"), ("--relink-budget-growth", "nan"),
        ("--relink-budget-growth", "inf"), ("--aap-delta", "nan"),
        ("--aap-gain-floor", "nan"), ("--lp-epsilon", "nan")])
    def test_non_finite_setting_exits_one(self, tmp_path, monkeypatch, capsys, flag, value):
        path, g = gen_file(tmp_path, "s.g", GenSpec(model="path", n=4, seed=0))
        rs = tmp_path / "rs.txt"
        rs.write_text("0.5\n" * g.n)
        seen = []

        def fake_run(graph, cfg, clock=None, initial=None, relaxed=None):
            seen.append(cfg)
            return Solution(graph), [TraceEvent(0.0, 0.0, "final")]

        monkeypatch.setattr(driver, "run", fake_run)
        assert main(["solve", "--graph", path, "--relaxed", str(rs), flag, value]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not seen

    def test_lp_epsilon_is_checked_without_relaxed_file(self, tmp_path, monkeypatch, capsys):
        path, _ = gen_file(tmp_path, "s.g", GenSpec(model="path", n=4, seed=0))
        seen = []

        def fake_run(graph, cfg, clock=None, initial=None, relaxed=None):
            seen.append(cfg)
            return Solution(graph), [TraceEvent(0.0, 0.0, "final")]

        monkeypatch.setattr(driver, "run", fake_run)
        for value in ("nan", "0", "-1", "inf"):
            assert main(["solve", "--graph", path, "--lp-epsilon", value,
                         "--time-limit", "0.2"]) == 1
            assert capsys.readouterr().err == "error: epsilon must be finite and > 0\n"
        assert not seen

    def test_nan_time_limit_exits_one(self, tmp_path):
        path, _ = gen_file(tmp_path, "s.g", GenSpec(model="path", n=4, seed=0))
        r = run_cli("solve", "--graph", path, "--time-limit", "nan")
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "error: time_limit must be finite and > 0\n"

    def test_readme_names_exactly_the_tuning_flags(self):
        text = open(README, encoding="utf-8").read()
        start = text.index("Useful `solve` flags")
        paragraph = text[start:text.index("\n\n", start)]
        named = set(re.findall(r"--[a-z][a-z0-9-]*", paragraph))
        options = solve_options()
        assert named <= options, named - options
        assert named - FILE_OPTIONS == options - FILE_OPTIONS

    def test_relink_budget_mode_flag_is_gone(self, tmp_path, capsys):
        # each removed selector is refused, not silently ignored
        path, _ = gen_file(tmp_path, "s.g", GenSpec(model="path", n=4, seed=0))
        for flag, value in (("--relink-budget-mode", "absolute"), ("--elite-size", "3"),
                            ("--greedy-mode", "randomized")):
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--graph", path, flag, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_in_process_entry_point(self, tmp_path, capsys):
        path, g = gen_file(tmp_path, "s.g",
                           GenSpec(model="gnp", n=10, p=0.3, seed=9))
        rc = main(["solve", "--graph", path, "--time-limit", "0.2", "--seed", "0"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["best_weight"] == exact_mwis(g).weight

    def test_relaxed_file(self, tmp_path, capsys):
        path, g = gen_file(tmp_path, "s.g",
                           GenSpec(model="gnp", n=10, p=0.3, seed=10))
        rs = tmp_path / "rs.txt"
        rs.write_text("0.5\n" * g.n)
        rc = main(["solve", "--graph", path, "--time-limit", "0.2", "--seed", "0",
                   "--relaxed", str(rs), "--lp-epsilon", "0.01"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["best_weight"] == exact_mwis(g).weight
        rs.write_text("0.5\n" * (g.n - 1))  # one value short
        rc = main(["solve", "--graph", path, "--time-limit", "0.2", "--relaxed", str(rs)])
        assert rc == 1
        assert "expected" in capsys.readouterr().err


class TestReport:
    def test_t_star_from_traces(self, tmp_path):
        t1 = tmp_path / "r1.csv"
        t1.write_text("elapsed_s,best_weight,event\n"
                      "0.1,5.0,init\n0.2,8.0,improve\n0.9,9.0,final\n")
        t2 = tmp_path / "r2.csv"
        t2.write_text("elapsed_s,best_weight,event\n"
                      "0.1,6.0,init\n0.5,12.0,improve\n1.0,12.0,final\n")
        r = run_cli("report", "--threshold", "9.0", str(t1), str(t2))
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["best_run"].endswith("r2.csv")
        assert out["t_star"] == 0.5
        assert out["best_final"] == 12.0

    def test_threshold_never_reached(self, tmp_path):
        t1 = tmp_path / "r1.csv"
        t1.write_text("elapsed_s,best_weight,event\n0.1,5.0,final\n")
        out = json.loads(run_cli("report", "--threshold", "99", str(t1)).stdout)
        assert out["t_star"] is None

    def test_csv_without_trace_columns_exits_one(self, tmp_path, capsys):
        t1 = tmp_path / "r1.csv"
        t1.write_text("a,b\n1,2\n")
        assert main(["report", "--threshold", "1", str(t1)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {t1}: not a trace CSV (expected elapsed_s,best_weight,event)\n"

    @pytest.mark.parametrize("bad_row", ["0.2,x,final", "0.2", "0.2,nan,final",
                                         "inf,5.0,final"])
    def test_bad_number_names_file_and_line(self, tmp_path, capsys, bad_row):
        t1 = tmp_path / "r1.csv"
        t1.write_text(f"elapsed_s,best_weight,event\n0.1,5.0,init\n{bad_row}\n")
        assert main(["report", "--threshold", "1", str(t1)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {t1}:3: ")

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exits_one(self, tmp_path, capsys, threshold):
        # json.dumps would print NaN or Infinity, which is not JSON
        t1 = tmp_path / "r1.csv"
        t1.write_text("elapsed_s,best_weight,event\n0.1,5.0,final\n")
        assert main(["report", "--threshold", threshold, str(t1)]) == 1
        assert capsys.readouterr() == ("", "error: threshold must be finite\n")
