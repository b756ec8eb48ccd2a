from __future__ import annotations

import argparse
import json
import subprocess
import sys

import pytest

from mwis import driver
from mwis.cli import _add_solve_parser, main
from mwis.driver import RunConfig, TraceEvent
from mwis.generate import GenSpec, generate_graph
from mwis.graph import load_graph, save_graph
from mwis.greedy import GREEDY_MODES, GreedyConfig
from mwis.lp_bias import DEFAULT_EPSILON
from mwis.oracle import exact_mwis
from mwis.relink import BUDGET_MODES, RelinkParams
from mwis.solution import Solution


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "mwis.cli", *args],
                          capture_output=True, text=True)


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

    def test_methods_agree(self, tmp_path):
        path, g = gen_file(tmp_path, "e.g",
                           GenSpec(model="gnp", n=14, p=0.3, seed=3))
        a = json.loads(run_cli("exact", "--graph", path).stdout)
        b = json.loads(run_cli("exact", "--graph", path,
                               "--method", "enumerate").stdout)
        assert a["weight"] == b["weight"] == exact_mwis(g).weight


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

    def test_mode_choices_are_the_config_tuples(self):
        sub = argparse.ArgumentParser().add_subparsers()
        _add_solve_parser(sub)
        choices = {a.dest: a.choices for a in sub.choices["solve"]._actions}
        assert choices["greedy_mode"] == GREEDY_MODES
        assert choices["relink_budget_mode"] == BUDGET_MODES
        for mode in GREEDY_MODES:
            GreedyConfig(mode=mode)
        for mode in BUDGET_MODES:
            RelinkParams(budget_mode=mode)

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
