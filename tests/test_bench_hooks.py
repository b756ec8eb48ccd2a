"""The benchmark wraps solver names from outside (`perfbench/spans.py`) and
drives the solver through `perfbench/solve.py`.

A renamed or deleted hook target would only show as a HookError in a
benchmark run, and a broken call path as a failed benchmark operation; these
tests catch both in the unit suite, in well under a second.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from mwis.graph import build_graph

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves_to_a_callable():
    spans = load_spans()
    missing = [f"{target}.{attr}" for target, attr, _ in spans.TARGETS
               if not callable(getattr(spans.resolve(target), attr, None))]
    assert not missing, f"benchmark hooks missing from the solver: {missing}"



def test_fixed_iteration_solve_runs_the_benchmark_call_path(monkeypatch):
    # IterationStop counts an iteration at each local_search call after a
    # path_relink call, both through mwis.driver's bindings, and Checker
    # reads members(), total_weight and recomputed_weight() of the result
    monkeypatch.syspath_prepend(str(SPANS.parent))  # solve.py's own imports
    spec = importlib.util.spec_from_file_location("perfbench_solve", SPANS.parent / "solve.py")
    solve = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(solve)
    # a call path IterationStop cannot count never reaches k iterations
    monkeypatch.setattr(solve, "WATCHDOG_S", 10.0)
    n, k = 300, 2
    keys = importlib.import_module("inputs").gnp_edges(n, 0.03, np.random.default_rng(1))
    weights = np.arange(n, dtype=np.float64) % 17 + 1
    g = build_graph(n, np.column_stack((keys // n, keys % n)).tolist(), weights.tolist())
    checker = solve.Checker(keys, weights)
    assert checker.graph_errors(g) == []
    out = solve.fixed_iteration_solve(g, None, checker, seed=1, k=k)
    assert out["errors"] == []
    assert len(out["iter_times"]) == k  # from k + 1 iteration marks
