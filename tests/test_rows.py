"""Bitset neighbour rows against neighbour lists: the same search, bit for bit.

Whether the interstate keeps bitset rows is a density rule on (n, m), so no
configuration reaches the other side. These tests force each side on the
same sparse and dense graphs and require identical commits, members, traces
and random state.
"""

from __future__ import annotations

import random

import pytest

from mwis import driver
from mwis.driver import RunConfig, run, trace_csv
from mwis.graph import build_graph, is_dense
from mwis.local_search import LocalSearchParams, local_search
from mwis.lp_bias import make_relaxed
from mwis.solution import Solution

from conftest import FakeClock, random_graph, rows_forced

# (n range, edge probabilities): sparse, then dense
DENSITIES = [((30, 120), (0.02, 0.05)), ((30, 90), (0.3, 0.5, 0.8))]


def instances(seed, count):
    """(graph, relaxed or None) pairs; a third have fractional weights."""
    rng = random.Random(seed)
    for i in range(count):
        (lo, hi), ps = DENSITIES[i % 2]
        n, p = rng.randint(lo, hi), rng.choice(ps)
        if i % 3 == 2:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = build_graph(n, edges, [rng.randint(0, 20) / 10 for _ in range(n)])
        else:
            g = random_graph(rng, n, p, max_w=rng.choice([1, 100]))
        relaxed = make_relaxed([rng.random() for _ in range(n)]) if i % 4 == 1 else None
        yield g, relaxed


def recorded(log):
    """An on_commit hook appending every committed move to log."""
    return lambda _, out: log.append((out.kind, out.nodes_added, out.nodes_removed, out.gain))


def search_both_ways(fn):
    """fn() with lists forced, then with rows forced."""
    out = []
    for rows in (False, True):
        with rows_forced(rows):
            out.append(fn())
    return out


def test_local_search_same_with_rows_and_lists():
    for i, (g, relaxed) in enumerate(instances(41, 24)):
        def search():
            rng = random.Random(i)
            log = []
            best = local_search(Solution(g), LocalSearchParams(num_iterations=8), rng,
                                relaxed, on_commit=recorded(log))
            return log, best.member_list(), best.total_weight, rng.getstate()

        lists, rows = search_both_ways(search)
        assert lists[0], f"instance {i}: no move committed"
        assert lists == rows, f"instance {i}"


def test_run_same_with_rows_and_lists(monkeypatch):
    # every local-search call of the run logs its commits and the random
    # state it leaves behind
    calls = []
    inner = driver.local_search

    def logged(start, params, rng, bias, **kw):
        assert kw["on_commit"] is None
        log = []
        out = inner(start, params, rng, bias, **dict(kw, on_commit=recorded(log)))
        calls.append((log, out.member_list(), rng.getstate()))
        return out

    monkeypatch.setattr(driver, "local_search", logged)
    for i, (g, relaxed) in enumerate(instances(42, 8)):
        cfg = RunConfig(time_limit=0.002, seed=i)

        def solve():
            calls.clear()
            best, trace = run(g, cfg, clock=FakeClock(), relaxed=relaxed)
            return trace_csv(trace), best.member_list(), list(calls)

        lists, rows = search_both_ways(solve)
        assert len(lists[2]) > 2, f"instance {i}: {len(lists[2])} local searches"
        assert lists == rows, f"instance {i}"


@pytest.mark.parametrize("n, m, rows", [
    (1_000, 49_950, True),    # dense-1k-lp: n=1e3, p=0.1
    (10_000, 25_000, False),  # gnp-10k: n=1e4, m~25k
    (100_000, 500_000, False),
    (0, 0, False),
])
def test_density_rule_sides(n, m, rows):
    assert is_dense(n, m) is rows
