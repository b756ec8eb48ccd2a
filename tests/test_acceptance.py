"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with: pytest tests/test_acceptance.py -v -s
The heavyweight criteria (1, 2, 3) dominate the runtime; the whole module is
sized to finish in a few minutes.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import resource
import time

import pytest
from scipy import stats

from mwis.driver import RunConfig, run, summarize, trace_csv
from mwis.generate import GenSpec, generate_graph, random_gnp
from mwis.graph import build_graph
from mwis.greedy import adaptive_greedy
from mwis.interstate import add_member, build, remove_member, state_mismatches
from mwis.local_search import LocalSearchParams, local_search
from mwis.lp_bias import make_relaxed, sample_biased
from mwis.oracle import exact_mwis
from mwis.relink import RelinkParams
from mwis.solution import Solution, is_independent

from conftest import maximal


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                detail = fn(*a, **kw)
            except BaseException as e:
                print(f"\nACCEPTANCE {num} ({name}): FAIL [{e!r}]")
                raise
            print(f"\nACCEPTANCE {num} ({name}): PASS"
                  + (f" [{detail}]" if detail else ""))
        return wrapper
    return deco


class FakeClock:
    def __init__(self, tick=1e-6):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        self.t += self.tick
        return self.t


def assert_maximal(g, s):
    assert is_independent(g, s)
    flags = [v in s for v in range(g.n)]
    for v in range(g.n):
        if not flags[v]:
            assert any(flags[u] for u in g.neighbors(v).tolist())


def deltas_outside(g, s):
    for u in range(g.n):
        if u not in s:
            blocked = sum(g.node_weight(x)
                          for x in g.neighbors(u).tolist() if x in s)
            yield u, g.node_weight(u) - blocked


@criterion(1, "oracle optimality on 200 small instances")
def test_criterion_1_oracle_optimality():
    t_start = time.monotonic()
    rng = random.Random(101)
    matches = 0
    total = 200
    for i in range(total):
        n = rng.randint(8, 16)
        p = rng.choice([0.2, 0.5])
        g = random_gnp(n, p, seed=1000 + i, w_lo=1, w_hi=200)
        best, _ = run(g, RunConfig(time_limit=0.5, seed=i))
        assert_maximal(g, best)  # 100% independent and maximal
        if best.total_weight == exact_mwis(g).weight:
            matches += 1
    elapsed = time.monotonic() - t_start
    assert matches >= 0.99 * total, f"only {matches}/{total} optimal"
    assert elapsed < 180, f"took {elapsed:.0f}s"
    return f"{matches}/{total} optimal in {elapsed:.0f}s"


@criterion(2, "interstate soundness under churn")
def test_criterion_2_interstate_churn():
    rng = random.Random(202)
    checks = 0
    for gi in range(100):
        n = rng.randint(100, 300)
        p = rng.uniform(0.05, 0.3)
        g = random_gnp(n, p, seed=2000 + gi)
        s = Solution(g)
        st = build(g, s)
        for step in range(1, 10_001):
            if len(s) and rng.random() < 0.45:
                members = s.member_list()
                remove_member(st, members[rng.randrange(len(members))])
            elif len(st.free):
                free = list(st.free)
                add_member(st, free[rng.randrange(len(free))])
            elif len(s):
                members = s.member_list()
                remove_member(st, members[rng.randrange(len(members))])
            if step % 100 == 0:
                bad = state_mismatches(st, check_pruning=True)
                assert not bad, f"graph {gi} step {step}: {bad[:4]}"
                checks += 1
    return f"{checks} checkpoints verified"


@criterion(3, "delta/S+ contract under a 60s fuzz")
def test_criterion_3_splus_contract():
    deadline = time.monotonic() + 60.0
    rng = random.Random(303)
    commits = 0
    instances = 0

    def check(engine, out):
        nonlocal commits
        commits += 1
        st, s = engine.state, engine.s
        for u in range(engine.g.n):
            if u not in s and st.delta[u] > 0:
                assert u in st.s_plus, f"node {u} with delta {st.delta[u]} not in S+"
        if out.kind == "star_one":
            assert out.gain > 0  # verified pop must strictly improve

    while time.monotonic() < deadline:
        n = rng.randint(20, 60)
        g = random_gnp(n, rng.uniform(0.1, 0.35), seed=rng.randrange(10**6))
        s = maximal(g, Solution(g), rng)
        local_search(s, LocalSearchParams(num_iterations=16), rng,
                     on_commit=check)
        instances += 1
    return f"{commits} commits checked on {instances} instances"


@criterion(4, "local optimality of every local_search output")
def test_criterion_4_local_optimality():
    rng = random.Random(404)
    outputs = 0
    for _ in range(30):
        n = rng.randint(12, 40)
        g = random_gnp(n, rng.uniform(0.1, 0.4), seed=rng.randrange(10**6))
        out = local_search(maximal(g, Solution(g), rng),
                           LocalSearchParams(num_iterations=16), rng)
        outputs += 1
        assert_maximal(g, out)
        for u, d in deltas_outside(g, out):
            assert d <= 1e-9, f"delta({u}) = {d} > 0 in output"
        # independent re-enumeration of exact (1,*) moves over small pools
        for v in out.members():
            pool = [u for u in g.neighbors(v).tolist()
                    if u not in out
                    and [x for x in g.neighbors(u).tolist() if x in out] == [v]]
            if not pool or len(pool) > 7:
                continue
            best = 0.0
            for r in range(1, len(pool) + 1):
                for comb in itertools.combinations(pool, r):
                    if any(g.is_edge(a, b)
                           for a, b in itertools.combinations(comb, 2)):
                        continue
                    best = max(best, sum(g.node_weight(u) for u in comb))
            assert best <= g.node_weight(v) + 1e-9, \
                f"improving (1,*) move missed at member {v}"
    return f"{outputs} outputs verified"


@criterion(5, "relinking parameter schedule to full float precision")
def test_criterion_5_relink_schedule():
    p = RelinkParams()
    limits = p.start
    f_exp, cn_exp, cp_exp = 0.9998, 1.0, 0.1
    for k in range(1, 40):
        limits = p.tightened(limits)
        f, c_n, c_p = limits
        f_exp *= 0.9998
        cn_exp *= 1.5
        cp_exp *= 1.5
        assert (f, c_n, c_p) == (f_exp, cn_exp, cp_exp), f"k={k}"
        assert f == pytest.approx(0.9998 ** (k + 1), rel=1e-12)
        assert c_n == pytest.approx(1.5 ** k, rel=1e-12)
        assert c_p == pytest.approx(0.1 * 1.5 ** k, rel=1e-12)
    # a weight change restarts the schedule at the settings
    assert p.start == (0.9998, 1.0, 0.1)
    return "39 stagnations + reset exact"


@criterion(6, "LP-biased sampling distribution")
def test_criterion_6_lp_bias():
    rs = make_relaxed([0.5, 0.0, 0.5], epsilon=0.005)
    rng = random.Random(606)
    n_draws = 100_000
    counts = [0, 0, 0]
    for _ in range(n_draws):
        counts[sample_biased(rs, rng)] += 1
    expect = [(x + 0.005) / rs.total * n_draws for x in (0.5, 0.0, 0.5)]
    _, p_value = stats.chisquare(counts, expect)
    assert p_value > 0.001, f"chi-square p = {p_value}"
    assert counts[1] >= 1, "zero-valued node never drawn"
    return f"p = {p_value:.3f}, zero-x node drawn {counts[1]} times"


@criterion(7, "byte-identical traces for identical config and seed")
def test_criterion_7_determinism():
    rng = random.Random(707)
    for i in range(20):
        n = rng.randint(10, 30)
        g = random_gnp(n, rng.uniform(0.1, 0.4), seed=7000 + i)
        csvs = []
        for _ in range(2):
            best, trace = run(g, RunConfig(time_limit=0.003, seed=i),
                              clock=FakeClock())
            csvs.append(trace_csv(trace))
        assert csvs[0] == csvs[1], f"instance {i} traces differ"
    return "20 instances, 2 runs each"


@criterion(8, "monotone traces and summary consistency")
def test_criterion_8_monotone_traces():
    rng = random.Random(808)
    for i in range(10):
        g = random_gnp(rng.randint(10, 30), 0.25, seed=8000 + i)
        cfg = RunConfig(time_limit=0.003, seed=i)
        best, trace = run(g, cfg, clock=FakeClock())
        weights = [ev.best_weight for ev in trace]
        assert weights == sorted(weights), "best_weight decreased"
        elapsed = [ev.elapsed for ev in trace]
        assert elapsed == sorted(elapsed)
        summ = summarize(g, cfg, best, trace)
        assert summ["best_weight"] == trace[-1].best_weight
    return "10 traces"


@criterion(9, "performance smoke at n=1e5, m~5e5")
def test_criterion_9_performance():
    g = generate_graph(GenSpec(model="gnp", n=100_000, p=1.0001e-4, seed=42))
    assert 4.5e5 < g.m < 5.5e5
    t0 = time.monotonic()
    s = adaptive_greedy(g)
    greedy_s = time.monotonic() - t0
    assert greedy_s < 5.0, f"adaptive_greedy took {greedy_s:.1f}s"
    assert is_independent(g, s)
    best, trace = run(g, RunConfig(time_limit=10.0, seed=1))
    relinks = sum(1 for ev in trace if ev.event == "relink")
    assert relinks >= 1, "no relinking iteration completed"
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 2 * 1024 * 1024, f"peak memory {peak_kb} kB"
    return (f"greedy {greedy_s:.1f}s, {relinks} relink iterations, "
            f"peak {peak_kb / 1024:.0f} MB")


@criterion(10, "weighted optimum beats larger-cardinality set")
def test_criterion_10_weighted_vs_cardinality():
    # a,b,c (4,4,5) pairwise non-adjacent block d,e (7,9); optimum is {d,e}
    g = build_graph(5, [(0, 3), (1, 3), (1, 4), (2, 4)],
                    [4.0, 4.0, 5.0, 7.0, 9.0])
    res = exact_mwis(g)
    assert res.weight == 16.0 and res.witness == {3, 4}
    for seed in range(5):
        best, _ = run(g, RunConfig(time_limit=0.2, seed=seed))
        assert best.total_weight == 16.0
        assert best.as_frozenset() == {3, 4}
        assert len(best.as_frozenset()) < 3  # smaller than max-cardinality set
    return "optimum {d,e} found by all 5 seeds"


@criterion(11, "solver quality at n=25..30 (bonus: beyond enumeration sizes)")
def test_bonus_quality_at_n30():
    # bonus guard beyond the main criteria: quality where only
    # the exact subset search (not enumeration) certifies the optimum
    rng = random.Random(1111)
    hits = 0
    for i in range(15):
        n = rng.randint(25, 30)
        g = random_gnp(n, rng.choice([0.2, 0.35]), seed=11_000 + i, w_lo=1, w_hi=200)
        best, _ = run(g, RunConfig(time_limit=0.5, seed=i))
        assert_maximal(g, best)
        if best.total_weight == exact_mwis(g).weight:
            hits += 1
    assert hits >= 14
    return f"{hits}/15 optimal"
