from __future__ import annotations

import heapq
import importlib
import math
import random
import subprocess
import sys
from types import SimpleNamespace

import pytest

from mwis.graph import build_graph, is_dense
from mwis.greedy import GreedyConfig, adaptive_greedy, greedy, randomized_greedy
from mwis.solution import Solution, is_independent

from conftest import graph_from, random_graph


def reference_eta_order(g):
    w, adj = g.w, g.adj
    nodes = [v for v in range(g.n) if adj[v]]
    nodes.sort(key=lambda v: (-(w[v] / len(adj[v])), v))
    return nodes


def reference_randomized_greedy(g, cfg, rng):
    """The noisy scan as specified: one little-endian 8-byte draw per
    non-isolated node, 53-bit uniforms, Python's stable sort on the keys,
    then a plain scan."""
    w, adj = g.w, g.adj
    nodes = [v for v in range(g.n) if adj[v]]
    data = rng.randbytes(8 * len(nodes))
    key = {}
    for i, v in enumerate(nodes):
        u = (int.from_bytes(data[8 * i:8 * i + 8], "little") >> 11) * 2.0 ** -53
        key[v] = w[v] / len(adj[v]) * (1.0 + cfg.noise * (2.0 * u - 1.0))
    s = Solution(g, [v for v in range(g.n) if not adj[v]])
    for v in sorted(nodes, key=lambda v: -key[v]):
        if not any(u in s for u in adj[v]):
            s.add(v)
    return s


class RecordingSolution(Solution):
    """A Solution that logs the order of its add calls."""

    __slots__ = ("added",)

    def __init__(self, graph, members=()):
        self.added = []
        super().__init__(graph, members)

    def add(self, v):
        self.added.append(v)
        super().add(v)


def reference_adaptive_greedy(g):
    """`adaptive_greedy` pushing a heap entry at every residual-degree drop."""
    s = RecordingSolution(g)
    w, adj = g.w, g.adj
    rdeg = [len(a) for a in adj]
    alive = [True] * g.n
    heap = []
    for v in range(g.n):
        if rdeg[v] == 0:
            s.add(v)
            alive[v] = False
        else:
            heap.append((-w[v] / rdeg[v], v, rdeg[v]))
    heapq.heapify(heap)
    while heap:
        _, v, d = heapq.heappop(heap)
        if not alive[v] or d != rdeg[v]:
            continue
        s.add(v)
        alive[v] = False
        neighbors = [u for u in adj[v] if alive[u]]
        for u in neighbors:
            alive[u] = False
        for u in neighbors:
            for y in adj[u]:
                if not alive[y]:
                    continue
                dy = rdeg[y] - 1
                rdeg[y] = dy
                if dy == 0:
                    s.add(y)
                    alive[y] = False
                else:
                    heapq.heappush(heap, (-w[y] / dy, y, dy))
    return s


def assert_maximal(g, s):
    assert is_independent(g, s)
    flags = [v in s for v in range(g.n)]
    for v in range(g.n):
        if not flags[v]:
            assert any(flags[u] for u in g.neighbors(v).tolist()), f"{v} is free"


class TestDeterministicGreedy:
    def test_path_scan_order(self, path3):
        # eta = (3, 2.5, 3): scan order [0, 2, 1]
        s = greedy(path3)
        assert sorted(s.members()) == [0, 2]
        assert s.total_weight == 6.0

    def test_empty_graph(self):
        g = graph_from(0, [], [])
        s = greedy(g)
        assert s.size == 0 and s.total_weight == 0.0

    def test_isolated_nodes_added_first(self):
        g = graph_from(3, [], [1.0, 2.0, 3.0])
        s = greedy(g)
        assert sorted(s.members()) == [0, 1, 2]
        assert s.total_weight == 6.0


class TestRandomizedGreedy:
    def test_isolated_nodes_join_at_any_noise(self):
        g = graph_from(2, [], [2.0, 7.0])
        s = randomized_greedy(g, GreedyConfig(noise=0.99), random.Random(0))
        assert sorted(s.members()) == [0, 1]
        assert s.total_weight == 9.0

    def test_deterministic_under_fixed_seed(self):
        g = random_graph(random.Random(4), 40, 0.2)
        a = randomized_greedy(g, GreedyConfig(0.25), random.Random(9))
        b = randomized_greedy(g, GreedyConfig(0.25), random.Random(9))
        assert a.as_frozenset() == b.as_frozenset()

    def test_noise_reaches_both_path_outcomes(self, path3):
        # keys 3u' for the ends and 2.5u' for the middle, u' in [0.7, 1.3):
        # both {0,2} (w=6) and {1} (w=5) occur
        outcomes = set()
        cfg = GreedyConfig(noise=0.3)
        for seed in range(10_000):
            s = randomized_greedy(path3, cfg, random.Random(seed))
            outcomes.add(s.as_frozenset())
            if len(outcomes) == 2:
                break
        assert outcomes == {frozenset({0, 2}), frozenset({1})}

    def test_zero_noise_is_static_scan(self):
        rng = random.Random(12)
        for i in range(60):
            g = random_graph(rng, rng.randint(0, 50), rng.choice([0.0, 0.1, 0.3]),
                             max_w=rng.choice([1, 3, 100]))
            s, ref = randomized_greedy(g, GreedyConfig(noise=0.0), random.Random(i)), greedy(g)
            assert s.member_list() == ref.member_list(), f"instance {i}"
            assert s.total_weight == ref.total_weight, f"instance {i}"  # same add order

    def test_matches_reference_scan(self):
        # isolated nodes (p = 0, n = 1), zero weights and eta ties (max_w 1
        # or 3); zero keys tie at any noise and stay in ascending node order
        rng = random.Random(13)
        for i in range(150):
            n = rng.choice([0, 1, rng.randint(2, 70)])
            g = random_graph(rng, n, rng.choice([0.0, 0.05, 0.15, 0.5]),
                             max_w=rng.choice([1, 3, 100]))
            cfg = GreedyConfig(rng.choice([0.0, 0.05, 0.3, 0.9]))
            a, b = random.Random(i), random.Random(i)
            s, ref = randomized_greedy(g, cfg, a), reference_randomized_greedy(g, cfg, b)
            assert s.member_list() == ref.member_list(), f"instance {i}"
            assert s.total_weight == ref.total_weight, f"instance {i}"
            assert a.random() == b.random()  # same number of draws
        from mwis.generate import random_gnp

        for seed in range(3):
            g = random_gnp(3000, 0.002, seed=seed)
            for noise in (0.05, 0.3, 0.9):
                cfg = GreedyConfig(noise)
                a, b = random.Random(seed), random.Random(seed)
                assert randomized_greedy(g, cfg, a).member_list() == \
                    reference_randomized_greedy(g, cfg, b).member_list(), (seed, noise)
                assert a.random() == b.random()

    def test_does_not_import_numpy_random(self):
        # the draws come from the run's random.Random, not a numpy Generator
        code = """
import random, sys
import mwis
g = mwis.random_gnp(60, 0.1, seed=1)
mwis.randomized_greedy(g, mwis.GreedyConfig(), random.Random(0))
print("numpy.random" in sys.modules)
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60)
        assert out.stdout.strip() == "False"

    def test_eta_order_matches_reference_and_is_built_once(self):
        rng = random.Random(14)
        for _ in range(50):
            n = rng.randint(0, 40)
            g = random_graph(rng, n, rng.uniform(0.0, 0.4), max_w=rng.choice([1, 4, 100]))
            assert g.eta_order == reference_eta_order(g)
        g = build_graph(4, [(0, 1), (2, 3)], [0.5, 0.25, 0.1, 0.7])  # fractional etas
        assert g.eta_order == reference_eta_order(g) == [3, 0, 1, 2]
        assert g.eta_order is g.eta_order

    def test_config_validation(self):
        for noise in (-0.1, -1e-300, 1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="noise"):
                GreedyConfig(noise=noise)
        assert GreedyConfig(noise=0.0).noise == 0.0
        assert GreedyConfig(noise=0.999).noise == 0.999

    def test_no_unseeded_or_default_fallbacks(self, path3):
        # without a seeded RNG the construction could not be repeated
        with pytest.raises(TypeError):
            randomized_greedy(path3, GreedyConfig())
        with pytest.raises(TypeError):
            randomized_greedy(path3, rng=random.Random(0))


class TestAdaptiveGreedy:
    def test_path_immediate_zero_degree_add(self, path3):
        s = adaptive_greedy(path3)
        assert sorted(s.members()) == [0, 2]
        assert s.total_weight == 6.0

    def test_star_picks_heavy_center(self):
        g = graph_from(6, [(0, i) for i in range(1, 6)],
                       [100.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        s = adaptive_greedy(g)
        assert sorted(s.members()) == [0]
        assert s.total_weight == 100.0

    def test_triangle_picks_best_eta(self):
        g = graph_from(3, [(0, 1), (1, 2), (0, 2)], [1.0, 2.0, 3.0])
        s = adaptive_greedy(g)
        assert sorted(s.members()) == [2]
        assert s.total_weight == 3.0

    def test_matches_reference_push_per_drop(self, monkeypatch):
        # one push per changed node and pick, and the heap compacted whenever
        # stale entries pile up, against the reference's push per drop and
        # full lazy heap, on sparse and dense graphs: same picks, same add
        # order, same bits of total_weight
        from mwis.generate import random_gnp

        # the module, not the `mwis.greedy` function the package re-exports
        module = importlib.import_module("mwis.greedy")
        monkeypatch.setattr(module, "Solution", RecordingSolution)
        rng = random.Random(15)
        dense = 0
        for i in range(203):
            n = rng.randint(0, 70)
            p = rng.choice([0.0, 0.05, 0.15, 0.4, 0.8])
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            # fractional weights, or a few integer weights: many eta ties
            weights = [rng.random() * 10 if i % 2 else float(rng.randint(0, 3))
                       for _ in range(n)]
            # two sparse at scale, where most picks lower several nodes' degrees,
            # and one dense, where the heap is compacted many times
            g = (build_graph(n, edges, weights) if i < 200
                 else random_gnp(2000, 0.0025, seed=i) if i < 202
                 else random_gnp(1000, 0.1, seed=i))
            dense += is_dense(g.n, g.m)
            s, ref = adaptive_greedy(g), reference_adaptive_greedy(g)
            assert s.added == ref.added, f"instance {i}"
            assert s.total_weight == ref.total_weight, f"instance {i}"
        assert 20 < dense < 180  # sparse and dense graphs both ran

    def test_heap_stays_compact(self, monkeypatch):
        # stale entries are dropped as they pile up, so a run pops at most n
        # entries; a never-rebuilt heap pops 11.2n (dense) and 2.8n (sparse) here
        from mwis.generate import random_gnp

        pops = 0

        def heappop(heap):
            nonlocal pops
            pops += 1
            return heapq.heappop(heap)

        module = importlib.import_module("mwis.greedy")
        monkeypatch.setattr(module, "heapq", SimpleNamespace(
            heappop=heappop, heappush=heapq.heappush, heapify=heapq.heapify))
        for g in (random_gnp(1000, 0.1, seed=1), random_gnp(5000, 0.001, seed=1)):
            pops = 0
            adaptive_greedy(g)
            assert 0 < pops <= g.n, (g.n, g.m, pops)


class TestConstructorProperties:
    def test_all_three_independent_and_maximal(self):
        rng = random.Random(21)
        for i in range(1000):
            g = random_graph(rng, rng.randint(1, 30), rng.uniform(0.05, 0.5))
            for build in (greedy,
                          lambda gr: randomized_greedy(gr, GreedyConfig(0.3), rng),
                          adaptive_greedy):
                assert_maximal(g, build(g))

    def test_adaptive_usually_beats_static(self):
        # sparse regime, where residual-degree adaptivity actually pays off
        from mwis.generate import random_gnp

        rng = random.Random(22)
        wins = 0
        for i in range(500):
            n = rng.randint(400, 800)
            g = random_gnp(n, rng.choice([3.0, 5.0, 8.0]) / n, seed=i)
            wa = adaptive_greedy(g).total_weight
            wg = greedy(g).total_weight
            if wa >= wg:
                wins += 1
            else:
                print(f"adaptive below static on instance {i}: {wa} < {wg}")
        assert wins >= 450  # soft regression guard: >= 90%
