from __future__ import annotations

import gc
import itertools
import random

import pytest

from mwis.driver import RunConfig, run
from mwis.generate import GenSpec, generate_graph, random_gnp
from mwis.graph import build_graph
from mwis.oracle import exact_mwis, max_weight_subset
from mwis.solution import is_independent

from conftest import ROUNDING_TIE_POOLS, FakeClock, bipartite_optimum, graph_from, \
    interval_graph, interval_optimum, maximal, random_graph
from reference_oracle import enumerate_mwis
from reference_oracle import max_weight_subset as unpruned_subset


def brute_force(g):
    """Third, independent route: itertools over all subsets."""
    best_w, best_set = 0.0, frozenset()
    nodes = range(g.n)
    for r in range(g.n + 1):
        for comb in itertools.combinations(nodes, r):
            cs = set(comb)
            if any(u in cs for v in comb for u in g.neighbors(v).tolist()):
                continue
            w = sum(g.node_weight(v) for v in comb)
            if w > best_w:
                best_w, best_set = w, frozenset(comb)
    return best_w, best_set


class TestExactMwis:
    def test_triangle(self):
        g = graph_from(3, [(0, 1), (1, 2), (0, 2)], [1.0, 2.0, 3.0])
        res = exact_mwis(g)
        assert res.weight == 3.0
        assert res.witness == {2}

    def test_four_cycle(self):
        g = graph_from(4, [(0, 1), (1, 2), (2, 3), (3, 0)], [1.0, 2.0, 3.0, 4.0])
        res = exact_mwis(g)
        assert res.weight == 6.0
        assert res.witness == {1, 3}

    def test_weighted_beats_cardinality(self):
        # a,b,c (4,4,5) pairwise non-adjacent; d,e (7,9) blocked by them
        g = graph_from(5, [(0, 3), (1, 3), (1, 4), (2, 4)],
                       [4.0, 4.0, 5.0, 7.0, 9.0])
        res = exact_mwis(g)
        bw, bset = brute_force(g)
        assert res.weight == bw == 16.0
        assert res.witness == bset == {3, 4}
        # the maximum-cardinality independent set is strictly lighter
        assert len(res.witness) < 3
        assert sum(g.node_weight(v) for v in (0, 1, 2)) == 13.0

    def test_branch_and_bound_equals_enumeration(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 16)
            g = random_graph(rng, n, rng.uniform(0.1, 0.6))
            a = exact_mwis(g)
            b = enumerate_mwis(g)
            assert a.weight == b.weight
            assert sum(g.node_weight(v) for v in a.witness) == a.weight

    def test_witness_is_independent(self):
        rng = random.Random(8)
        for _ in range(25):
            g = random_graph(rng, 14, 0.3)
            res = exact_mwis(g)
            for v in res.witness:
                assert not any(u in res.witness for u in g.neighbors(v).tolist())

    def test_size_guards(self):
        g = graph_from(31, [])
        with pytest.raises(ValueError):
            exact_mwis(g)
        g = graph_from(21, [])
        with pytest.raises(ValueError):
            enumerate_mwis(g)

    def test_empty_graph(self):
        g = graph_from(0, [], [])
        assert exact_mwis(g).weight == 0.0

    def test_search_size_is_capped(self):
        # at most 1,739 calls per graph here; without the degree relabel up to
        # 21,955, and without the weight bound 4e5 to 8.6e6 on average
        for p in (0.02, 0.05, 0.1):
            for seed in range(20):
                g = random_gnp(30, p, seed)
                res = exact_mwis(g)
                assert res.explored <= 2500, (p, seed, res.explored)
                assert sum(g.node_weight(v) for v in res.witness) == res.weight
                assert not any(u in res.witness for v in res.witness for u in g.adj[v])


class TestSuperOptimality:
    def test_no_heuristic_beats_the_oracle(self):
        from mwis.greedy import GreedyConfig, adaptive_greedy, greedy, randomized_greedy
        from mwis.local_search import LocalSearchParams, local_search
        from mwis.solution import Solution

        rng = random.Random(31)
        for _ in range(40):
            g = random_graph(rng, rng.randint(6, 16), rng.uniform(0.15, 0.5))
            opt = exact_mwis(g).weight
            for s in (greedy(g), adaptive_greedy(g), randomized_greedy(g, GreedyConfig(), rng),
                      local_search(maximal(g, Solution(g), rng), LocalSearchParams(), rng)):
                assert s.total_weight <= opt + 1e-9


class TestBipartiteOptimum:
    def test_max_flow_optimum_matches_the_oracle(self):
        rng = random.Random(41)
        for i in range(150):
            n = rng.randint(0, 30)
            left = [rng.random() < 0.5 for _ in range(n)]
            p = rng.choice([0.1, 0.3, 0.6])
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if left[u] != left[v] and rng.random() < p]
            g = build_graph(n, edges, [float(rng.randint(0, 20)) for _ in range(n)])
            assert bipartite_optimum(g, left) == exact_mwis(g).weight, f"graph {i}"

    def test_run_never_exceeds_the_grid_optimum(self):
        for seed in (1, 2):
            g = generate_graph(GenSpec(model="grid", rows=100, cols=100, seed=seed, w_lo=1, w_hi=200))
            opt = bipartite_optimum(g, [(v // 100 + v % 100) % 2 for v in range(g.n)])
            best, _ = run(g, RunConfig(time_limit=0.02, seed=seed), clock=FakeClock())
            assert is_independent(g, best)
            assert best.total_weight == best.recomputed_weight() <= opt


class TestIntervalOptimum:
    @staticmethod
    def draw(rng, n, span, max_len):
        intervals = []
        for _ in range(n):
            s = rng.randrange(span)
            intervals.append((s, s + rng.randint(1, max_len)))
        return intervals, [float(rng.randint(0, 20)) for _ in range(n)]

    def test_scheduling_optimum_matches_the_enumeration(self):
        rng = random.Random(43)
        for i in range(150):
            n = rng.randint(0, 18)
            intervals, weights = self.draw(rng, n, rng.choice([5, 20, 60]), rng.choice([2, 8, 30]))
            g = interval_graph(intervals, weights)
            assert interval_optimum(intervals, weights) == enumerate_mwis(g).weight, f"graph {i}"

    def test_run_never_exceeds_the_interval_optimum(self):
        for seed in (1, 2):
            intervals, weights = self.draw(random.Random(seed), 10_000, 10_000, 6)
            g = interval_graph(intervals, weights)
            opt = interval_optimum(intervals, weights)
            best, _ = run(g, RunConfig(time_limit=0.02, seed=seed), clock=FakeClock())
            assert is_independent(g, best)
            assert best.total_weight == best.recomputed_weight() <= opt


def chosen_items(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestExactSubset:
    def test_no_conflicts_takes_everything(self):
        w, chosen = max_weight_subset([1.0, 2.0, 3.0], [0, 0, 0])
        assert w == 6.0 and chosen_items(chosen) == [0, 1, 2]

    def test_complete_conflicts_takes_heaviest(self):
        g = graph_from(3, [(0, 1), (0, 2), (1, 2)], [1.0, 5.0, 3.0])
        w, chosen = max_weight_subset(g.weights.tolist(), g.rows)
        assert w == 5.0 and chosen_items(chosen) == [1]

    def test_matches_exact_mwis_on_random_pools(self):
        # exact_mwis is this search, so the enumeration is the independent route
        rng = random.Random(9)
        for _ in range(500):
            k = rng.randint(1, 12)
            g = random_graph(rng, k, rng.uniform(0.1, 0.7))
            w, chosen = max_weight_subset(g.weights.tolist(), g.rows)
            assert w == enumerate_mwis(g).weight
            assert sum(g.node_weight(v) for v in chosen_items(chosen)) == w

    def test_matches_the_unpruned_recursion(self):
        # the (1,*) move compares the result with a member's weight, so the
        # bound must leave every (weight, mask) as it was, ties and rounding
        # included: integer weights 0..4 tie often, tenths and the rounding
        # tie pools round differently in different orders, and weights 2^53
        # apart lose the small ones in a sum
        rng = random.Random(10)
        draws = [lambda k: [float(rng.randint(0, 4)) for _ in range(k)],
                 lambda k: [rng.randint(0, 40) / 10 for _ in range(k)],
                 lambda k: rng.choices(rng.choice(ROUNDING_TIE_POOLS), k=k),
                 lambda k: [rng.choice([0.0, 1.0, 2.0, 2.0 ** 53, 2.0 ** 54]) for _ in range(k)]]
        for i in range(4000):
            draw = draws[i % 4]
            g = random_graph(rng, 10, rng.uniform(0.1, 0.8))
            weights = draw(rng.randint(1, 10))
            masks = [row & ((1 << len(weights)) - 1) for row in g.rows[:len(weights)]]
            assert max_weight_subset(weights, masks) == unpruned_subset(weights, masks), i

    def test_leaves_no_reference_cycle(self):
        # run pauses the cyclic collector, so a call must free all it makes
        weights, masks = [3.0, 2.0, 2.0, 1.0], [0b0110, 0b1001, 0b0001, 0b0010]
        gc.collect()
        was_on = gc.isenabled()
        gc.disable()
        try:
            # {0, 3} and {1, 2} tie at 4; the include branch wins
            assert max_weight_subset(weights, masks) == (4.0, 0b1001)
            assert gc.collect() == 0
        finally:
            if was_on:
                gc.enable()
