from __future__ import annotations

import itertools
import math
import random
import time

import pytest

from mwis.graph import is_edge
from mwis.interstate import _pair, build, state_mismatches
from mwis.local_search import _SUM_SLACK, LocalSearchParams, MoveEngine, _pool_cannot_win, \
    local_search
from mwis.oracle import exact_mwis, max_weight_subset
from mwis.solution import Solution, is_independent

from conftest import ROUNDING_TIE_POOLS, graph_from, maximal, random_graph, rows_forced


def engine_on(g, members, seed=0, **kw):
    s = Solution(g, members)
    return MoveEngine(build(g, s), random.Random(seed), LocalSearchParams(), **kw)


def assert_maximal(g, s):
    assert is_independent(g, s)
    flags = [v in s for v in range(g.n)]
    for v in range(g.n):
        if not flags[v]:
            assert any(flags[u] for u in g.neighbors(v).tolist())


def one_tight_of(g, s, v):
    """1-tight pool of member v, recomputed from the definition."""
    out = []
    for u in g.neighbors(v).tolist():
        if u in s:
            continue
        blockers = [x for x in g.neighbors(u).tolist() if x in s]
        if blockers == [v]:
            out.append(u)
    return out


class TestStarOne:
    def test_improving_insertion(self):
        # u=0 (w10) adjacent to members 1 (w3) and 2 (w4): delta = +3
        g = graph_from(3, [(0, 1), (0, 2)], [10.0, 3.0, 4.0])
        eng = engine_on(g, [1, 2])
        w0 = eng.s.total_weight
        assert eng.star_one_moves()
        assert eng.s.total_weight >= w0 + 3.0
        assert sorted(eng.s.members()) == [0]
        assert not state_mismatches(eng.state)

    def test_local_optimum_returns_false(self):
        g = graph_from(3, [(0, 1), (0, 2)], [5.0, 3.0, 4.0])
        eng = engine_on(g, [1, 2])  # delta(0) = -2
        before = eng.s.as_frozenset()
        assert not eng.star_one_moves()
        assert eng.s.as_frozenset() == before

    def test_postcondition_no_positive_delta(self):
        rng = random.Random(0)
        for _ in range(30):
            g = random_graph(rng, 30, 0.2)
            s = maximal(g, Solution(g), rng)
            eng = MoveEngine(build(g, s), rng, LocalSearchParams())
            eng.star_one_moves()
            for u in range(g.n):
                if u not in s:
                    blocked = sum(g.node_weight(x)
                                  for x in g.neighbors(u).tolist() if x in s)
                    assert g.node_weight(u) - blocked <= 1e-9


class TestOneStar:
    def test_two_nonadjacent_replacers(self):
        g = graph_from(3, [(0, 1), (0, 2)], [5.0, 3.0, 3.0])
        eng = engine_on(g, [0])
        assert eng.one_star_moves()
        assert sorted(eng.s.members()) == [1, 2]
        assert eng.s.total_weight == 6.0

    def test_adjacent_replacers_fail(self):
        g = graph_from(3, [(0, 1), (0, 2), (1, 2)], [5.0, 3.0, 3.0])
        eng = engine_on(g, [0])
        assert not eng.one_star_moves()
        assert sorted(eng.s.members()) == [0]

    def test_empty_one_tight_never_evaluated(self):
        # both non-members have two member neighbors: S1 empty
        g = graph_from(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [2.0, 2.0, 3.0, 3.0])
        eng = engine_on(g, [0, 1])
        assert len(eng.state.s_one) == 0
        assert not eng.one_star_moves()

    def test_greedy_fallback_above_recursion_limit(self):
        # star with 9 leaves, pairwise non-adjacent: greedy picks them all
        edges = [(0, i) for i in range(1, 10)]
        g = graph_from(10, edges, [5.0] + [1.0] * 9)
        eng = engine_on(g, [0])
        assert eng.one_star_moves()
        assert sorted(eng.s.members()) == list(range(1, 10))


class TestTwoStar:
    def test_profitable_pair_swap(self):
        # mates 0,1 (w2 each); shared 2-tight 2,3,4 (w2 each), pairwise free
        edges = [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)]
        g = graph_from(5, edges, [2.0] * 5)
        eng = engine_on(g, [0, 1])
        assert eng.two_star_moves()
        assert sorted(eng.s.members()) == [2, 3, 4]
        assert eng.s.total_weight == 6.0
        assert_maximal(g, eng.s)
        assert not state_mismatches(eng.state)

    def test_unprofitable_pair_rolls_back_and_prunes(self):
        edges = [(0, 2), (1, 2), (0, 3), (1, 3)]
        g = graph_from(4, edges, [10.0, 10.0, 2.5, 2.5])
        eng = engine_on(g, [0, 1])
        assert len(eng.state.s_two) == 1
        assert not eng.two_star_moves()
        assert sorted(eng.s.members()) == [0, 1]
        assert len(eng.state.s_two) == 0  # pruned until the next change
        assert not state_mismatches(eng.state)

    def test_empty_s2_returns_false(self, path3):
        eng = engine_on(path3, [1])
        assert len(eng.state.s_two) == 0
        assert not eng.two_star_moves()

    def test_returns_immediately_after_first_improvement(self):
        # two independent profitable pairs; exactly one move per call
        edges = [(0, 2), (1, 2), (0, 3), (1, 3),
                 (4, 6), (5, 6), (4, 7), (5, 7)]
        w = [1.0, 1.0, 3.0, 3.0, 1.0, 1.0, 3.0, 3.0]
        g = graph_from(8, edges, w)
        log = []
        s = Solution(g, [0, 1, 4, 5])
        eng = MoveEngine(build(g, s), random.Random(1), LocalSearchParams(),
                         on_commit=lambda _, out: log.append(out))
        assert eng.two_star_moves()
        assert len([o for o in log if o.kind == "two_star"]) == 1

    def test_member_put_back_by_maximalization_is_in_neither_list(self):
        # mates 0,1 (w1) share the 2-tight node 2 (w0.5); 3 and 4 (w1.5) are
        # 1-tight to 0 and adjacent to 2. A trial that picks 3 and 4 wins and
        # leaves 1 free, so re-maximalization inserts 1 again: the outcome
        # removes 0 only
        edges = [(0, 2), (1, 2), (0, 3), (0, 4), (2, 3), (2, 4)]
        g = graph_from(5, edges, [1.0, 1.0, 0.5, 1.5, 1.5])
        outcomes = []
        for seed in range(20):
            log = []
            eng = engine_on(g, [0, 1], seed, on_commit=lambda _, out: log.append(out))
            if eng.two_star_moves():
                outcomes.append((log, sorted(eng.s.members())))
        assert outcomes
        for log, members in outcomes:
            [out] = log
            assert members == [1, 3, 4]
            assert (out.nodes_removed, sorted(out.nodes_added), out.gain) == ([0], [3, 4], 2.0)


class TestAap:
    def test_profitable_path_flip(self):
        # path a(4)-u(5)-x(7)-w'(5); S={u,w'}; flip gains +1
        g = graph_from(4, [(0, 1), (1, 2), (2, 3)], [4.0, 5.0, 7.0, 5.0])
        eng = engine_on(g, [1, 3])
        assert eng.aap_moves()
        assert sorted(eng.s.members()) == [0, 2]
        assert eng.s.total_weight == 11.0
        assert_maximal(g, eng.s)
        assert not state_mismatches(eng.state)

    def test_no_flip_when_unprofitable(self):
        g = graph_from(4, [(0, 1), (1, 2), (2, 3)], [4.0, 5.0, 4.0, 5.0])
        eng = engine_on(g, [1, 3])
        assert not eng.aap_moves()
        assert sorted(eng.s.members()) == [1, 3]

    def test_empty_s1_returns_false(self):
        g = graph_from(2, [], [1.0, 1.0])
        eng = engine_on(g, [0, 1])
        assert not eng.aap_moves()

    def test_flips_preserve_independence_on_random_graphs(self):
        rng = random.Random(2)
        for _ in range(40):
            g = random_graph(rng, 25, 0.2)
            s = maximal(g, Solution(g), rng)
            eng = MoveEngine(build(g, s), rng, LocalSearchParams())
            eng.aap_moves()
            assert is_independent(g, s)
            assert_maximal(g, s)
            assert not state_mismatches(eng.state)

    def test_accepted_flips_strictly_increase_weight(self):
        rng = random.Random(3)
        for _ in range(40):
            g = random_graph(rng, 25, 0.25)
            s = maximal(g, Solution(g), rng)
            log = []
            eng = MoveEngine(build(g, s), rng, LocalSearchParams(),
                             on_commit=lambda _, out: log.append(out))
            w0 = s.total_weight
            if eng.aap_moves():
                assert s.total_weight > w0
                assert all(o.gain > 0 for o in log if o.kind == "aap")


class TestPerturb:
    def test_forcing_positive_delta_node_equals_star_one(self):
        g = graph_from(3, [(0, 1), (0, 2)], [10.0, 3.0, 4.0])
        eng = engine_on(g, [1, 2])  # only node 0 is outside
        eng.perturb()
        assert sorted(eng.s.members()) == [0]
        assert not state_mismatches(eng.state)

    def test_edgeless_graph_noop(self):
        g = graph_from(3, [], [1.0, 2.0, 3.0])
        eng = engine_on(g, [0, 1, 2])
        eng.perturb()
        assert sorted(eng.s.members()) == [0, 1, 2]

    def test_state_consistent_after_perturb(self):
        rng = random.Random(4)
        for _ in range(20):
            g = random_graph(rng, 30, 0.2)
            s = maximal(g, Solution(g), rng)
            eng = MoveEngine(build(g, s), rng, LocalSearchParams())
            eng.perturb()
            assert_maximal(g, eng.s)
            assert not state_mismatches(eng.state)


class TestLocalSearch:
    def test_path_reaches_optimum_from_middle(self, path3):
        s = Solution(path3, [1])
        out = local_search(s, LocalSearchParams(), random.Random(0))
        assert sorted(out.members()) == [0, 2]
        assert out.total_weight == 6.0

    def test_globally_optimal_start_keeps_weight(self):
        rng = random.Random(5)
        for seed in range(10):
            g = random_graph(rng, 12, 0.3)
            res = exact_mwis(g)
            s = Solution(g, sorted(res.witness))
            out = local_search(s, LocalSearchParams(), random.Random(seed))
            assert out.total_weight == res.weight

    def test_output_contract_delta_and_maximality(self):
        rng = random.Random(6)
        for _ in range(25):
            g = random_graph(rng, 24, 0.2)
            s = maximal(g, Solution(g), rng)
            out = local_search(s, LocalSearchParams(num_iterations=8), rng)
            assert_maximal(g, out)
            for u in range(g.n):
                if u not in out:
                    blocked = sum(g.node_weight(x)
                                  for x in g.neighbors(u).tolist() if x in out)
                    assert g.node_weight(u) - blocked <= 1e-9

    def test_no_improving_exact_one_star_remains(self):
        rng = random.Random(7)
        for _ in range(15):
            g = random_graph(rng, 20, 0.25)
            out = local_search(maximal(g, Solution(g), rng),
                               LocalSearchParams(num_iterations=8), rng)
            for v in out.members():
                pool = one_tight_of(g, out, v)
                if not pool or len(pool) > 7:
                    continue
                best = 0.0
                for r in range(1, len(pool) + 1):
                    for comb in itertools.combinations(pool, r):
                        if any(g.is_edge(a, b) for a, b in
                               itertools.combinations(comb, 2)):
                            continue
                        best = max(best, sum(g.node_weight(u) for u in comb))
                assert best <= g.node_weight(v) + 1e-9

    def test_gain_accounting(self):
        rng = random.Random(8)
        for _ in range(10):
            g = random_graph(rng, 24, 0.2)
            s = maximal(g, Solution(g), rng)
            weights = {"w": s.total_weight}

            def check(engine, out):
                got = engine.s.total_weight - weights["w"]
                assert got == pytest.approx(out.gain, rel=1e-9, abs=1e-9)
                weights["w"] = engine.s.total_weight
                assert is_independent(engine.g, engine.s)

            local_search(s, LocalSearchParams(num_iterations=6),
                         rng, on_commit=check)

    def test_move_outcome_replays_solution(self):
        # each outcome is the exact net change of its move, without repeats,
        # and its gain is the weight change (integer weights sum exactly)
        rng = random.Random(9)
        kinds = set()
        for rows, _ in itertools.product([False, True], range(8)):
            g = random_graph(rng, rng.randint(16, 40), rng.choice([0.1, 0.2, 0.35]))
            s = maximal(g, Solution(g), rng)
            snapshots = [s.as_frozenset()]

            def check(engine, out):
                prev = snapshots[-1]
                now = engine.s.as_frozenset()
                assert set(out.nodes_removed) == prev - now
                assert set(out.nodes_added) == now - prev
                assert len(set(out.nodes_removed)) == len(out.nodes_removed)
                assert len(set(out.nodes_added)) == len(out.nodes_added)
                assert out.gain == sum(g.w[v] for v in now) - sum(g.w[v] for v in prev)
                kinds.add(out.kind)
                snapshots.append(now)

            with rows_forced(rows):
                local_search(s, LocalSearchParams(num_iterations=6), rng, on_commit=check)
            assert len(snapshots) > 1
        assert kinds == {"star_one", "one_star", "two_star", "aap", "perturb"}

    def test_fixed_seed_reproduces_run(self):
        g = random_graph(random.Random(10), 30, 0.2)
        s = maximal(g, Solution(g), random.Random(1))
        logs = []
        outs = []
        for _ in range(2):
            log = []
            outs.append(local_search(s, LocalSearchParams(num_iterations=10),
                                     random.Random(77),
                                     on_commit=lambda _, out: log.append(out)))
            logs.append([(o.kind, tuple(o.nodes_added), tuple(o.nodes_removed))
                         for o in log])
        assert logs[0] == logs[1]
        assert outs[0].as_frozenset() == outs[1].as_frozenset()

    def test_weight_never_below_maximalized_input(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, 20, 0.3)
            s = maximal(g, Solution(g), rng)
            out = local_search(s, LocalSearchParams(num_iterations=4), rng)
            assert out.total_weight >= s.total_weight

    def test_deadline_exit_is_graceful(self):
        g = random_graph(random.Random(12), 40, 0.15)
        s = Solution(g)
        ticks = {"t": 0.0}

        def clock():
            ticks["t"] += 1.0
            return ticks["t"]

        out = local_search(s, LocalSearchParams(), random.Random(0), deadline=3.0, clock=clock)
        assert_maximal(g, out)
        for u in range(g.n):
            if u not in out:
                blocked = sum(g.node_weight(x)
                              for x in g.neighbors(u).tolist() if x in out)
                assert g.node_weight(u) - blocked <= 1e-9

    def test_reaches_bruteforce_optimum_mostly(self):
        rng = random.Random(13)
        hits = 0
        for i in range(200):
            n = rng.randint(8, 16)
            g = random_graph(rng, n, rng.choice([0.2, 0.5]))
            start = maximal(g, Solution(g), rng)
            t0 = time.perf_counter()
            out = local_search(start, LocalSearchParams(), random.Random(i))
            assert time.perf_counter() - t0 < 0.5
            if out.total_weight == exact_mwis(g).weight:
                hits += 1
        assert hits >= 190  # >= 95%

    def test_interstate_checked_during_search(self):
        g = random_graph(random.Random(14), 30, 0.2)
        s = maximal(g, Solution(g), random.Random(2))
        kinds = []

        def check(engine, out):
            assert not state_mismatches(engine.state)
            kinds.append(out.kind)

        local_search(s, LocalSearchParams(num_iterations=6),
                     random.Random(3), on_commit=check)
        assert "perturb" in kinds

    def test_params_validation(self):
        with pytest.raises(ValueError):
            LocalSearchParams(num_iterations=0)
        with pytest.raises(ValueError):
            LocalSearchParams(aap_delta=-1.0)

    def test_no_unseeded_or_default_fallbacks(self, path3):
        # a call without a seeded RNG or without params cannot be repeated
        # or tuned, so it is an error rather than a fresh random.Random()
        s = Solution(path3, [1])
        with pytest.raises(TypeError):
            local_search(s, LocalSearchParams())
        with pytest.raises(TypeError):
            local_search(s, rng=random.Random(0))
        with pytest.raises(TypeError):
            MoveEngine(build(path3, s), random.Random(0))


class TestDegenerateInputs:
    def test_empty_graph(self):
        g = graph_from(0, [], [])
        out = local_search(Solution(g), LocalSearchParams(), random.Random(0))
        assert out.size == 0 and out.total_weight == 0.0

    def test_single_node(self):
        g = graph_from(1, [], [7.0])
        out = local_search(Solution(g), LocalSearchParams(), random.Random(0))
        assert sorted(out.members()) == [0]

    def test_all_zero_weights(self):
        g = graph_from(4, [(0, 1), (2, 3)], [0.0] * 4)
        out = local_search(Solution(g),
                           LocalSearchParams(num_iterations=2), random.Random(0))
        assert out.total_weight == 0.0
        assert_maximal(g, out)


# -- reference copies of move procedures before their shortcuts ------------

class CountingEngine(MoveEngine):
    """The engine as shipped, counting subset evaluations."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.subset_calls = 0

    def _exact_subset(self, cand):
        self.subset_calls += 1
        return super()._exact_subset(cand)

    def _greedy_subset(self, cand):
        self.subset_calls += 1
        return super()._greedy_subset(cand)


class ReferenceOneStar(CountingEngine):
    """(1,*) that evaluates every pool: no weight bound."""

    def one_star_moves(self):
        st, s = self.state, self.s
        improved = False
        limit = self.params.exact_recursion_limit
        w = self.w
        while len(st.s_one):
            v = st.s_one.pop_random(self.rng)
            if v not in s:
                continue
            pool = st.one_tight.get(v)
            if not pool:
                continue
            cand = sorted(pool, key=lambda u: (-w[u], u))
            if len(cand) <= limit:
                best_w, chosen = self._exact_subset(cand)
            else:
                best_w, chosen = self._greedy_subset(cand)
            if best_w > w[v]:
                self._apply("one_star", [v], chosen)
                improved = True
        return improved


class ReferenceTwoStar(MoveEngine):
    """(2,*) with the pool built as a set from its three parts, and the same
    weight bound as the shipped move, which skips trials that cannot win."""

    def two_star_moves(self):
        st, s, g = self.state, self.s, self.g
        w = self.w
        in_set = s._in_set
        while len(st.s_two):
            key = st.s_two.pop_random(self.rng)
            u, v = key
            if not (in_set[u] and in_set[v]):
                continue
            if v not in st.mates.get(u, ()):
                continue
            pool = set(st.one_tight.get(u, ()))
            pool.update(st.one_tight.get(v, ()))
            pool.update(st.two_tight.get(key, ()))
            if not pool:
                continue
            if sum(w[x] for x in pool) * (1.0 + _SUM_SLACK * len(pool)) <= w[u] + w[v]:
                continue
            added = []
            gained = 0.0
            open_now = sorted(pool)
            while open_now:
                c = open_now[self.rng.randrange(len(open_now))]
                added.append(c)
                gained += w[c]
                open_now = [x for x in open_now if x != c and not is_edge(g, c, x)]
            if gained > w[u] + w[v]:
                self._apply("two_star", [u, v], added)
                return True
        return False


class ReferenceAap(MoveEngine):
    """AAP that tests each candidate against every path_out node."""

    def _aap_from(self, v):
        st, g = self.state, self.g
        w = self.w
        rng = self.rng
        delta = self.params.aap_delta
        seed = None
        seed_score = float("-inf")
        for a in st.one_tight[v]:
            score = w[a] + rng.uniform(-delta, delta)
            if score > seed_score:
                seed_score = score
                seed = a
        path_in = [v]
        path_out = [seed]
        on_path = {v, seed}
        gain = w[seed] - w[v]
        best_gain = gain
        best_pairs = 1
        u = v
        while len(path_in) + len(path_out) < self.params.aap_max_len \
                and gain >= self.aap_gain_floor:
            best_step = None
            best_score = float("-inf")
            for mate in st.mates.get(u, ()):
                if mate in on_path:
                    continue
                step_base = -w[mate]
                for x in st.two_tight[_pair(u, mate)]:
                    if x in on_path:
                        continue
                    if any(is_edge(g, x, o) for o in path_out):
                        continue
                    score = gain + step_base + w[x] + rng.uniform(-delta, delta)
                    if score > best_score:
                        best_score = score
                        best_step = (x, mate)
            if best_step is None:
                break
            x, mate = best_step
            path_out.append(x)
            path_in.append(mate)
            on_path.add(x)
            on_path.add(mate)
            gain += w[x] - w[mate]
            if gain > best_gain:
                best_gain = gain
                best_pairs = len(path_in)
            u = mate
        if best_gain <= 0:
            return False
        self._apply("aap", path_in[:best_pairs], path_out[:best_pairs])
        return True


def tenths_graph(rng, n, p):
    """Random graph with weights k/10: sums such as 0.1 + 0.2 round."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return graph_from(n, edges, [rng.randint(0, 10) / 10 for _ in range(n)])


def replay(engine_cls, g, members, seed, rounds=4):
    """Run every move procedure `rounds` times; return everything they decide."""
    rng = random.Random(seed)
    s = Solution(g, members)
    log = []
    eng = engine_cls(build(g, s), rng, LocalSearchParams(exact_recursion_limit=5),
                     on_commit=lambda _, out: log.append(
                         (out.kind, out.nodes_added, out.nodes_removed, out.gain)))
    for _ in range(rounds):
        eng.star_one_moves()
        eng.aap_moves()
        eng.one_star_moves()
        eng.two_star_moves()
        eng.perturb()
    assert not state_mismatches(eng.state)
    return (log, s.member_list(), rng.getstate()), eng


def assert_same_run(engine_cls, g, members, seed):
    ours, eng = replay(CountingEngine, g, members, seed)
    ref, ref_eng = replay(engine_cls, g, members, seed)
    assert ours == ref
    return eng, ref_eng


class TestShortcutsMatchReference:
    def test_one_star_bound_matches_unpruned_on_random_graphs(self):
        rng = random.Random(21)
        ours = ref = 0
        for _ in range(60):
            g = tenths_graph(rng, rng.randint(8, 40), rng.choice([0.08, 0.15, 0.3]))
            start = maximal(g, Solution(g), rng).member_list()
            eng, ref_eng = assert_same_run(ReferenceOneStar, g, start, rng.random())
            ours += eng.subset_calls
            ref += ref_eng.subset_calls
        assert ours < ref  # the bound did skip pools

    @pytest.mark.parametrize("pool", ROUNDING_TIE_POOLS)
    def test_one_star_bound_at_rounding_ties(self, pool):
        # a star (or, with an edge between the first two leaves, a near
        # star) whose centre weighs one of the pool's sums in some order,
        # or one ulp either side of it
        k = len(pool)
        sums = {math.fsum(pool), sum(pool), sum(reversed(pool)), sum(sorted(pool))}
        targets = sorted({f(t) for t in sums for f in (
            lambda t: t, lambda t: math.nextafter(t, 0.0),
            lambda t: math.nextafter(t, math.inf))})
        for target in targets:
            for extra in ([], [(1, 2)]):
                g = graph_from(k + 1, [(0, i) for i in range(1, k + 1)] + extra,
                               [target, *pool])
                assert_same_run(ReferenceOneStar, g, [0], 5)

    def test_one_star_bound_with_large_conflict_free_pool(self):
        rng = random.Random(22)
        pool = [rng.randint(1, 999) / 100 for _ in range(60)]
        total = sum(sorted(pool, reverse=True))  # the greedy subset's order
        for target in (total, math.nextafter(total, 0.0),
                       math.nextafter(total, math.inf), total - 0.01):
            g = graph_from(61, [(0, i) for i in range(1, 61)], [target, *pool])
            assert_same_run(ReferenceOneStar, g, [0], 6)

    def test_one_star_bound_margin_grows_with_pool_size(self):
        # 40 leaves of 0.75 ulp(1) and one of 1.0: ascending leaf order sums
        # to 1 + 30 ulp, descending weight order rounds up at every step to
        # 1 + 40 ulp, so a margin that ignored pool size would skip a pool
        # the subset search accepts
        pool = [0.75 * 2.0 ** -52] * 40 + [1.0]
        target = sum(pool)
        for _ in range(12):
            g = graph_from(42, [(0, i) for i in range(1, 42)], [target, *pool])
            assert_same_run(ReferenceOneStar, g, [0], 7)
            target = math.nextafter(target, math.inf)

    def test_two_star_pool_order_matches_set_build(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng, rng.randint(8, 40), rng.choice([0.1, 0.2, 0.35]), 20)
            start = maximal(g, Solution(g), rng).member_list()
            assert_same_run(ReferenceTwoStar, g, start, rng.random())

    def test_two_star_bound_skips_only_pools_that_cannot_win(self):
        # every mate pair of random states, on integer weights with zeros and
        # on weights k/10: a pool the bound skips holds no independent
        # subset heavier than the pair
        rng = random.Random(25)
        skipped = tried = ties = 0
        for i in range(150):
            n = rng.randint(4, 30)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < rng.choice([0.1, 0.2, 0.35])]
            weights = [rng.randint(0, rng.choice([1, 3, 10])) for _ in range(n)]
            g = graph_from(n, edges, [x / 10 for x in weights] if i % 2 else weights)
            w = g.w
            for _ in range(3):
                s = maximal(g, Solution(g), rng)
                st = build(g, s)
                for (u, v), shared in st.two_tight.items():
                    pool = sorted({*st.one_tight.get(u, ()), *st.one_tight.get(v, ()), *shared})
                    target = w[u] + w[v]
                    if not _pool_cannot_win(w, pool, target):
                        tried += 1
                        continue
                    masks = [sum(1 << j for j, y in enumerate(pool) if is_edge(g, x, y))
                             for x in pool]
                    best_w, chosen = max_weight_subset([w[x] for x in pool], masks)
                    assert best_w <= target, (i, u, v, pool)
                    assert math.fsum(w[x] for j, x in enumerate(pool)
                                     if chosen >> j & 1) <= target
                    skipped += 1
                    ties += math.fsum(w[x] for x in pool) == target
        assert skipped > 100 and tried > 100 and ties > 5, (skipped, tried, ties)

    def test_aap_neighbour_set_matches_path_scan(self):
        rng = random.Random(24)
        for _ in range(60):
            g = random_graph(rng, rng.randint(8, 50), rng.choice([0.05, 0.15, 0.3]))
            start = maximal(g, Solution(g), rng).member_list()
            assert_same_run(ReferenceAap, g, start, rng.random())
