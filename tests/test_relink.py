from __future__ import annotations

import dataclasses
import importlib
import math
import random

import numpy as np
import pytest

from mwis import driver
from mwis import relink as relink_module
from mwis.driver import RunConfig, run
from mwis.generate import random_gnp
from mwis.graph import build_graph
from mwis.greedy import GreedyConfig, GreedySource, adaptive_greedy, randomized_greedy
from mwis.interstate import IndexedSet, build, make_maximal, state_mismatches
from mwis.local_search import LocalSearchParams, MoveEngine, local_search
from mwis.relink import RelinkParams, path_relink
from mwis.solution import Solution, is_independent

from conftest import FakeClock, maximal, random_graph, rows_forced


def matching_graph(k: int, w_left: float, w_right: float):
    """k disjoint edges (2i, 2i+1); left endpoints weigh w_left, right w_right."""
    edges = [(2 * i, 2 * i + 1) for i in range(k)]
    weights = [w_left if v % 2 == 0 else w_right for v in range(2 * k)]
    g = build_graph(2 * k, edges, weights)
    guide = Solution(g, [2 * i for i in range(k)])
    source = Solution(g, [2 * i + 1 for i in range(k)])
    return g, source, guide


def relink(g, source, guide, *args):
    """path_relink on a fresh structure at a copy of the guide; returns the
    walked solution."""
    st = build(g, guide.copy())
    path_relink(st, source, guide, *args)
    return st.s


class TestSchedule:
    def test_single_stagnation_values(self):
        p = RelinkParams()
        f, c_n, c_p = p.tightened(p.start)
        assert f == 0.9998 * 0.9998
        assert f == pytest.approx(0.99960004, rel=1e-12)
        assert c_n == 1.5
        assert c_p == 0.1 * 1.5
        assert c_p == pytest.approx(0.15, rel=1e-12)

    def test_k_applications_follow_induction(self):
        p = RelinkParams()
        limits = p.start
        f, cn, cp = 0.9998, 1.0, 0.1
        for k in range(1, 30):
            limits = p.tightened(limits)
            f *= 0.9998
            cn *= 1.5
            cp *= 1.5
            assert limits == (f, cn, cp)
            assert limits[0] == pytest.approx(0.9998 ** (k + 1), rel=1e-12)
            assert limits[1] == pytest.approx(1.5 ** k, rel=1e-12)
            assert limits[2] == pytest.approx(0.1 * 1.5 ** k, rel=1e-12)
            assert limits[2] < limits[1]  # growth preserves the ratio

    def test_reset_restores_exact_initials(self):
        # tightening leaves the settings as they were, so a restart at
        # start is exact however long the run stagnated
        p = RelinkParams()
        limits = p.start
        for _ in range(7):
            limits = p.tightened(limits)
        assert p == RelinkParams()
        assert p.start == (0.9998, 1.0, 0.1)

    def test_live_schedule_starts_at_initials(self):
        assert RelinkParams(f0=0.5, c_n0=3.0, c_p0=2.0).start == (0.5, 3.0, 2.0)
        for live in ("f", "c_n", "c_p"):  # the live limits are not settings
            with pytest.raises(TypeError):
                RelinkParams(**{live: 0.5})

    def test_settings_are_frozen_and_hold_no_run_state(self):
        p = RelinkParams()
        for name in ("f0", "c_n0", "c_p0", "f_decay", "budget_growth"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, 0.5)
        for live in ("f", "c_n", "c_p", "on_stagnation", "reset"):
            assert not hasattr(p, live)


class TestWalk:
    def test_identical_solutions_returned_unchanged(self, path3):
        s = maximal(path3, Solution(path3, [1]), random.Random(0))
        out = relink(path3, s, s.copy(), RelinkParams().start, random.Random(0))
        assert out.as_frozenset() == s.as_frozenset()

    def test_empty_graph_walk_is_a_no_op(self):
        g = build_graph(0, [], [])
        log, rng = [], random.Random(0)
        out = relink(g, Solution(g), Solution(g), RelinkParams().start, rng, log)
        assert log == [] and out.member_list() == [] and out.total_weight == 0.0
        assert rng.getstate() == random.Random(0).getstate()

    def test_positive_budget_stops_after_first_positive_step(self):
        # every step pulls a heavier source node: all gains positive
        g, source, guide = matching_graph(6, w_left=1.0, w_right=2.0)
        log = []
        out = relink(g, source, guide, RelinkParams().start, random.Random(0), log)
        assert len(log) == 1        # pos count 1 > c_p = 0.1 stops the walk
        assert log[0][0] > 0
        assert len(out.as_frozenset() ^ guide.as_frozenset()) == 2

    def test_negative_budget_allows_two_steps(self):
        # tiny negative steps: the f-rule stays quiet, c_n = 1.0 stops at 2
        g, source, guide = matching_graph(8, w_left=1000.0, w_right=999.9)
        log = []
        out = relink(g, source, guide, RelinkParams().start, random.Random(0), log)
        assert len(log) == 2        # neg count 2 > c_n = 1.0
        assert all(gain < 0 for gain, _ in log)
        assert len(out.as_frozenset() ^ guide.as_frozenset()) == 4
        # stop-rule postcondition: ratio >= f throughout here
        assert out.total_weight >= 0.9998 * guide.total_weight

    def test_budget_monotonicity_under_stagnation(self):
        g, source, guide = matching_graph(40, w_left=1000.0, w_right=999.9)
        steps = []
        params = RelinkParams()
        limits = params.start
        for k in range(6):
            log = []
            relink(g, source, guide, limits, random.Random(0), log)
            steps.append(len(log))
            limits = params.tightened(params.tightened(limits))
        assert steps == sorted(steps)
        assert steps[-1] > steps[0]

    def test_weight_factor_truncates(self):
        # big negative steps: first step already drops below f
        g, source, guide = matching_graph(8, w_left=1000.0, w_right=1.0)
        log = []
        relink(g, source, guide, RelinkParams().start, random.Random(0), log)
        assert len(log) == 1
        gain, w_after = log[0]
        assert w_after / guide.total_weight < 0.9998

    def test_greedy_step_choice_maximizes_weight(self):
        # two pullable nodes; the lighter-blocker one must go first
        g = build_graph(4, [(0, 1), (2, 3)], [10.0, 4.0, 10.0, 9.0])
        guide = Solution(g, [1, 3])   # weight 13
        source = Solution(g, [0, 2])  # weight 20
        log = []
        out = relink(g, source, guide, RelinkParams().start, random.Random(0), log)
        # pulling 0 (gain +6) beats pulling 2 (gain +1); one positive step, stop
        assert log[0][0] == 6.0
        assert 0 in out.as_frozenset()

    def test_output_always_independent_and_maximal(self):
        rng = random.Random(1)
        for _ in range(40):
            g = random_graph(rng, 30, 0.15)
            a = maximal(g, Solution(g), rng)
            b = maximal(g, Solution(g), rng)
            out = relink(g, a, b, RelinkParams().start, rng)
            assert is_independent(g, out)
            flags = [v in out for v in range(g.n)]
            for v in range(g.n):
                if not flags[v]:
                    assert any(flags[u] for u in g.neighbors(v).tolist())

    def test_deterministic_under_fixed_seed(self):
        rng = random.Random(2)
        g = random_graph(rng, 30, 0.15)
        a = maximal(g, Solution(g), rng)
        b = maximal(g, Solution(g), rng)
        o1 = relink(g, a, b, RelinkParams().start, random.Random(5))
        o2 = relink(g, a, b, RelinkParams().start, random.Random(5))
        assert o1.as_frozenset() == o2.as_frozenset()

    def test_one_walk_asks_few_source_nodes(self):
        # each step asks the source about non-members in descending delta
        # and stops at the first it holds, so one walk from a local optimum
        # evaluates a few dozen of its nodes; a source built whole
        # evaluates all 5,000
        g = random_gnp(5000, 5 / 5000, seed=8)
        rng = random.Random(8)
        st = build(g, adaptive_greedy(g))
        make_maximal(st, rng)
        guide = local_search(st, LocalSearchParams(), rng)
        source = GreedySource(g, GreedyConfig(), rng)
        log = []
        path_relink(st, source, guide, RelinkParams().start, rng, log)
        evaluated = g.n - source._state.count(0)
        assert log and 0 < evaluated < g.n / 20

    def test_walk_can_reach_source_exactly(self):
        g, source, guide = matching_graph(3, w_left=5.0, w_right=5.0)
        params = RelinkParams(c_n0=100.0, c_p0=99.0, f0=1e-12)
        out = relink(g, source, guide, params.start, random.Random(0))
        assert out.as_frozenset() == source.as_frozenset()

    @pytest.mark.parametrize("lazy", [False, True])
    def test_untruncated_walk_ends_at_a_greedy_source(self, lazy):
        # a greedy source is maximal, so every member outside it has a
        # neighbour in it, which the walk pulls: with no truncation the
        # walk ends at exactly the source's set, built or asked node by node
        limits = RelinkParams(f0=1e-12, c_n0=1e9, c_p0=1e8).start
        rng = random.Random(38)
        for i in range(60):
            g = random_gnp(rng.randint(5, 80), rng.choice([0.05, 0.15, 0.3]), seed=i)
            guide = maximal(g, Solution(g), rng)
            cfg, seed = GreedyConfig(), rng.random()
            built = randomized_greedy(g, cfg, random.Random(seed))
            source = GreedySource(g, cfg, random.Random(seed)) if lazy else built
            out = relink(g, source, guide, limits, random.Random(seed))
            assert out.as_frozenset() == built.as_frozenset(), f"graph {i}"

    def test_ties_past_the_partition_go_to_the_lower_id(self):
        # nodes 100..199 (weight 2) tie at delta 1, each blocked by its own
        # guide node i - 100 (weight 1). The lower of the two source nodes is
        # not among the 64 that argpartition picks from the walk's first
        # ranking, and the higher is. A walk that ranked such a top 64 first
        # once pulled the higher; the tie rule pulls the lower
        g = build_graph(200, [(i, 100 + i) for i in range(100)], [1.0] * 100 + [2.0] * 100)
        ranking = np.array([-np.inf] * 100 + [1.0] * 100)
        picked = set(np.argpartition(-ranking, 64)[:64].tolist())
        low, high = min(set(range(100, 200)) - picked), max(picked)
        assert low < high
        guide, source = Solution(g, list(range(100))), Solution(g, [low, high])
        log = []
        out = relink(g, source, guide, RelinkParams().start, random.Random(0), log)
        assert log == [(1.0, 101.0)]
        assert low in out and high not in out

    def test_candidates_come_in_exact_descending_order(self):
        # the first step asks the source about each non-member once, by
        # descending delta, ties by ascending ID, until one is in it; also
        # when ties straddle the 64th place, where the walk once split its
        # ranking in two
        rng = random.Random(39)
        straddled = False
        for n in (0, 1, 64, 65, 130, 300):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 2 / n]
            weights = [rng.choice([0.0, 1.0, 2.5, rng.random()]) for _ in range(n)]
            g = build_graph(n, edges, weights)
            guide = maximal(g, Solution(g), rng)
            for v in guide.member_list():
                if rng.random() < 0.5:
                    guide.remove(v)
            delta = np.array(build(g, guide.copy()).delta)
            order = [v for v in np.argsort(-delta, kind="stable").tolist() if v not in guide]
            straddled |= len(order) > 64 and delta[order[63]] == delta[order[64]]
            # a source that holds nothing, the last candidate, or any one
            for held in [[], order[-1:]] + ([[rng.choice(order)]] if order else []):
                source = RecordingSource(held)
                relink(g, source, guide, RelinkParams().start, random.Random(0))
                asked = [v for _, v in source.log]
                if held:  # the first step ends at its pull
                    asked = asked[:asked.index(held[0]) + 1]
                assert asked == (order[:order.index(held[0]) + 1] if held else order), n
        assert straddled

    def test_refused_nodes_are_asked_again_only_after_their_delta_changed(self, monkeypatch):
        # late-schedule walks of a few dozen steps from a local optimum: a
        # node the source refused is asked again only after a step flipped
        # it or one of its neighbours, so a walk does not re-ask every
        # refused node that ranks above its next pull at every step
        log = []
        for name in ("add_member", "remove_member"):
            def flipped(st, x, inner=getattr(relink_module, name)):
                log.append(("flip", x))
                inner(st, x)
            monkeypatch.setattr(relink_module, name, flipped)
        limits = RelinkParams(f0=0.9998 ** 16, c_n0=1.5 ** 15, c_p0=0.1 * 1.5 ** 15).start
        for seed in (1, 2, 3):
            g = random_gnp(2000, 5 / 2000, seed=seed)
            rng = random.Random(seed)
            st = build(g, adaptive_greedy(g))
            make_maximal(st, rng)
            guide = local_search(st, LocalSearchParams(), rng)
            source = RecordingSource(GreedySource(g, GreedyConfig(), rng), log)
            log.clear()
            steps = []
            path_relink(st, source, guide, limits, rng, steps)
            assert len(steps) > 15
            refused, changed = set(), set()
            for kind, v in log:
                if kind == "flip":
                    changed.update([v, *g.adj[v]])
                    continue
                assert v not in refused or v in changed, f"seed {seed}: {v} asked again unchanged"
                if v not in source.held:
                    refused.add(v)
                    changed.discard(v)
            assert refused


class RecordingSource:
    """Holds what `held` holds, and logs ("ask", v) for each query to `log`."""

    def __init__(self, held, log=None):
        self.held, self.log = held, [] if log is None else log

    def __contains__(self, v):
        self.log.append(("ask", v))
        return v in self.held


def reference_relink(g, source, guide, limits, rng, step_log):
    """The paper's pull-only walk with the candidates kept as a set beside
    the flags, sorted and re-scored from fresh sums at every step."""
    s = guide.copy()
    cur_flags = s._in_set
    to_add = {v for v in source.members() if not cur_flags[v]}
    w, adj = g.w, g.adj
    w_guide = guide.total_weight
    f, c_n, c_p = limits
    neg = pos = 0
    while to_add:
        best_gain, best_v = float("-inf"), None
        for v in sorted(to_add):
            gain = w[v] - sum(w[x] for x in adj[v] if cur_flags[x])
            if gain > best_gain:
                best_gain, best_v = gain, v
        for x in adj[best_v]:
            if cur_flags[x]:
                s.remove(x)
        s.add(best_v)
        to_add.discard(best_v)
        step_log.append((best_gain, s.total_weight))
        if best_gain < 0:
            neg += 1
        else:
            pos += 1
        if neg > c_n or pos > c_p:
            break
        if w_guide > 0 and s.total_weight / w_guide < f:
            break
    maximal(g, s, rng)
    return s


def independent_set(g, rng):
    """A random maximal independent set, with some members dropped half the time."""
    s = maximal(g, Solution(g), rng)
    if rng.random() < 0.5:
        for v in s.member_list():
            if rng.random() < 0.3:
                s.remove(v)
    return s


def reference_cases(seed, integer):
    """360 (graph, source, guide, limits, walk seed) cases; weights are
    integers or multiples of 1/10. The schedule has stagnated 0, 3, 12 or 20
    times, so some walks run long."""
    rng = random.Random(seed)
    for i in range(360):
        n = rng.randint(6, 60)
        p = rng.choice([0.05, 0.15, 0.3])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        weights = [rng.randint(0, 30) for _ in range(n)]
        g = build_graph(n, edges, weights if integer else [x / 10 for x in weights])
        source, guide = independent_set(g, rng), independent_set(g, rng)
        params = RelinkParams()
        limits = params.start
        for _ in range((0, 3, 12, 20)[i % 4]):
            limits = params.tightened(limits)
        yield g, source, guide, limits, rng.random()


def live_relink(g, source, guide, *args):
    """path_relink on a structure that starts at the source."""
    st = build(g, source.copy())
    path_relink(st, source, guide, *args)
    return st.s


def walk_all_ways(g, source, guide, limits, seed, walks=(relink, live_relink, reference_relink)):
    """(members, step log, random state) of each walk; by default
    path_relink on a copy of the guide, on a structure retargeted to it,
    then reference_relink."""
    runs = []
    for walk in walks:
        log = []
        walk_rng = random.Random(seed)
        out = walk(g, source, guide, limits, walk_rng, log)
        runs.append((out.member_list(), log, walk_rng.getstate()))
    return runs


def assert_walks_alike(run, ref):
    """Same members and random state, and the same step log up to the last
    bits of a running delta against the reference's fresh sums."""
    (members, log, state), (ref_members, ref_log, ref_state) = run, ref
    assert members == ref_members and state == ref_state
    assert len(log) == len(ref_log)
    for got, want in zip(log, ref_log):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestMatchesReference:
    def test_flag_walk_matches_set_walk(self):
        # a pull's gain is the running sum delta, so on fractional weights a
        # logged figure may differ from the reference's fresh sum in the last
        # bit; a live pair's sums carry its whole history, and may break a
        # tie between two pulls the other way, so only the copy is compared
        for case in reference_cases(31, integer=False):
            run, _, ref = walk_all_ways(*case)
            assert_walks_alike(run, ref)

    def test_flag_walk_matches_set_walk_exactly_on_integer_weights(self):
        for case in reference_cases(32, integer=True):
            runs = walk_all_ways(*case)
            assert runs[0] == runs[2] and runs[1] == runs[2]

    @pytest.mark.parametrize("integer", [False, True])
    def test_lazy_source_walks_as_the_built_one(self, integer):
        # every case again, toward a greedy source: as the Solution that
        # randomized_greedy builds and as the GreedySource of the same draw,
        # asked node by node. The two walks take the same steps and draws,
        # and those of the reference
        for g, _, guide, limits, seed in reference_cases(31 + integer, integer):
            cfg = GreedyConfig()
            built = randomized_greedy(g, cfg, random.Random(seed))
            lazy = GreedySource(g, cfg, random.Random(seed))
            run, ref = walk_all_ways(g, built, guide, limits, seed, (relink, reference_relink))
            assert walk_all_ways(g, lazy, guide, limits, seed, (relink,)) == [run]
            assert_walks_alike(run, ref)
            if integer:
                assert run == ref


def winning_pools_left_out(st, max_pool=None):
    """Members out of s_one whose 1-tight pool (of at most max_pool nodes)
    the (1,*) move, evaluating it as the engine does, would swap in for them."""
    engine, w = MoveEngine(st, random.Random(0), LocalSearchParams()), st.g.w
    bad = []
    for v, pool in st.one_tight.items():
        if pool and v not in st.s_one and len(pool) <= (max_pool or len(pool)):
            cand = sorted(pool, key=lambda u: (-w[u], u))
            exact = len(cand) <= engine.params.exact_recursion_limit
            evaluate = engine._exact_subset if exact else engine._greedy_subset
            if evaluate(cand)[0] > w[v]:
                bad.append(v)
    return bad


class TestHandoff:
    @pytest.mark.parametrize("rows", [False, True])
    def test_returned_state_matches_a_rebuild(self, rows):
        with rows_forced(rows):
            for i, (g, source, guide, limits, seed) in enumerate(reference_cases(33, integer=False)):
                if i == 120:
                    break
                st = build(g, guide.copy())
                path_relink(st, source, guide, limits, random.Random(seed))
                assert (st.rows is not None) is rows
                assert not state_mismatches(st, check_pruning=True), f"case {i}"

    def test_local_search_runs_on_the_state_it_is_handed(self):
        rng = random.Random(34)
        engines = []
        for _ in range(10):
            g = random_graph(rng, 40, 0.1)
            source = maximal(g, Solution(g), rng)
            guide = maximal(g, Solution(g), rng)
            st = build(g, guide.copy())
            path_relink(st, source, guide, RelinkParams().start, rng)
            local_search(st, LocalSearchParams(), rng, on_commit=lambda eng, _, st=st: engines.append((eng, st)))
        assert engines, "no move committed"
        assert all(eng.state is st and eng.s is st.s for eng, st in engines)

    @pytest.mark.parametrize("rows", [False, True])
    def test_one_live_pair_stays_consistent_over_a_run(self, rows, monkeypatch):
        pairs = []
        inner = driver.path_relink

        def checked(st, source, guide, *args, **kwargs):
            s = st.s
            inner(st, source, guide, *args, **kwargs)
            assert st.s is s
            # the queues carry the last search's evaluations, so they cover
            # the eligible members only up to what that search refused
            assert not state_mismatches(st)
            assert not winning_pools_left_out(st)
            pairs.append((s, st))

        monkeypatch.setattr(driver, "path_relink", checked)
        rng = random.Random(36)
        with rows_forced(rows):
            for i in range(4):
                edges = [(u, v) for u in range(50) for v in range(u + 1, 50) if rng.random() < 0.1]
                # integer weights, then weights k/10
                g = build_graph(50, edges, [rng.randint(0, 100) / (1, 10)[i % 2] for _ in range(50)])
                pairs.clear()
                # the run also compares the pair with a rebuild after every commit
                run(g, RunConfig(time_limit=0.003, seed=i, check_interstate_every=1),
                    clock=FakeClock())
                assert len(pairs) > 2
                assert all(p[0] is pairs[0][0] and p[1] is pairs[0][1] for p in pairs)
                assert (pairs[0][1].rows is not None) is rows

    @pytest.mark.parametrize("rows", [False, True])
    def test_searches_on_the_live_pair_end_locally_optimal(self, rows, monkeypatch):
        """Every search that ends before the deadline returns a maximal set
        with no improving (*,1) move by exact sums and no improving (1,*)
        move on a pool of at most 7 nodes: acceptance criterion 4's checks
        on searches that start from relinking's state and its queues. Each
        walk's queues are checked as in the test above, on more inputs."""
        outputs = []
        search, relink = driver.local_search, driver.path_relink

        def checked_search(start, *args, deadline, clock, **kwargs):
            out = search(start, *args, deadline=deadline, clock=clock, **kwargs)
            if clock() < deadline:  # so no check of the clock inside ended it
                outputs.append(out)
            return out

        def checked_relink(st, *args, **kwargs):
            relink(st, *args, **kwargs)
            assert not winning_pools_left_out(st)

        monkeypatch.setattr(driver, "local_search", checked_search)
        monkeypatch.setattr(driver, "path_relink", checked_relink)
        rng = random.Random(37)
        with rows_forced(rows):
            for i in range(6):
                edges = [(u, v) for u in range(60) for v in range(u + 1, 60)
                         if rng.random() < rng.choice([0.05, 0.1, 0.2])]
                # integer weights, then weights k/10
                g = build_graph(60, edges, [rng.randint(0, 100) / (1, 10)[i % 2] for _ in range(60)])
                run(g, RunConfig(time_limit=0.01, seed=i), clock=FakeClock())
        assert len(outputs) > 20
        for out in outputs:
            g, w, flags = out.graph, out.graph.w, out._in_set
            assert is_independent(g, out)
            for u in range(g.n):
                if not flags[u]:
                    blockers = [w[x] for x in g.adj[u] if flags[x]]
                    assert blockers and w[u] <= math.fsum(blockers), f"node {u}"
            st = build(g, out.copy())
            st.s_one = IndexedSet()
            assert not winning_pools_left_out(st, max_pool=7)

    def test_one_build_per_run_and_none_per_iteration(self, monkeypatch):
        calls = []

        def count(module, name):
            inner = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for module in ("mwis.driver", "mwis.local_search"):
            count(importlib.import_module(module), "build")
        # not mwis.local_search's binding: the engine calls it after every commit
        for module in ("mwis.driver", "mwis.relink"):
            count(importlib.import_module(module), "make_maximal")
        count(driver, "path_relink")
        g = random_graph(random.Random(35), 60, 0.1)
        run(g, RunConfig(time_limit=0.02, seed=1), clock=FakeClock())
        # set-up, then after each walk its closing make_maximal, then nothing
        first, *between, last = " ".join(calls).split("path_relink")
        assert first.split() == ["build", "make_maximal"]
        assert len(between) > 2
        assert all(it.split() == ["make_maximal"] for it in between), calls
        assert last.split() == ["make_maximal"]


class TestParamsValidation:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            RelinkParams(f0=1.5)
        with pytest.raises(ValueError):
            RelinkParams(c_p0=2.0)  # would invert c_p < c_n
        with pytest.raises(ValueError):
            RelinkParams(budget_growth=0.5)
        RelinkParams(c_n0=math.inf)  # no negative budget
