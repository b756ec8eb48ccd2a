from __future__ import annotations

import dataclasses
import importlib
import math
import random

import pytest

from mwis import driver
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
        # the walk asks the source only about candidates that can still win,
        # so one walk from a local optimum evaluates a few dozen of its
        # nodes; a source built whole evaluates all 5,000
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


def reference_relink(g, source, guide, limits, rng, step_log):
    """The walk with the candidates kept as two sets beside the flags, each
    sorted per step, as it was before the walk read them through the flags."""
    s = guide.copy()
    src_flags = source._in_set
    cur_flags = s._in_set
    to_add = {v for v in source.members() if not cur_flags[v]}
    to_drop = {v for v in s.members() if not src_flags[v]}
    if not to_add and not to_drop:
        return s
    w, adj = g.w, g.adj
    w_guide = guide.total_weight
    f, c_n, c_p = limits
    neg = pos = 0

    def eval_pull(v):
        return w[v] - sum(w[x] for x in adj[v] if cur_flags[x])

    def eval_drop(v):
        gain = -w[v]
        added = []
        added_set = set()
        for u in adj[v]:
            if not src_flags[u] or cur_flags[u]:
                continue
            blocked = False
            for nb in adj[u]:
                if nb in added_set or (cur_flags[nb] and nb != v):
                    blocked = True
                    break
            if not blocked:
                added.append(u)
                added_set.add(u)
                gain += w[u]
        return gain, added

    while to_add or to_drop:
        best_gain = float("-inf")
        best_step = None
        for v in sorted(to_add):
            gain = eval_pull(v)
            if gain > best_gain:
                best_gain = gain
                best_step = ("pull", v, None)
        for v in sorted(to_drop):
            gain, added = eval_drop(v)
            if gain > best_gain:
                best_gain = gain
                best_step = ("drop", v, added)
        kind, v, added = best_step
        if kind == "pull":
            for x in adj[v]:
                if cur_flags[x]:
                    s.remove(x)
                    to_drop.discard(x)
            s.add(v)
            to_add.discard(v)
        else:
            s.remove(v)
            to_drop.discard(v)
            for u in added:
                s.add(u)
                to_add.discard(u)
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


class TestMatchesReference:
    def test_flag_walk_matches_set_walk(self):
        # a pull's gain is the running sum delta, so on fractional weights a
        # logged figure may differ from the reference's fresh sum in the last
        # bit; a live pair's sums carry its whole history, and may break a
        # tie between two pulls the other way, so only the copy is compared
        for case in reference_cases(31, integer=False):
            (members, log, state), _, (ref_members, ref_log, ref_state) = walk_all_ways(*case)
            assert members == ref_members and state == ref_state
            assert len(log) == len(ref_log)
            for got, want in zip(log, ref_log):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_flag_walk_matches_set_walk_exactly_on_integer_weights(self):
        for case in reference_cases(32, integer=True):
            runs = walk_all_ways(*case)
            assert runs[0] == runs[2] and runs[1] == runs[2]

    @pytest.mark.parametrize("integer", [False, True])
    def test_lazy_source_walks_as_the_built_one(self, integer):
        # every case again, toward a greedy source: as the Solution that
        # randomized_greedy builds and as the GreedySource of the same draw,
        # asked node by node. The two walks take the same steps and draws.
        # On integer weights both match the reference too; on fractional
        # ones a running delta can break a near-tie between a pull and a
        # drop the other way from the reference's fresh sums (case 134 of
        # seed 31 does, toward either source)
        for g, _, guide, limits, seed in reference_cases(31 + integer, integer):
            cfg = GreedyConfig()
            built = randomized_greedy(g, cfg, random.Random(seed))
            lazy = GreedySource(g, cfg, random.Random(seed))
            walks = (relink, reference_relink) if integer else (relink,)
            runs = walk_all_ways(g, built, guide, limits, seed, walks)
            assert walk_all_ways(g, lazy, guide, limits, seed, walks[:1]) == runs[:1]
            assert runs[0] == runs[-1]

    def test_drop_bound_covers_rounding(self):
        # node 1's pool {2, 3} sums to 4.1, and 4.1 - 1.2 rounds to
        # 2.8999999999999995; the drop's gain, summed from -1.2 in the pool's
        # order, is 2.9000000000000004. So the drop beats the pull of node 0
        # (gain 2.9) only by rounding: a drop bound without slack would stop
        # the step's search at the pull
        g = build_graph(4, [(1, 2), (1, 3)], [2.9, 1.2, 2.5, 1.6])
        guide, source = Solution(g, [1]), Solution(g, [0, 2, 3])
        runs = walk_all_ways(g, source, guide, RelinkParams().start, 0.5)
        assert runs[0] == runs[1] == runs[2]
        (gain, _), = runs[0][1]
        assert gain == -1.2 + 2.5 + 1.6 > 2.9 > 2.5 + 1.6 - 1.2


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
