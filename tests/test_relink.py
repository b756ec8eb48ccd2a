from __future__ import annotations

import copy
import importlib
import random

import pytest

from mwis import driver
from mwis.driver import RunConfig, run
from mwis.graph import build_graph
from mwis.interstate import state_mismatches
from mwis.local_search import local_search
from mwis.relink import RelinkParams, path_relink
from mwis.solution import Solution, is_independent, make_maximal

from conftest import FakeClock, random_graph, rows_forced


def matching_graph(k: int, w_left: float, w_right: float):
    """k disjoint edges (2i, 2i+1); left endpoints weigh w_left, right w_right."""
    edges = [(2 * i, 2 * i + 1) for i in range(k)]
    weights = [w_left if v % 2 == 0 else w_right for v in range(2 * k)]
    g = build_graph(2 * k, edges, weights)
    guide = Solution(g, [2 * i for i in range(k)])
    source = Solution(g, [2 * i + 1 for i in range(k)])
    return g, source, guide


class TestSchedule:
    def test_single_stagnation_values(self):
        p = RelinkParams()
        p.on_stagnation()
        assert p.f == 0.9998 * 0.9998
        assert p.f == pytest.approx(0.99960004, rel=1e-12)
        assert p.c_n == 1.5
        assert p.c_p == 0.1 * 1.5
        assert p.c_p == pytest.approx(0.15, rel=1e-12)

    def test_k_applications_follow_induction(self):
        p = RelinkParams()
        f, cn, cp = 0.9998, 1.0, 0.1
        for k in range(1, 30):
            p.on_stagnation()
            f *= 0.9998
            cn *= 1.5
            cp *= 1.5
            assert (p.f, p.c_n, p.c_p) == (f, cn, cp)
            assert p.f == pytest.approx(0.9998 ** (k + 1), rel=1e-12)
            assert p.c_n == pytest.approx(1.5 ** k, rel=1e-12)
            assert p.c_p == pytest.approx(0.1 * 1.5 ** k, rel=1e-12)
            assert p.c_p < p.c_n  # growth preserves the ratio

    def test_reset_restores_exact_initials(self):
        p = RelinkParams()
        for _ in range(7):
            p.on_stagnation()
        p.reset()
        assert (p.f, p.c_n, p.c_p) == (0.9998, 1.0, 0.1)
        p.reset()  # idempotent
        assert (p.f, p.c_n, p.c_p) == (0.9998, 1.0, 0.1)

    def test_live_schedule_starts_at_initials(self):
        p = RelinkParams(f0=0.5, c_n0=3.0, c_p0=2.0)
        assert (p.f, p.c_n, p.c_p) == (0.5, 3.0, 2.0)
        p.on_stagnation()
        p.reset()
        assert (p.f, p.c_n, p.c_p) == (0.5, 3.0, 2.0)
        for live in ("f", "c_n", "c_p"):  # the schedule is not a constructor argument
            with pytest.raises(TypeError):
                RelinkParams(**{live: 0.5})


class TestWalk:
    def test_identical_solutions_returned_unchanged(self, path3):
        s = make_maximal(path3, Solution(path3, [1]), random.Random(0))
        out, _ = path_relink(path3, s, s.copy(), RelinkParams(), random.Random(0))
        assert out.as_frozenset() == s.as_frozenset()

    def test_positive_budget_stops_after_first_positive_step(self):
        # every step pulls a heavier source node: all gains positive
        g, source, guide = matching_graph(6, w_left=1.0, w_right=2.0)
        log = []
        out, _ = path_relink(g, source, guide, RelinkParams(), random.Random(0), log)
        assert len(log) == 1        # pos count 1 > c_p = 0.1 stops the walk
        assert log[0][0] > 0
        assert len(out.as_frozenset() ^ guide.as_frozenset()) == 2

    def test_negative_budget_allows_two_steps(self):
        # tiny negative steps: the f-rule stays quiet, c_n = 1.0 stops at 2
        g, source, guide = matching_graph(8, w_left=1000.0, w_right=999.9)
        log = []
        out, _ = path_relink(g, source, guide, RelinkParams(), random.Random(0), log)
        assert len(log) == 2        # neg count 2 > c_n = 1.0
        assert all(gain < 0 for gain, _ in log)
        assert len(out.as_frozenset() ^ guide.as_frozenset()) == 4
        # stop-rule postcondition: ratio >= f throughout here
        assert out.total_weight >= 0.9998 * guide.total_weight

    def test_budget_monotonicity_under_stagnation(self):
        g, source, guide = matching_graph(40, w_left=1000.0, w_right=999.9)
        steps = []
        params = RelinkParams()
        for k in range(6):
            log = []
            path_relink(g, source, guide, params, random.Random(0), log)
            steps.append(len(log))
            params.on_stagnation()
            params.on_stagnation()
        assert steps == sorted(steps)
        assert steps[-1] > steps[0]

    def test_weight_factor_truncates(self):
        # big negative steps: first step already drops below f
        g, source, guide = matching_graph(8, w_left=1000.0, w_right=1.0)
        log = []
        path_relink(g, source, guide, RelinkParams(), random.Random(0), log)
        assert len(log) == 1
        gain, w_after = log[0]
        assert w_after / guide.total_weight < 0.9998

    def test_fraction_budget_mode_scales_with_symdiff(self):
        g, source, guide = matching_graph(10, w_left=1000.0, w_right=999.9)
        log = []
        params = RelinkParams(budget_mode="fraction")
        path_relink(g, source, guide, params, random.Random(0), log)
        # c_n * |symdiff| = 1.0 * 20 -> never binds; walk reaches the source
        assert len(log) == 10

    def test_greedy_step_choice_maximizes_weight(self):
        # two pullable nodes; the lighter-blocker one must go first
        g = build_graph(4, [(0, 1), (2, 3)], [10.0, 4.0, 10.0, 9.0])
        guide = Solution(g, [1, 3])   # weight 13
        source = Solution(g, [0, 2])  # weight 20
        log = []
        out, _ = path_relink(g, source, guide, RelinkParams(), random.Random(0), log)
        # pulling 0 (gain +6) beats pulling 2 (gain +1); one positive step, stop
        assert log[0][0] == 6.0
        assert 0 in out.as_frozenset()

    def test_output_always_independent_and_maximal(self):
        rng = random.Random(1)
        for _ in range(40):
            g = random_graph(rng, 30, 0.15)
            a = make_maximal(g, Solution(g), rng)
            b = make_maximal(g, Solution(g), rng)
            out, _ = path_relink(g, a, b, RelinkParams(), rng)
            assert is_independent(g, out)
            flags = [v in out for v in range(g.n)]
            for v in range(g.n):
                if not flags[v]:
                    assert any(flags[u] for u in g.neighbors(v).tolist())

    def test_deterministic_under_fixed_seed(self):
        rng = random.Random(2)
        g = random_graph(rng, 30, 0.15)
        a = make_maximal(g, Solution(g), rng)
        b = make_maximal(g, Solution(g), rng)
        o1, _ = path_relink(g, a, b, RelinkParams(), random.Random(5))
        o2, _ = path_relink(g, a, b, RelinkParams(), random.Random(5))
        assert o1.as_frozenset() == o2.as_frozenset()

    def test_walk_can_reach_source_exactly(self):
        g, source, guide = matching_graph(3, w_left=5.0, w_right=5.0)
        params = RelinkParams(c_n0=100.0, c_p0=99.0, f0=1e-12)
        out, _ = path_relink(g, source, guide, params, random.Random(0))
        assert out.as_frozenset() == source.as_frozenset()


def reference_relink(g, source, guide, params, rng, step_log):
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
    scale = len(to_add) + len(to_drop) if params.budget_mode == "fraction" else 1.0
    n_limit = params.c_n * scale
    p_limit = params.c_p * scale
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
        if neg > n_limit or pos > p_limit:
            break
        if w_guide > 0 and s.total_weight / w_guide < params.f:
            break
    make_maximal(g, s, rng)
    return s


def independent_set(g, rng):
    """A random maximal independent set, with some members dropped half the time."""
    s = make_maximal(g, Solution(g), rng)
    if rng.random() < 0.5:
        for v in s.member_list():
            if rng.random() < 0.3:
                s.remove(v)
    return s


def reference_cases(seed, integer):
    """360 (graph, source, guide, params, walk seed) cases; weights are
    integers or multiples of 1/10."""
    rng = random.Random(seed)
    for i in range(360):
        n = rng.randint(6, 60)
        p = rng.choice([0.05, 0.15, 0.3])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        weights = [rng.randint(0, 30) for _ in range(n)]
        g = build_graph(n, edges, weights if integer else [x / 10 for x in weights])
        source, guide = independent_set(g, rng), independent_set(g, rng)
        params = RelinkParams(budget_mode=("absolute", "fraction")[i % 2])
        for _ in range((0, 3, 12)[i // 2 % 3]):
            params.on_stagnation()
        yield g, source, guide, params, rng.random()


def walk_both_ways(g, source, guide, params, seed):
    """(members, step log, random state) of path_relink, then of reference_relink."""
    runs = []
    for walk in (lambda *a: path_relink(*a)[0], reference_relink):
        log = []
        walk_rng = random.Random(seed)
        out = walk(g, source, guide, copy.copy(params), walk_rng, log)
        runs.append((out.member_list(), log, walk_rng.getstate()))
    return runs


class TestMatchesReference:
    def test_flag_walk_matches_set_walk(self):
        # a pull's gain is the running sum delta, so on fractional weights a
        # logged figure may differ from the reference's fresh sum in the last bit
        for case in reference_cases(31, integer=False):
            (members, log, state), (ref_members, ref_log, ref_state) = walk_both_ways(*case)
            assert members == ref_members and state == ref_state
            assert len(log) == len(ref_log)
            for got, want in zip(log, ref_log):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_flag_walk_matches_set_walk_exactly_on_integer_weights(self):
        for case in reference_cases(32, integer=True):
            runs = walk_both_ways(*case)
            assert runs[0] == runs[1]


class TestHandoff:
    @pytest.mark.parametrize("rows", [False, True])
    def test_returned_state_matches_a_rebuild(self, rows):
        with rows_forced(rows):
            for i, (g, source, guide, params, seed) in enumerate(reference_cases(33, integer=False)):
                if i == 120:
                    break
                out, st = path_relink(g, source, guide, params, random.Random(seed))
                assert (st.rows is not None) is rows
                assert not state_mismatches(st, g, out, check_pruning=True), f"case {i}"

    def test_local_search_runs_on_the_state_it_is_handed(self):
        rng = random.Random(34)
        engines = []
        for _ in range(10):
            g = random_graph(rng, 40, 0.1)
            walked, st = path_relink(g, make_maximal(g, Solution(g), rng),
                                     make_maximal(g, Solution(g), rng), RelinkParams(), rng)
            local_search(g, walked, rng=rng, state=st,
                         on_commit=lambda eng, _: engines.append((eng, walked, st)))
        assert engines, "no move committed"
        assert all(eng.s is s and eng.state is st for eng, s, st in engines)

    def test_one_build_and_no_make_maximal_per_iteration(self, monkeypatch):
        calls = []

        def count(module, name):
            inner = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        for module in ("mwis.relink", "mwis.local_search"):
            count(importlib.import_module(module), "build")
            count(importlib.import_module(module), "make_maximal")
        count(driver, "path_relink")
        g = random_graph(random.Random(35), 60, 0.1)
        run(g, RunConfig(time_limit=0.02, seed=1), clock=FakeClock())
        iterations = " ".join(calls).split("path_relink")[1:]
        assert len(iterations) > 2
        assert all(it.split() == ["build"] for it in iterations), calls


class TestParamsValidation:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            RelinkParams(f0=1.5)
        with pytest.raises(ValueError):
            RelinkParams(c_p0=2.0)  # would invert c_p < c_n
        with pytest.raises(ValueError):
            RelinkParams(budget_growth=0.5)
        with pytest.raises(ValueError):
            RelinkParams(budget_mode="bogus")
