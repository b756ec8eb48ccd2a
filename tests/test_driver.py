from __future__ import annotations

import random

import pytest
from scipy import stats

from mwis import driver
from mwis.driver import EliteSet, RunConfig, run, summarize, trace_csv
from mwis.graph import build_graph
from mwis.lp_bias import load_relaxed
from mwis.oracle import exact_mwis
from mwis.relink import RelinkParams
from mwis.solution import InfeasibleSolutionError, Solution, is_independent, \
    load_solution

from conftest import FakeClock, graph_from, random_graph


class RecordingRelinkParams(RelinkParams):
    def __init__(self):
        super().__init__()
        self.events = []

    def on_stagnation(self):
        super().on_stagnation()
        self.events.append(("stagnate", self.f, self.c_n, self.c_p))

    def reset(self):
        super().reset()
        self.events.append(("reset", self.f, self.c_n, self.c_p))


def solution_of(g, members):
    return Solution(g, members)


class TestEliteSet:
    def test_capacity_one_evicts_lighter(self):
        g = graph_from(4, [], [10.0, 12.0, 9.0, 1.0])
        es = EliteSet(1)
        assert es.try_add_and_evict(solution_of(g, [0]))          # w=10
        assert es.try_add_and_evict(solution_of(g, [1]))          # w=12 evicts
        assert [e.total_weight for e in es.entries] == [12.0]
        assert not es.try_add_and_evict(solution_of(g, [2]))      # w=9 rejected
        assert [e.total_weight for e in es.entries] == [12.0]

    def test_duplicate_rejected_when_not_full(self):
        g = graph_from(3, [], [5.0, 6.0, 7.0])
        es = EliteSet(4)
        assert es.try_add_and_evict(solution_of(g, [0, 1]))
        assert not es.try_add_and_evict(solution_of(g, [0, 1]))
        assert len(es) == 1

    def test_full_set_evicts_most_similar_lighter_entry(self):
        g = graph_from(6, [], [4.0, 4.0, 4.0, 4.0, 4.0, 100.0])
        es = EliteSet(2)
        es.try_add_and_evict(solution_of(g, [0, 1]))        # w=8
        es.try_add_and_evict(solution_of(g, [2, 3]))        # w=8
        # candidate {0, 4}: similar to {0,1} (symdiff 2) vs {2,3} (symdiff 4)
        assert es.try_add_and_evict(solution_of(g, [0, 4]))
        sets = [e.as_frozenset() for e in es.entries]
        assert frozenset({0, 4}) in sets and frozenset({2, 3}) in sets

    def test_identical_entry_replaced_when_full(self):
        g = graph_from(3, [], [5.0, 6.0, 7.0])
        es = EliteSet(1)
        es.try_add_and_evict(solution_of(g, [1]))
        assert es.try_add_and_evict(solution_of(g, [1]))  # replaces itself
        assert len(es) == 1

    def test_random_entry_uniform(self):
        g = graph_from(8, [], [1.0] * 8)
        es = EliteSet(4)
        for i in range(4):
            es.try_add_and_evict(solution_of(g, [2 * i, 2 * i + 1]))
        rng = random.Random(3)
        counts = {}
        for _ in range(10_000):
            fs = es.random_entry(rng).as_frozenset()
            counts[fs] = counts.get(fs, 0) + 1
        _, p_value = stats.chisquare(list(counts.values()))
        assert len(counts) == 4
        assert p_value > 0.001

    def test_capacity_one_always_returns_single_entry(self):
        g = graph_from(2, [], [1.0, 2.0])
        es = EliteSet(1)
        es.try_add_and_evict(solution_of(g, [1]))
        rng = random.Random(0)
        assert all(es.random_entry(rng).as_frozenset() == {1} for _ in range(20))


class FrozensetEliteSet:
    """The elite set as it was, with a frozenset of each entry beside it."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []

    def try_add_and_evict(self, s):
        fs = s.as_frozenset()
        w = s.total_weight
        if len(self.entries) < self.capacity:
            if any(fs == efs for _, efs in self.entries):
                return False
            self.entries.append((s, fs))
            return True
        evictable = [(i, e, efs) for i, (e, efs) in enumerate(self.entries)
                     if e.total_weight <= w]
        if not evictable:
            return False
        i, _, _ = min(evictable, key=lambda t: (len(t[2] ^ fs), t[1].total_weight, t[0]))
        self.entries[i] = (s, fs)
        return True


class TestEliteSetMatchesFrozensetReference:
    def test_same_decisions_and_entries(self):
        # few nodes and few weight values, so that equal sets, equal weights
        # and equal distances all come up; every insert is a new object
        rng = random.Random(61)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(1, 7)
            g = graph_from(n, [], [float(rng.randint(1, rng.choice([1, 2, 4]))) for _ in range(n)])
            capacity = rng.randint(1, 4)
            es, ref = EliteSet(capacity), FrozensetEliteSet(capacity)
            for _ in range(rng.randint(1, 25)):
                s = Solution(g, [v for v in range(n) if rng.random() < 0.5])
                full = len(ref.entries) == capacity
                added = es.try_add_and_evict(s)
                assert added == ref.try_add_and_evict(s)
                assert len(es.entries) == len(ref.entries)
                assert all(a is b for a, (b, _) in zip(es.entries, ref.entries))
                outcomes.add((full, added))
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


class TestRun:
    def test_small_instance_reaches_oracle(self):
        for seed in range(5):
            g = random_graph(random.Random(seed), 12, 0.3)
            best, trace = run(g, RunConfig(time_limit=0.3, seed=seed))
            assert best.total_weight == exact_mwis(g).weight
            assert is_independent(g, best)

    def test_trace_monotone_and_final_matches(self):
        g = random_graph(random.Random(9), 16, 0.3)
        best, trace = run(g, RunConfig(time_limit=0.2, seed=1))
        weights = [ev.best_weight for ev in trace]
        assert weights == sorted(weights)
        assert trace[-1].event == "final"
        assert trace[-1].best_weight == best.total_weight
        assert trace[0].event == "init"

    def test_byte_identical_traces_under_fake_clock(self):
        g = random_graph(random.Random(10), 20, 0.25)
        cfg = lambda: RunConfig(time_limit=0.004, seed=11)
        a = trace_csv(run(g, cfg(), clock=FakeClock())[1])
        b = trace_csv(run(g, cfg(), clock=FakeClock())[1])
        assert a == b
        assert a.startswith("elapsed_s,best_weight,event\n")

    def test_reused_config_reproduces_run(self):
        # run adapts its relink schedule on a copy: a second run of the same
        # RunConfig object must repeat the first exactly
        rng = random.Random(21)
        for i in range(6):
            g = random_graph(rng, rng.randint(40, 80), rng.choice([0.05, 0.1]))
            cfg = RunConfig(time_limit=0.01, seed=i)
            runs = [run(g, cfg, clock=FakeClock()) for _ in range(2)]
            (best_a, trace_a), (best_b, trace_b) = runs
            assert trace_csv(trace_a) == trace_csv(trace_b)
            assert best_a.as_frozenset() == best_b.as_frozenset()
            assert cfg.relink_params == RelinkParams()

    def test_different_seeds_usually_differ(self):
        g = random_graph(random.Random(12), 30, 0.15)
        outs = {run(g, RunConfig(time_limit=0.004, seed=s),
                    clock=FakeClock())[0].as_frozenset() for s in range(6)}
        assert len(outs) >= 2

    def test_stagnation_schedule_grows_geometrically(self):
        # single-edge graph: the optimum is found instantly, every later
        # iteration stagnates at the same weight
        g = build_graph(2, [(0, 1)], [3.0, 7.0])
        params = RecordingRelinkParams()
        cfg = RunConfig(time_limit=0.005, seed=0, relink_params=params)
        best, trace = run(g, cfg, clock=FakeClock())
        assert best.total_weight == 7.0
        stagnations = [e for e in params.events if e[0] == "stagnate"]
        assert len(stagnations) >= 3
        for k, (_, f, cn, cp) in enumerate(stagnations, start=1):
            assert cn == pytest.approx(1.5 ** k, rel=1e-12)
            assert cp == pytest.approx(0.1 * 1.5 ** k, rel=1e-12)
        assert sum(1 for ev in trace if ev.event == "stagnate") == len(stagnations)

    def test_improvement_resets_schedule(self):
        g = random_graph(random.Random(14), 24, 0.2)
        params = RecordingRelinkParams()
        run(g, RunConfig(time_limit=0.004, seed=2, relink_params=params),
            clock=FakeClock())
        kinds = [e[0] for e in params.events]
        if "reset" in kinds:
            i = kinds.index("reset")
            assert params.events[i][1:] == (0.9998, 1.0, 0.1)

    def test_initial_solution_respected(self, tmp_path):
        g = build_graph(3, [(0, 1), (1, 2)], [3.0, 5.0, 3.0])
        p = tmp_path / "init.txt"
        p.write_text("1\n")
        initial = load_solution(str(p), g)
        best, trace = run(g, RunConfig(time_limit=0.002, seed=0), clock=FakeClock(),
                          initial=initial)
        assert best.total_weight == 6.0  # escapes the {1} local start
        assert initial.as_frozenset() == {1}  # the caller's solution is untouched

    def test_infeasible_initial_raises_before_solving(self, tmp_path):
        # the initial solution is loaded (and rejected) before run is called
        g = build_graph(3, [(0, 1), (1, 2)], [3.0, 5.0, 3.0])
        p = tmp_path / "bad.txt"
        p.write_text("0\n1\n")
        with pytest.raises(InfeasibleSolutionError):
            load_solution(str(p), g)

    def test_relaxed_bias_path(self, tmp_path):
        g = random_graph(random.Random(15), 14, 0.3)
        p = tmp_path / "rs.txt"
        p.write_text("\n".join("0.5" for _ in range(g.n)))
        best, _ = run(g, RunConfig(time_limit=0.2, seed=3),
                      relaxed=load_relaxed(str(p), g))
        assert best.total_weight == exact_mwis(g).weight

    def test_elite_entries_are_star_one_optimal(self):
        g = random_graph(random.Random(16), 20, 0.25)
        best, _ = run(g, RunConfig(time_limit=0.1, seed=4))
        for u in range(g.n):
            if u not in best:
                blocked = sum(g.node_weight(x)
                              for x in g.neighbors(u).tolist() if x in best)
                assert g.node_weight(u) - blocked <= 1e-9

    def test_wall_clock_overrun_bounded(self):
        import time as _time

        g = random_graph(random.Random(17), 40, 0.15)
        t0 = _time.monotonic()
        run(g, RunConfig(time_limit=0.2, seed=5))
        # generous bound: small instances finish procedures in microseconds
        assert _time.monotonic() - t0 < 5.0

    def test_interstate_check_every_n_commits(self, monkeypatch):
        g = random_graph(random.Random(19), 30, 0.2)

        def checked_run(every):
            cfg = RunConfig(time_limit=0.004, seed=7, check_interstate_every=every)
            return trace_csv(run(g, cfg, clock=FakeClock())[1])

        plain = checked_run(0)
        assert checked_run(1) == plain  # the real check passes and changes nothing

        calls = []

        def no_drift(st):
            calls.append(st.s.total_weight)
            return []

        monkeypatch.setattr(driver, "state_mismatches", no_drift)
        assert checked_run(0) == plain and not calls  # off: never called
        checked_run(1)
        commits = len(calls)
        assert commits > 3
        calls.clear()
        checked_run(3)
        assert len(calls) == commits // 3

        monkeypatch.setattr(driver, "state_mismatches",
                            lambda st: ["rho[0]=9 expected 0"])
        with pytest.raises(AssertionError, match="interstate drift"):
            checked_run(1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(time_limit=0.0)
        with pytest.raises(ValueError):
            EliteSet(0)
        # caught when the config is built, before any search runs
        for bad in (dict(elite_capacity=0), dict(elite_capacity=-2),
                    dict(check_interstate_every=-1)):
            with pytest.raises(ValueError):
                RunConfig(**bad)
        RunConfig(elite_capacity=1, check_interstate_every=0)


class TestSummary:
    def test_w_at_fractions_match_trace(self):
        g = random_graph(random.Random(18), 16, 0.3)
        cfg = RunConfig(time_limit=0.1, seed=6)
        best, trace = run(g, cfg, clock=FakeClock(tick=0.0005))
        summ = summarize(g, cfg, best, trace)
        assert summ["schema"] == 1
        assert summ["best_weight"] == best.total_weight
        for key, frac in (("w_at_10pct", 0.1), ("w_at_50pct", 0.5)):
            expect = None
            for ev in trace:
                if ev.elapsed <= frac * cfg.time_limit:
                    expect = ev.best_weight
            assert summ[key] == expect
        assert summ["n"] == g.n and summ["m"] == g.m


class TestLargerOracleAgreement:
    def test_driver_matches_oracle_up_to_n20(self):
        rng = random.Random(99)
        for i in range(10):
            n = rng.randint(17, 20)
            g = random_graph(rng, n, rng.choice([0.2, 0.4]))
            best, _ = run(g, RunConfig(time_limit=0.3, seed=i))
            assert best.total_weight == exact_mwis(g).weight

