from __future__ import annotations

import gc
import importlib
import random

import numpy as np
import pytest

from mwis import driver
from mwis.driver import EliteSet, RunConfig, run, summarize, trace_csv
from mwis.generate import random_gnp
from mwis.graph import build_graph
from mwis.lp_bias import load_relaxed, make_relaxed
from mwis.oracle import exact_mwis
from mwis.relink import RelinkParams
from mwis.solution import InfeasibleSolutionError, Solution, is_independent, \
    load_solution

from conftest import FakeClock, graph_from, random_graph, rows_forced


def record_limits(monkeypatch) -> list:
    """The limits each path_relink call of a run receives, in call order."""
    calls = []
    inner = driver.path_relink

    def recording(st, source, guide, limits, *args, **kwargs):
        calls.append(limits)
        return inner(st, source, guide, limits, *args, **kwargs)
    monkeypatch.setattr(driver, "path_relink", recording)
    return calls


def iteration_stagnated(trace) -> list[bool]:
    """Per main-loop iteration, whether it ended in a stagnation."""
    out = []
    for ev in trace:
        if ev.event == "relink":
            out.append(False)
        elif ev.event == "stagnate":
            out[-1] = True
    return out


def solution_of(g, members):
    return Solution(g, members)


class TestEliteSet:
    def test_capacity_one_evicts_lighter(self):
        g = graph_from(4, [], [10.0, 12.0, 9.0, 1.0])
        es = EliteSet()
        assert es.try_add_and_evict(solution_of(g, [0]))          # w=10
        assert es.try_add_and_evict(solution_of(g, [1]))          # w=12 evicts
        assert es.entry.total_weight == 12.0
        assert not es.try_add_and_evict(solution_of(g, [2]))      # w=9 rejected
        assert es.entry.total_weight == 12.0

    def test_identical_entry_replaced_when_full(self):
        g = graph_from(4, [], [5.0, 6.0, 7.0, 6.0])
        es = EliteSet()
        es.try_add_and_evict(solution_of(g, [1]))
        newer = solution_of(g, [1])
        assert es.try_add_and_evict(newer)  # replaces itself
        assert es.entry is newer
        tie = solution_of(g, [3])  # another set of the same weight
        assert es.try_add_and_evict(tie)
        assert es.entry is tie

    def test_capacity_one_always_returns_single_entry(self):
        g = graph_from(2, [], [1.0, 2.0])
        es = EliteSet()
        s = solution_of(g, [1])
        es.try_add_and_evict(s)
        for _ in range(20):
            assert es.random_entry() is s


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

    def test_empty_graph_runs_to_the_empty_set(self):
        best, trace = run(build_graph(0, [], []), RunConfig(time_limit=0.05, seed=1))
        assert best.total_weight == 0.0 and best.member_list() == []
        assert trace[-1].event == "final" and trace[-1].best_weight == 0.0

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

    def test_stagnation_schedule_grows_geometrically(self, monkeypatch):
        # single-edge graph: the optimum is found instantly, every later
        # iteration stagnates at the same weight
        g = build_graph(2, [(0, 1)], [3.0, 7.0])
        calls = record_limits(monkeypatch)
        best, trace = run(g, RunConfig(time_limit=0.005, seed=0), clock=FakeClock())
        assert best.total_weight == 7.0
        assert len(calls) >= 3
        assert iteration_stagnated(trace) == [True] * len(calls)
        # the k-th walk gets the start tightened k-1 times: iterated products
        f, c_n, c_p = 0.9998, 1.0, 0.1
        for limits in calls:
            assert limits == (f, c_n, c_p)
            f, c_n, c_p = f * 0.9998, c_n * 1.5, c_p * 1.5

    def test_improvement_resets_schedule(self, monkeypatch):
        # a graph and seed on which two weight changes follow stagnations
        g = random_graph(random.Random(11), 60, 0.1)
        calls = record_limits(monkeypatch)
        _, trace = run(g, RunConfig(time_limit=0.02, seed=2), clock=FakeClock())
        stagnated = iteration_stagnated(trace)
        p = RelinkParams()
        assert calls[0] == p.start
        restarts = 0
        for limits, nxt, stuck in zip(calls, calls[1:], stagnated):
            assert nxt == (p.tightened(limits) if stuck else p.start)
            restarts += not stuck and limits != p.start
        assert restarts == 2

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

    def test_initial_for_another_graph_refused(self):
        g = random_gnp(30, 0.2, 1)
        h = build_graph(30, [], [1000.0] * 30)
        with pytest.raises(ValueError, match="another graph"):
            run(g, RunConfig(time_limit=0.2, seed=1), initial=Solution(h, [0]))

    def test_relaxed_of_another_length_refused(self):
        g = random_gnp(30, 0.2, 1)
        with pytest.raises(ValueError, match="10 values for n=30"):
            run(g, RunConfig(time_limit=0.2, seed=1), relaxed=make_relaxed(np.ones(10)))

    def test_elite_entries_are_star_one_optimal(self):
        g = random_graph(random.Random(16), 20, 0.25)
        best, _ = run(g, RunConfig(time_limit=0.1, seed=4))
        for u in range(g.n):
            if u not in best:
                blocked = sum(g.node_weight(x)
                              for x in g.neighbors(u).tolist() if x in best)
                assert g.node_weight(u) - blocked <= 1e-9

    def test_each_walk_is_guided_by_the_latest_best_local_optimum(self, monkeypatch):
        # the guide S* is the latest local optimum of the best weight found
        # so far: the very object local_search returned, not a copy
        outputs, walks = [], []
        search, relink = driver.local_search, driver.path_relink

        def recorded_search(*args, **kwargs):
            out = search(*args, **kwargs)
            outputs.append(out)
            return out

        def recorded_relink(st, source, guide, *args, **kwargs):
            walks.append((guide, list(outputs)))
            relink(st, source, guide, *args, **kwargs)

        monkeypatch.setattr(driver, "local_search", recorded_search)
        monkeypatch.setattr(driver, "path_relink", recorded_relink)
        rng = random.Random(23)
        replaced_on_tie = improved = 0
        for seed in range(6):
            outputs.clear()
            walks.clear()
            g = random_graph(rng, 80, 0.1, max_w=10)
            run(g, RunConfig(time_limit=0.01, seed=seed), clock=FakeClock())
            assert len(walks) > 3
            for guide, before in walks:
                best_w = max(out.total_weight for out in before)
                of_best = [out for out in before if out.total_weight == best_w]
                assert guide is of_best[-1]
                replaced_on_tie += guide is not of_best[0]
                improved += of_best[0] is not before[0]
        assert replaced_on_tie and improved

    def test_start_is_adaptive_greedy_looked_up_on_its_module(self, monkeypatch):
        # the package attribute mwis.greedy is the function greedy, so the
        # module comes from importlib; the benchmark wraps the name there
        greedy_module = importlib.import_module("mwis.greedy")
        inner, starts = greedy_module.adaptive_greedy, []
        monkeypatch.setattr(greedy_module, "adaptive_greedy",
                            lambda g: starts.append(g) or inner(g))
        g = random_graph(random.Random(24), 20, 0.2)
        run(g, RunConfig(time_limit=0.002, seed=0), clock=FakeClock())
        assert starts == [g]
        run(g, RunConfig(time_limit=0.002, seed=0), clock=FakeClock(),
            initial=Solution(g))
        assert starts == [g]  # a given start builds no greedy solution

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
        # caught when the config is built, before any search runs
        with pytest.raises(ValueError):
            RunConfig(check_interstate_every=-1)
        RunConfig(check_interstate_every=0)


class TestCollectorPause:
    """run pauses the process-wide cyclic collector for a solve, which is safe
    only while a solve builds no reference cycles."""

    @pytest.mark.parametrize("dense", [False, True])
    def test_run_leaves_no_cyclic_garbage(self, dense, monkeypatch):
        search_module = importlib.import_module("mwis.local_search")
        exact, pools = search_module.max_weight_subset, []
        monkeypatch.setattr(search_module, "max_weight_subset",
                            lambda w, masks: pools.append(len(w)) or exact(w, masks))
        g = random_graph(random.Random(31), 60, 0.15)
        relaxed = make_relaxed(np.random.default_rng(31).random(g.n))
        initial = Solution(g, [0])
        cfg = RunConfig(time_limit=0.004, seed=8, check_interstate_every=5)
        gc.collect()
        was_on = gc.isenabled()
        gc.disable()  # so that no collection during the solve hides a cycle
        try:
            with rows_forced(dense):
                best, _ = run(g, cfg, clock=FakeClock(), initial=initial,
                              relaxed=relaxed)
            found = gc.collect()
        finally:
            if was_on:
                gc.enable()
        assert pools  # the (1,*) move's exact subset ran
        assert is_independent(g, best)
        assert found == 0

    @pytest.mark.parametrize("was_on", [True, False])
    def test_collector_setting_restored(self, was_on):
        g = random_graph(random.Random(32), 20, 0.2)
        seen = []

        def clock():
            seen.append(gc.isenabled())
            return len(seen) * 1e-6

        (gc.enable if was_on else gc.disable)()
        try:
            run(g, RunConfig(time_limit=0.001, seed=1), clock=clock)
            assert gc.isenabled() is was_on
        finally:
            gc.enable()
        assert seen and not any(seen)  # paused from the first clock read on

    def test_collector_restored_after_an_exception_in_the_solve(self):
        g = random_graph(random.Random(33), 20, 0.2)
        calls = []

        def failing_clock():
            calls.append(None)
            if len(calls) == 5:
                raise RuntimeError("clock failed")
            return len(calls) * 1e-6

        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="clock failed"):
            run(g, RunConfig(time_limit=0.001, seed=1), clock=failing_clock)
        assert gc.isenabled()


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

