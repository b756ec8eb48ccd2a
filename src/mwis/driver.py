"""Run orchestration: relinking guide, stagnation schedule, traces, summaries.

From the initial solution, given or adaptive greedy, the main loop alternates
truncated path relinking from S* (the latest local optimum of the best weight
so far) toward a fresh randomized greedy source and local search on one
interstate structure, kept for the run, until the time limit. The clock is
injectable so that identical (config, seed) pairs reproduce byte-identical
traces under a deterministic clock; the CLI uses the real monotonic clock.
"""

from __future__ import annotations

import csv
import gc
import logging
import math
import operator
import random
import time
from dataclasses import dataclass, field

from . import greedy
from .graph import Graph
from .greedy import GreedyConfig, GreedySource, randomized_greedy  # noqa: F401 (randomized_greedy: perfbench wraps it)
from .interstate import build, make_maximal, state_mismatches
from .local_search import LocalSearchParams, local_search
from .lp_bias import RelaxedSolution
from .relink import RelinkParams, path_relink
from .solution import Solution, solutions_equivalent

log = logging.getLogger(__name__)


@dataclass
class TraceEvent:
    elapsed: float
    best_weight: float
    event: str  # init | local-search | relink | improve | stagnate | final


class EliteSet:
    """Holds S*, the relinking guide: the latest local optimum of the best
    weight found so far. perfbench wraps both methods by name."""

    def __init__(self):
        self.entry: Solution | None = None

    def try_add_and_evict(self, s: Solution) -> bool:
        """Store s itself, not a copy, unless it is lighter than the entry."""
        if self.entry is not None and s.total_weight < self.entry.total_weight:
            return False
        self.entry = s
        return True

    def random_entry(self) -> Solution:
        return self.entry


@dataclass
class RunConfig:
    time_limit: float = 10.0
    seed: int = 0
    greedy: GreedyConfig = field(default_factory=GreedyConfig)
    ls_params: LocalSearchParams = field(default_factory=LocalSearchParams)
    relink_params: RelinkParams = field(default_factory=RelinkParams)
    check_interstate_every: int = 0  # debug: rebuild-compare every N committed moves
    max_iterations: int | None = None  # stop after this many relink iterations; None: off

    def __post_init__(self):
        if not 0 < self.time_limit < math.inf:  # each check fails NaN
            raise ValueError("time_limit must be finite and > 0")
        every = self.check_interstate_every
        if not (hasattr(every, "__index__") and every >= 0):
            raise ValueError("check_interstate_every must be an integer >= 0")
        cap = self.max_iterations
        if cap is not None and not (hasattr(cap, "__index__") and cap >= 1):
            raise ValueError("max_iterations must be an integer >= 1 or None")
        if not hasattr(self.seed, "__index__"):  # random.Random hashes a float; NaN's hash varies
            raise ValueError("seed must be an integer")
        self.seed = operator.index(self.seed)  # a plain int: random.Random refuses numpy's


def _interstate_check(every: int):
    """on_commit hook that compares the engine's interstate structure with a
    rebuild after every `every`-th committed move of the run."""
    commits = 0

    def check(engine, out) -> None:
        nonlocal commits
        commits += 1
        if commits % every == 0:
            bad = state_mismatches(engine.state)
            if bad:
                raise AssertionError(f"interstate drift after {out.kind}: {bad[:4]}")
    return check


def run(g: Graph, config: RunConfig, clock=None,
        initial: Solution | None = None,
        relaxed: RelaxedSolution | None = None) -> tuple[Solution, list[TraceEvent]]:
    """Execute one solver run; returns (best solution, trace event stream).

    The relink limits are a local of the run, so config is left as given and
    can be reused for an identical run. initial and relaxed must be for g.

    The solve pauses the process-wide cyclic collector, which would re-scan
    the start's fresh lists, and restores its setting on every exit. A solve
    builds no reference cycles (TestCollectorPause), so only other threads'
    cyclic garbage waits. local_search and path_relink leave it to the caller.
    """
    if initial is not None and initial.graph is not g:
        raise ValueError("initial solution is for another graph")
    if relaxed is not None and len(relaxed.x) != g.n:
        raise ValueError(f"relaxed solution has {len(relaxed.x)} values for n={g.n}")
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        clock = clock or time.monotonic
        rng = random.Random(config.seed)
        rp = config.relink_params
        limits = rp.start
        trace: list[TraceEvent] = []
        t0 = clock()
        deadline_at = t0 + config.time_limit

        # looked up on the module at call time, where perfbench wraps it
        s = initial.copy() if initial is not None else greedy.adaptive_greedy(g)
        best_w = s.total_weight

        def emit(event: str) -> None:
            trace.append(TraceEvent(elapsed=clock() - t0, best_weight=best_w, event=event))

        emit("init")
        every = config.check_interstate_every
        ls_kwargs = dict(deadline=deadline_at, clock=clock,
                         on_commit=_interstate_check(every) if every else None)

        # the run's one search state, made as local_search makes one
        st = build(g, s)
        make_maximal(st, rng)
        # a fresh snapshot that nothing mutates, so S* can be it
        best = local_search(st, config.ls_params, rng, relaxed, **ls_kwargs)
        best_w = best.total_weight
        emit("local-search")
        es = EliteSet()
        es.try_add_and_evict(best)

        iterations, cap = 0, config.max_iterations
        while clock() < deadline_at and (cap is None or iterations < cap):
            iterations += 1
            s_g = GreedySource(g, config.greedy, rng)
            s_e = es.random_entry()
            path_relink(st, s_g, s_e, limits, rng)
            emit("relink")
            s2 = local_search(st, config.ls_params, rng, relaxed, **ls_kwargs)
            w2 = s2.total_weight
            stagnated = w2 == best_w
            if stagnated and log.isEnabledFor(logging.DEBUG):
                log.debug("stagnation at weight %r (equivalent=%s)", w2,
                          solutions_equivalent(g, s2, best))
            limits = rp.tightened(limits) if stagnated else rp.start
            improved = w2 > best_w
            if improved:
                best = s2
                best_w = w2
            emit("local-search")
            if improved:
                emit("improve")
            elif stagnated:
                emit("stagnate")
            es.try_add_and_evict(s2)

        emit("final")
        return best, trace
    finally:
        if gc_was_on:
            gc.enable()


def write_trace(trace: list[TraceEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(trace_csv(trace))


def trace_csv(trace: list[TraceEvent]) -> str:
    lines = ["elapsed_s,best_weight,event"]
    for ev in trace:
        lines.append(f"{ev.elapsed!r},{ev.best_weight!r},{ev.event}")
    return "\n".join(lines) + "\n"


def read_trace(path: str) -> list[tuple[float, float]]:
    """The (elapsed_s, best_weight) rows, all finite, of a trace CSV."""
    rows = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if not {"elapsed_s", "best_weight", "event"} <= set(reader.fieldnames or ()):
            raise ValueError(f"{path}: not a trace CSV (expected elapsed_s,best_weight,event)")
        for row in reader:
            try:
                rows.append((float(row["elapsed_s"]), float(row["best_weight"])))
                if not all(map(math.isfinite, rows[-1])):
                    raise ValueError(f"not a finite number: {rows[-1]}")
            except (TypeError, ValueError) as e:  # TypeError: a short row
                raise ValueError(f"{path}:{reader.line_num}: {e}") from None
    if not rows:
        raise ValueError(f"empty trace {path}")
    return rows


def _value_at(trace: list[TraceEvent], t: float) -> float | None:
    last = None
    for ev in trace:
        if ev.elapsed <= t:
            last = ev.best_weight
    return last


def summarize(g: Graph, config: RunConfig, best: Solution,
              trace: list[TraceEvent]) -> dict:
    return {
        "schema": 1,
        "best_weight": best.total_weight,
        "n": g.n,
        "m": g.m,
        "seed": config.seed,
        "time_limit": config.time_limit,
        "w_at_10pct": _value_at(trace, 0.1 * config.time_limit),
        "w_at_50pct": _value_at(trace, 0.5 * config.time_limit),
        "t_star_definition_note": (
            "t* is a cross-run statistic: the earliest time the best run reaches "
            "the worst final value over all compared runs; compute it with the "
            "'report' subcommand over several trace files."),
    }
