"""Run orchestration: elite set, stagnation schedule, traces, summaries.

The main loop alternates randomized greedy construction, truncated path
relinking against a random elite solution, and local search, until the time
limit. The clock is injectable so that identical (config, seed) pairs can
reproduce byte-identical traces under a deterministic clock; the CLI uses
the real monotonic clock.
"""

from __future__ import annotations

import copy
import json
import logging
import random
import time
from dataclasses import dataclass, field

from .graph import Graph
from .greedy import GreedyConfig, build_initial, randomized_greedy
from .interstate import state_mismatches
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
    """Bounded store of locally optimal solutions with similarity eviction."""

    def __init__(self, capacity: int = 1):
        if capacity < 1:
            raise ValueError("elite capacity must be >= 1")
        self.capacity = capacity
        self.entries: list[tuple[Solution, frozenset[int]]] = []

    def __len__(self) -> int:
        return len(self.entries)

    def try_add_and_evict(self, s: Solution) -> bool:
        fs = s.as_frozenset()
        w = s.total_weight
        if len(self.entries) < self.capacity:
            if any(fs == efs for _, efs in self.entries):
                return False
            self.entries.append((s.copy(), fs))
            return True
        evictable = [(i, e, efs) for i, (e, efs) in enumerate(self.entries)
                     if e.total_weight <= w]
        if not evictable:
            return False
        i, _, _ = min(evictable, key=lambda t: (len(t[2] ^ fs), t[1].total_weight, t[0]))
        self.entries[i] = (s.copy(), fs)
        return True

    def random_entry(self, rng: random.Random) -> Solution:
        assert self.entries, "elite set is empty"
        return self.entries[rng.randrange(len(self.entries))][0]


@dataclass
class RunConfig:
    time_limit: float = 10.0
    seed: int = 0
    ls_before_relinking: bool = False
    elite_capacity: int = 1
    greedy: GreedyConfig = field(default_factory=GreedyConfig)
    ls_params: LocalSearchParams = field(default_factory=LocalSearchParams)
    relink_params: RelinkParams = field(default_factory=RelinkParams)
    check_interstate_every: int = 0  # debug: rebuild-compare every N committed moves

    def __post_init__(self):
        if self.time_limit <= 0:
            raise ValueError("time_limit must be > 0")
        if self.elite_capacity < 1:
            raise ValueError("elite_capacity must be >= 1")
        if self.check_interstate_every < 0:
            raise ValueError("check_interstate_every must be >= 0")


def _interstate_check(every: int):
    """on_commit hook that compares the engine's interstate structure with a
    rebuild after every `every`-th committed move of the run."""
    commits = 0

    def check(engine, out) -> None:
        nonlocal commits
        commits += 1
        if commits % every == 0:
            bad = state_mismatches(engine.state, engine.g, engine.s)
            if bad:
                raise AssertionError(f"interstate drift after {out.kind}: {bad[:4]}")
    return check


def run(g: Graph, config: RunConfig, clock=None,
        initial: Solution | None = None,
        relaxed: RelaxedSolution | None = None) -> tuple[Solution, list[TraceEvent]]:
    """Execute one solver run; returns (best solution, trace event stream).

    The relink schedule is adapted on a copy, so config is left as given and
    can be reused for an identical run.
    """
    clock = clock or time.monotonic
    rng = random.Random(config.seed)
    params = copy.copy(config.relink_params)
    trace: list[TraceEvent] = []
    t0 = clock()
    deadline_at = t0 + config.time_limit

    s = initial.copy() if initial is not None else build_initial(g, config.greedy, rng)
    best_w = s.total_weight

    def emit(event: str) -> None:
        trace.append(TraceEvent(elapsed=clock() - t0, best_weight=best_w, event=event))

    emit("init")
    every = config.check_interstate_every
    ls_kwargs = dict(deadline=deadline_at, clock=clock,
                     on_commit=_interstate_check(every) if every else None)

    # a fresh snapshot that nothing mutates; the elite set stores its own copy
    best = s = local_search(g, s, config.ls_params, rng, relaxed, **ls_kwargs)
    best_w = best.total_weight
    emit("local-search")
    es = EliteSet(config.elite_capacity)
    es.try_add_and_evict(s)

    while clock() < deadline_at:
        s_g = randomized_greedy(g, config.greedy, rng)
        if config.ls_before_relinking:
            s_g = local_search(g, s_g, config.ls_params, rng, relaxed, **ls_kwargs)
        s_e = es.random_entry(rng)
        s2, st = path_relink(g, s_g, s_e, params, rng)
        emit("relink")
        s2 = local_search(g, s2, config.ls_params, rng, relaxed, state=st, **ls_kwargs)
        del st  # no structure outlives its iteration
        w2 = s2.total_weight
        stagnated = w2 == best_w
        if stagnated:
            if log.isEnabledFor(logging.DEBUG):
                log.debug("stagnation at weight %r (equivalent=%s)", w2,
                          solutions_equivalent(g, s2, best))
            params.on_stagnation()
        else:
            params.reset()
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


def write_trace_csv(trace: list[TraceEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(trace_csv(trace))


def trace_csv(trace: list[TraceEvent]) -> str:
    lines = ["elapsed_s,best_weight,event"]
    for ev in trace:
        lines.append(f"{ev.elapsed!r},{ev.best_weight!r},{ev.event}")
    return "\n".join(lines) + "\n"


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


def summary_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"
