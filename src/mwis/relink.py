"""Adaptive truncated greedy path relinking.

The walk starts at the guide (elite) solution and moves toward the greedy
source, each step applying whichever candidate move — pull in a source node
and drop its blockers, or drop a non-source member and add freed source
neighbors — maximizes the resulting weight. It truncates when the weight
factor drops below f, or when more than c_n negative-gain / c_p positive-gain
steps have been taken (step applied first, then checked). Zero gain counts as
positive. The schedule (f, c_n, c_p) tightens multiplicatively on stagnation
and resets on any weight change.

The walk runs on the interstate structure of the guide's copy, built once
and updated by every flip: a pull gains delta(v), and a drop adds the source
nodes 1-tight to the dropped member. The walked solution is re-maximalized
with make_maximal's random draws and returned with its structure, which
local search then continues from instead of building its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graph import Graph
from .interstate import InterstateState, add_member, build, remove_member
from .solution import Solution
# no longer called here; perfbench/spans.py still wraps this name until the
# benchmark reads solver-owned statistics (ROADMAP item 1)
from .solution import make_maximal  # noqa: F401

F0 = 0.9998
CN0 = 1.0
CP0 = 0.1
F_DECAY = 0.9998
BUDGET_GROWTH = 1.5
BUDGET_MODES = ("absolute", "fraction")


@dataclass
class RelinkParams:
    f0: float = F0
    c_n0: float = CN0
    c_p0: float = CP0
    f_decay: float = F_DECAY
    budget_growth: float = BUDGET_GROWTH
    budget_mode: str = "absolute"  # or "fraction" of |source ^ guide|
    # the live schedule: starts at (f0, c_n0, c_p0), moved only by
    # on_stagnation and reset
    f: float = field(init=False)
    c_n: float = field(init=False)
    c_p: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.f0 <= 1.0:
            raise ValueError("need 0 < f0 <= 1")
        if self.c_p0 >= self.c_n0:
            raise ValueError("positive budget must stay below the negative budget")
        if self.budget_growth <= 1.0 or not 0.0 < self.f_decay <= 1.0:
            raise ValueError("bad schedule multipliers")
        if self.budget_mode not in BUDGET_MODES:
            raise ValueError(f"unknown budget mode {self.budget_mode!r}")
        self.f, self.c_n, self.c_p = self.f0, self.c_n0, self.c_p0

    def on_stagnation(self) -> None:
        self.f *= self.f_decay
        self.c_n *= self.budget_growth
        self.c_p *= self.budget_growth

    def reset(self) -> None:
        self.f = self.f0
        self.c_n = self.c_n0
        self.c_p = self.c_p0


def path_relink(g: Graph, source: Solution, guide: Solution,
                params: RelinkParams | None = None,
                rng: random.Random | None = None,
                step_log: list[tuple[float, float]] | None = None,
                ) -> tuple[Solution, InterstateState]:
    """Walk from `guide` toward `source`; return the truncation point and its
    interstate structure.

    Both inputs must be independent. The walk runs on a copy of the guide
    whose structure is built once; the result is re-maximalized, so the pair
    can go straight to local_search(..., state=...). If the two solutions are
    set-equal the walk takes no step. step_log, when given, receives one
    (gain, weight_after_step) entry per applied step.
    """
    params = params or RelinkParams()
    rng = rng or random.Random()
    s = guide.copy()
    st = build(g, s)
    src_flags = source._in_set
    cur_flags = s._in_set

    # a step flips only nodes of the initial symmetric difference, so the
    # candidates are the non-members of source \ guide (pulls) and the
    # members of guide \ source (drops), read through the current flags
    to_add = [v for v in source.members() if not cur_flags[v]]
    to_drop = [v for v in s.members() if not src_flags[v]]
    w, adj = g.w, g.adj
    delta, one_tight = st.delta, st.one_tight
    w_guide = guide.total_weight
    scale = len(to_add) + len(to_drop) if params.budget_mode == "fraction" else 1.0
    n_limit = params.c_n * scale
    p_limit = params.c_p * scale
    neg = pos = 0

    while True:
        # ties go to the first candidate: pulls before drops, each ascending.
        # A pull gains delta[v]. A drop frees exactly its 1-tight
        # neighbours, and those in the source are pairwise non-adjacent.
        best_gain = float("-inf")
        best_step = None  # (v, nodes a drop adds; None for a pull)
        for v in to_add:
            if not cur_flags[v] and delta[v] > best_gain:
                best_gain = delta[v]
                best_step = (v, None)
        for v in to_drop:
            if cur_flags[v]:
                added = sorted(u for u in one_tight.get(v, ()) if src_flags[u])
                gain = -w[v]
                for u in added:
                    gain += w[u]
                if gain > best_gain:
                    best_gain = gain
                    best_step = (v, added)
        if best_step is None:
            break  # the walk reached the source
        v, added = best_step
        if added is None:
            for x in adj[v]:
                if cur_flags[x]:
                    remove_member(st, g, s, x)
            add_member(st, g, s, v)
        else:
            remove_member(st, g, s, v)
            for u in added:
                add_member(st, g, s, u)
        if step_log is not None:
            step_log.append((best_gain, s.total_weight))
        if best_gain < 0:
            neg += 1
        else:
            pos += 1
        if neg > n_limit or pos > p_limit:
            break
        if w_guide > 0 and s.total_weight / w_guide < params.f:
            break

    # make_maximal's draws: the free nodes ascending, one shuffle, and an
    # insert while still free
    cand = sorted(st.free)
    rng.shuffle(cand)
    for v in cand:
        if st.rho[v] == 0:
            add_member(st, g, s, v)
    return s, st
