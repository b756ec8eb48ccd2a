"""Adaptive truncated greedy path relinking.

The walked solution, the paper's S'*, starts at the guide S* and moves toward
the greedy source S_G; the paper's S'_G is not kept, so the walk is one-sided.
Each step applies whichever candidate move — pull in a source node and drop
its blockers (the paper's greedy choice), or drop a non-source member and add
freed source neighbors — maximizes the resulting weight. It truncates when the
weight factor drops below f, or after more than c_n negative-gain or c_p
positive-gain steps, whatever the size of the symmetric difference (step
applied first, then checked; zero gain counts as positive). The run keeps the
limits (f, c_n, c_p): it starts them at RelinkParams.start, tightens them on
stagnation and restarts them on any weight change.

The walk runs on the interstate structure it is handed, retargeted to the
guide and updated by every flip: a pull gains delta(v), and a drop adds the
source nodes 1-tight to the dropped member. The walked solution is
re-maximalized by interstate.make_maximal, and local search then continues on
that structure, whose queues re-arm only what retarget and the walk changed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from operator import ne

from .interstate import InterstateState, add_member, make_maximal, remove_member, retarget
from .solution import Solution


@dataclass(frozen=True)
class RelinkParams:
    f0: float = 0.9998
    c_n0: float = 1.0
    c_p0: float = 0.1
    f_decay: float = 0.9998
    budget_growth: float = 1.5

    def __post_init__(self):
        if not 0.0 < self.f0 <= 1.0:  # each check fails NaN
            raise ValueError("need 0 < f0 <= 1")
        if not self.c_p0 < self.c_n0:
            raise ValueError("positive budget must stay below the negative budget")
        if not 1.0 < self.budget_growth < float("inf") or not 0.0 < self.f_decay <= 1.0:
            raise ValueError("bad schedule multipliers")

    @property
    def start(self) -> tuple[float, float, float]:
        return self.f0, self.c_n0, self.c_p0

    def tightened(self, limits: tuple[float, float, float]) -> tuple[float, float, float]:
        """The limits after one more stagnation, as iterated products."""
        f, c_n, c_p = limits
        return f * self.f_decay, c_n * self.budget_growth, c_p * self.budget_growth


def path_relink(st: InterstateState, source: Solution, guide: Solution,
                limits: tuple[float, float, float], rng: random.Random,
                step_log: list[tuple[float, float]] | None = None) -> None:
    """Retarget st to `guide` and walk it toward `source`, in place, to the
    truncation point.

    Both inputs must be independent. The walked solution st.s is
    re-maximalized, so st can go straight to local_search. If the two
    solutions are set-equal the walk takes no step. limits is (f, c_n, c_p).
    step_log gets one (gain, weight_after_step) per step.
    """
    retarget(st, guide)
    g, s = st.g, st.s
    src_flags = source._in_set
    cur_flags = s._in_set

    # a step flips only nodes of the initial symmetric difference, so the
    # candidates are the non-members of source \ guide (pulls) and the
    # members of guide \ source (drops), read through the current flags
    diff = list(compress(range(g.n), map(ne, src_flags, cur_flags)))
    to_add = [v for v in diff if src_flags[v]]
    to_drop = [v for v in diff if not src_flags[v]]
    w, adj = g.w, g.adj
    delta, one_tight = st.delta, st.one_tight
    w_guide = guide.total_weight
    f, c_n, c_p = limits
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
                added = sorted(u for u in one_tight[v] if src_flags[u]) if v in one_tight else []
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
                    remove_member(st, x)
            add_member(st, v)
        else:
            remove_member(st, v)
            for u in added:
                add_member(st, u)
        if step_log is not None:
            step_log.append((best_gain, s.total_weight))
        if best_gain < 0:
            neg += 1
        else:
            pos += 1
        if neg > c_n or pos > c_p:
            break
        if w_guide > 0 and s.total_weight / w_guide < f:
            break

    make_maximal(st, rng)
