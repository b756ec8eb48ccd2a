"""Adaptive truncated greedy path relinking.

The walked solution, the paper's S'*, starts at the guide S* and moves toward
the greedy source S_G; the paper's S'_G is not kept, so the walk is one-sided.
Each step is the paper's greedy choice: pull in the node of S_G - S'* that
maximizes the resulting weight and drop its neighbors. It truncates when the
weight factor drops below f, or after more than c_n negative-gain or c_p
positive-gain steps, whatever the size of the symmetric difference (step
applied first, then checked; zero gain counts as positive). The run keeps the
limits (f, c_n, c_p): it starts them at RelinkParams.start, tightens them on
stagnation and restarts them on any weight change.

The walk runs on the interstate structure it is handed, retargeted to the
guide; local search continues on it after interstate.make_maximal, its
queues re-armed only where retarget and the walk changed pools. The source
is asked node by node: the run's S_G (greedy.GreedySource) exists only as
its answers. A step removes only non-source nodes and adds one source node,
so the candidates are always the non-members in the source, each gaining
delta(v). A step pulls the first argmax of a copy of the structure's delta
(ties to the lower ID) if the source holds it, else masks it to -inf and
looks again; members carry -inf, so a -inf maximum ends the walk. S_G is
fixed, so only a step that changes a refused node's delta unmasks it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

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


def path_relink(st: InterstateState, source, guide: Solution,
                limits: tuple[float, float, float], rng: random.Random,
                step_log: list[tuple[float, float]] | None = None) -> None:
    """Retarget st to `guide` and walk it toward `source`, in place, to the
    truncation point.

    Both inputs must be independent; source is asked node by node, `v in
    source`, in descending delta until one answers yes. The walked solution
    st.s is re-maximalized, so st can go straight to local_search. If source
    holds no non-member the walk takes no step. limits is (f, c_n, c_p).
    step_log gets one (gain, weight_after_step) per step.
    """
    retarget(st, guide)
    g, s = st.g, st.s
    cur_flags, adj = s._in_set, g.adj
    delta = st.delta
    w_guide = guide.total_weight
    f, c_n, c_p = limits
    neg = pos = 0
    # delta, -inf at members and at refused nodes; patched after each step
    # at its flipped nodes and their neighbours
    rank = np.fromiter(delta, float, g.n)
    while g.n:  # argmax of an empty array raises
        # the winner is the non-member in the source with the highest delta,
        # ties to the lower ID
        v = int(rank.argmax())
        if rank[v] == -np.inf:
            break  # no non-member is left to ask
        if v not in source:
            rank[v] = -np.inf
            continue
        gain = delta[v]
        removed = [x for x in adj[v] if cur_flags[x]]
        for x in removed:
            remove_member(st, x)
        add_member(st, v)
        near = [v, *adj[v]] + [y for x in removed for y in adj[x]]
        rank[near] = [delta[y] for y in near]
        if step_log is not None:
            step_log.append((gain, s.total_weight))
        if gain < 0:
            neg += 1
        else:
            pos += 1
        if neg > c_n or pos > c_p:
            break
        if w_guide > 0 and s.total_weight / w_guide < f:
            break

    make_maximal(st, rng)
