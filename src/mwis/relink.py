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
guide; local search continues on it after interstate.make_maximal, its
queues re-armed only where retarget and the walk changed pools. The source
is asked node by node: the run's S_G (greedy.GreedySource) exists only as
its answers. A step removes only non-source nodes and adds only source
nodes, so the pulls are always the non-members in the source, gaining
delta(v), and the drops the members outside it, gaining at most their
1-tight pool's weight less their own, plus a rounding slack. Each step asks
the source only about the nodes whose bound can still win.
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


def _descending(bound: np.ndarray, k: int = 64):
    """(i, bound[i]) by descending bound, then i: the top k, then all again."""
    if len(bound) > k:
        top = np.argpartition(-bound, k)[:k]
        top = top[np.lexsort((top, -bound[top]))]
        yield from zip(top.tolist(), bound[top].tolist())
    order = np.argsort(-bound, kind="stable")
    yield from zip(order.tolist(), bound[order].tolist())


def path_relink(st: InterstateState, source, guide: Solution,
                limits: tuple[float, float, float], rng: random.Random,
                step_log: list[tuple[float, float]] | None = None) -> None:
    """Retarget st to `guide` and walk it toward `source`, in place, to the
    truncation point.

    Both inputs must be independent; source is asked node by node, `v in
    source`, and only about candidates that can still win a step. The
    walked solution st.s is re-maximalized, so st can go straight to
    local_search. If the two sets are equal the walk takes no step. limits
    is (f, c_n, c_p). step_log gets one (gain, weight_after_step) per step.
    """
    retarget(st, guide)
    g, s = st.g, st.s
    n, cur_flags = g.n, s._in_set
    w, adj, weights = g.w, g.adj, g.weights
    delta, one_tight = st.delta, st.one_tight
    # a drop's gain and its pool's sum less w[v] each round off by at most
    # about k * 2**-53 * (pool + w[v]), for a pool of k < n nodes
    slack = (n + 4) * 2.0 ** -50
    w_guide = guide.total_weight
    f, c_n, c_p = limits
    neg = pos = 0
    # patched after each step at its flipped nodes and their neighbours
    member = np.frombuffer(bytearray(cur_flags), bool)  # twice fromiter's speed
    gain0 = np.fromiter(delta, float, n)
    owner = np.fromiter(st.owner, np.int64, n)
    while True:
        # the winner has the highest gain; ties go to pulls, then to the
        # lower ID. Pulls gain delta[v] and drops at most their bound, so
        # candidates are visited in descending bound until none can win
        pool = np.bincount(owner + 1, weights, minlength=n + 1)[1:]  # bin 0: no owner
        bound = np.where(member, pool - weights + (pool + weights) * slack, gain0)
        best_gain, best_key, best_step = float("-inf"), (2, 0), None  # (removals, additions)
        for v, b in _descending(bound):
            if b < best_gain:
                break
            drop = cur_flags[v]
            key = (drop, v)
            # skip a node that can at best lose a tie, or is no candidate
            if b == best_gain and key > best_key or drop == (v in source):
                continue
            if drop:
                added = sorted(u for u in one_tight.get(v, ()) if u in source)
                gain, step = -w[v], ([v], added)
                for u in added:
                    gain += w[u]
            else:
                gain, step = delta[v], ([x for x in adj[v] if cur_flags[x]], [v])
            if gain > best_gain or gain == best_gain and key < best_key:
                best_gain, best_key, best_step = gain, key, step
        if best_step is None:
            break  # the walk reached the source
        removed, added = best_step
        for x in removed:
            remove_member(st, x)
        for u in added:
            add_member(st, u)
        near = removed + added + [y for x in removed + added for y in adj[x]]
        member[near] = [cur_flags[y] for y in near]
        gain0[near] = [delta[y] for y in near]
        owner[near] = [st.owner[y] for y in near]
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
