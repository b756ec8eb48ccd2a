"""Greedy constructors: deterministic, randomized, adaptive.

A run starts from adaptive_greedy and relinks toward randomized_greedy. All
three rank candidates by eta(v) = w(v)/degree(v). Zero-degree nodes never
enter the ranking; they are added up front, so eta is always finite.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left
from dataclasses import dataclass

from .graph import Graph, is_dense
from .solution import Solution


@dataclass
class GreedyConfig:
    """k_fraction: fraction of the live nodes forming the random-pick pool."""

    k_fraction: float = 0.10

    def __post_init__(self):
        if not 0.0 < self.k_fraction <= 1.0:
            raise ValueError("k_fraction must be in (0, 1]")


def greedy(g: Graph) -> Solution:
    """Static-degree greedy scan."""
    s = Solution(g)
    blocked = [False] * g.n
    adj = g.adj
    for v in range(g.n):
        if not adj[v]:
            s.add(v)
    for v in g.eta_order:
        if blocked[v]:
            continue
        s.add(v)
        blocked[v] = True
        for u in adj[v]:
            blocked[u] = True
    return s


def randomized_greedy(g: Graph, cfg: GreedyConfig, rng: random.Random) -> Solution:
    """At each step add a uniform pick among the top-k live nodes by static eta."""
    s = Solution(g)
    adj = g.adj
    for v in range(g.n):
        if not adj[v]:
            s.add(v)
    order = g.eta_order
    pos = [-1] * g.n  # position in order while live, -1 once claimed
    for i, v in enumerate(order):
        pos[v] = i
    # window holds every live position below scan, ascending, so its first
    # k entries are the top-k live nodes
    window: list[int] = []
    scan = 0
    live = len(order)
    frac, ceil, randrange, add = cfg.k_fraction, math.ceil, rng.randrange, s.add
    while live:
        k = max(1, ceil(frac * live))
        while len(window) < k:
            if pos[order[scan]] >= 0:
                window.append(scan)
            scan += 1
        j = randrange(k)
        v = order[window[j]]
        del window[j]
        pos[v] = -1
        live -= 1
        add(v)
        for u in adj[v]:
            i = pos[u]
            if i >= 0:
                pos[u] = -1
                live -= 1
                if i < scan:
                    del window[bisect_left(window, i)]
    return s


def adaptive_greedy(g: Graph) -> Solution:
    """Greedy with residual degrees and an addressable max-queue on eta.

    Implemented as a lazy-deletion binary heap: priority increases push a
    fresh entry, stale entries are recognized (stored residual degree no
    longer current) and skipped on pop. Residual-degree-zero nodes join S
    immediately. Deterministic: eta ties break by ascending node ID.

    On dense graphs (graph.is_dense) a node whose residual degree drops
    during a pick is pushed once, at its degree after the pick, instead of
    once per drop: there most drops in a pick repeat a node. Entries (eta
    key, node, degree) are distinct, so the pop sequence depends on the
    heap's contents, not on push order, and both ways pick alike.
    """
    s = Solution(g)
    w, adj = g.w, g.adj
    rdeg = [len(a) for a in adj]
    alive = [True] * g.n
    batch = is_dense(g.n, g.m)
    picked = [-1] * g.n if batch else None  # the pick that last lowered a degree
    heap: list[tuple[float, int, int]] = []
    for v in range(g.n):
        if rdeg[v] == 0:
            s.add(v)
            alive[v] = False
        else:
            heap.append((-w[v] / rdeg[v], v, rdeg[v]))
    heapq.heapify(heap)

    while heap:
        _, v, d = heapq.heappop(heap)
        if not alive[v] or d != rdeg[v]:
            continue
        s.add(v)
        alive[v] = False
        neighbors = [u for u in adj[v] if alive[u]]
        for u in neighbors:
            alive[u] = False
        changed = []
        for u in neighbors:
            # u leaves the residual graph together with v
            for y in adj[u]:
                if not alive[y]:
                    continue
                dy = rdeg[y] - 1
                rdeg[y] = dy
                if dy == 0:
                    s.add(y)
                    alive[y] = False
                elif not batch:
                    heapq.heappush(heap, (-w[y] / dy, y, dy))
                elif picked[y] != v:  # first drop in this pick
                    picked[y] = v
                    changed.append(y)
        for y in changed:
            if alive[y]:
                dy = rdeg[y]
                heapq.heappush(heap, (-w[y] / dy, y, dy))
    return s
