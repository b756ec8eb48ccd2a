"""Greedy constructors: the static scan, its randomized form, and adaptive.

A run starts from adaptive_greedy and relinks toward randomized_greedy. All
three rank candidates by eta(v) = w(v)/degree(v). Zero-degree nodes never
enter the ranking; they are added up front, so eta is always finite.

randomized_greedy is GRASP's cost perturbation (Resende and Ribeiro): the
static scan by eta(v)*(1 + noise*(2u_v - 1)), with uniforms u_v read from the
run's random.Random as little-endian bytes, so results depend only on (graph,
config, seed) on either byte order, and numpy.random is never imported.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .solution import Solution


@dataclass
class GreedyConfig:
    """noise: randomized_greedy's relative spread on eta; 0 is the static scan."""

    noise: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.noise < 1.0:  # NaN fails too
            raise ValueError("noise must be in [0, 1)")


def greedy(g: Graph, order: list[int] | None = None) -> Solution:
    """Isolated nodes, then each node of `order` (default g.eta_order) that no
    earlier pick blocks."""
    s = Solution(g)
    blocked = [False] * g.n
    adj = g.adj
    for v in np.flatnonzero(np.diff(g.indptr) == 0).tolist():
        s.add(v)
    for v in g.eta_order if order is None else order:
        if blocked[v]:
            continue
        s.add(v)
        blocked[v] = True
        for u in adj[v]:
            blocked[u] = True
    return s


def randomized_greedy(g: Graph, cfg: GreedyConfig, rng: random.Random) -> Solution:
    """The static scan by eta times seeded noise, descending; ties by node ID."""
    nodes, eta = g.eta
    # 53-bit uniforms in [0, 1), as random.random() makes them
    u = (np.frombuffer(rng.randbytes(8 * len(nodes)), "<u8") >> 11) * 2.0 ** -53
    keys = eta * (1.0 + cfg.noise * (2.0 * u - 1.0))
    return greedy(g, nodes[np.argsort(-keys, kind="stable")].tolist())


def adaptive_greedy(g: Graph) -> Solution:
    """Greedy with residual degrees and a lazy-deletion max-heap on eta.

    Residual-degree-zero nodes join S at once; eta ties break by ascending
    node ID. A node whose residual degree drops during a pick is pushed
    once, at its degree after the pick: nothing pops within a pick and
    degrees only fall, so a push per drop would add only entries stale
    before they can pop. Stale entries (node gone, or stored degree no
    longer current) are skipped on pop; each live node has exactly one
    current entry. When a pick's pushes leave more than 3*live + 64 entries,
    the heap is rebuilt from its current entries alone. The picks cannot
    change: a heap pops the least of its entries, and the current entries
    are the same with or without the stale ones.
    """
    s = Solution(g)
    w, adj = g.w, g.adj
    rdeg = [len(a) for a in adj]
    alive = [True] * g.n
    picked = [-1] * g.n  # the pick that last lowered a degree
    heap: list[tuple[float, int, int]] = []
    for v in range(g.n):
        if rdeg[v] == 0:
            s.add(v)
            alive[v] = False
        else:
            heap.append((-w[v] / rdeg[v], v, rdeg[v]))
    heapq.heapify(heap)
    live = len(heap)

    while heap:
        _, v, d = heapq.heappop(heap)
        if not alive[v] or d != rdeg[v]:
            continue
        s.add(v)
        alive[v] = False
        neighbors = [u for u in adj[v] if alive[u]]
        live -= 1 + len(neighbors)
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
                    live -= 1
                elif picked[y] != v:  # first drop in this pick
                    picked[y] = v
                    changed.append(y)
        for y in changed:
            if alive[y]:
                heapq.heappush(heap, (-w[y] / rdeg[y], y, rdeg[y]))
        if len(heap) > 3 * live + 64:
            heap = [e for e in heap if alive[e[1]] and e[2] == rdeg[e[1]]]
            heapq.heapify(heap)
    return s
