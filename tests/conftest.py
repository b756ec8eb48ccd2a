from __future__ import annotations

import bisect
import contextlib
import random

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from mwis import interstate
from mwis.graph import Graph, build_graph


class FakeClock:
    """Deterministic clock advancing a fixed tick per call."""

    def __init__(self, tick=1e-6):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        self.t += self.tick
        return self.t


@contextlib.contextmanager
def rows_forced(on: bool):
    """Make every interstate built inside the block keep bitset rows (on) or
    read neighbour lists only (off), whatever the graph's density."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(interstate, "is_dense", lambda n, m: on)
        yield


# pools whose sums round differently in different orders: in leaf order
# [0.5, 0.2, 0.6] sums to 1.2999999999999998, in descending order to 1.3
ROUNDING_TIE_POOLS = [
    [0.1, 0.2], [0.1, 0.2, 0.3], [0.5, 0.2, 0.6], [0.3, 0.6, 0.1, 0.7, 0.2],
    [1.0, 2.0 ** -53, 2.0 ** -53], [0.1] * 10, [0.1 * k for k in range(1, 41)]]


def graph_from(n: int, edges, weights=None) -> Graph:
    return build_graph(n, edges, weights if weights is not None else [1.0] * n)


@pytest.fixture
def path3() -> Graph:
    """Path 0-1-2 with weights (3, 5, 3)."""
    return graph_from(3, [(0, 1), (1, 2)], [3.0, 5.0, 3.0])


@pytest.fixture
def cycle4() -> Graph:
    """4-cycle 0-1-2-3 with unit weights."""
    return graph_from(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def random_graph(rng: random.Random, n: int, p: float, max_w: int = 100) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    weights = [float(rng.randint(0, max_w)) for _ in range(n)]
    return build_graph(n, edges, weights)


def maximal(g: Graph, s, rng: random.Random):
    """Make s maximal in place and return it, with the solver's draws
    (interstate.make_maximal): the free nodes ascending, one shuffle, then an
    insert of each node that still has no member neighbour."""
    flags, adj = s._in_set, g.adj
    cand = [v for v in range(g.n) if not flags[v] and not any(flags[u] for u in adj[v])]
    rng.shuffle(cand)
    for v in cand:
        if not any(flags[u] for u in adj[v]):
            s.add(v)
    return s


def bipartite_optimum(g: Graph, left) -> float:
    """The maximum independent set weight of a bipartite graph with integer
    weights, every edge between `left` (a mask) and the other nodes: the
    total weight less a maximum flow from a source through the left nodes,
    the edges and the right nodes to a sink, with the node weights as the
    arc capacities (a minimum weight vertex cover)."""
    w = g.weights.astype(np.int64)
    left = np.asarray(left, bool)
    assert np.array_equal(w, g.weights), "maximum_flow needs integer capacities"
    tails = np.repeat(np.arange(g.n), np.diff(g.indptr))
    assert np.all(left[tails] != left[g.indices]), "an edge within one side"
    source, sink = g.n, g.n + 1
    heads, right = np.flatnonzero(left), np.flatnonzero(~left)
    from_left = left[tails]
    rows = np.concatenate([np.full(len(heads), source), tails[from_left], right])
    cols = np.concatenate([heads, g.indices[from_left], np.full(len(right), sink)])
    caps = np.concatenate([w[heads], np.full(from_left.sum(), w.sum() + 1), w[right]])
    net = csr_matrix((caps, (rows, cols)), shape=(g.n + 2, g.n + 2))
    return float(w.sum() - maximum_flow(net, source, sink).flow_value)


def interval_graph(intervals, weights) -> Graph:
    """Nodes are half-open intervals [s, e), and two that overlap conflict."""
    by_start = sorted(range(len(intervals)), key=lambda i: intervals[i][0])
    edges = []
    for a, i in enumerate(by_start):
        b = a + 1
        while b < len(by_start) and intervals[by_start[b]][0] < intervals[i][1]:
            edges.append((i, by_start[b]))
            b += 1
    return build_graph(len(intervals), edges, weights)


def interval_optimum(intervals, weights) -> float:
    """The maximum weight of pairwise disjoint half-open intervals, by weighted
    interval scheduling: in order of end, each interval is skipped or taken
    after the best set of those that end by its start."""
    by_end = sorted(range(len(intervals)), key=lambda i: intervals[i][1])
    ends = [intervals[i][1] for i in by_end]
    best = [0.0]  # best[j]: the optimum over the first j intervals by end
    for i in by_end:
        j = bisect.bisect_right(ends, intervals[i][0])
        best.append(max(best[-1], best[j] + weights[i]))
    return best[-1]
