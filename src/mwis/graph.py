"""Immutable node-weighted graph storage.

Graphs are stored in compressed adjacency form: one sorted neighbor array per
node, concatenated (CSR layout). Node IDs are 0..n-1. The structure never
changes after construction, so it can be shared freely across solver runs.
The Python search loops read it through list views (`Graph.w`, `Graph.adj`
and the greedy ranking `Graph.eta_order`) that are built once per graph on
first use.

On dense graphs the interstate and the move engine also read `Graph.rows`,
one Python int per node with bit u set iff {u,v} is an edge. Two queries
then take a few word-parallel operations instead of a scan over a
neighbour list: the two member neighbours of a node whose rho drops to 2,
and AAP's set of path neighbours. `is_dense` picks the form from n and m
(average degree at least 16 + n/256); an n=1e3, p=0.1 graph (degree ~100)
reads rows, an n=1e4, m=25k graph (degree 5) lists. Both forms give the
same search, bit for bit.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .formats import GraphFormatError, read_graph, save_graph  # noqa: F401 (save_graph: re-exported)

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected node-weighted graph in CSR form.

    Invariants: adjacency slices are strictly sorted, free of self-loops and
    duplicates, and symmetric (u in adj[v] iff v in adj[u]); len(indices) == 2*m;
    all weights are finite and >= 0.

    parse_warnings counts dropped self-loops / duplicate edges from the source
    file and is not part of the graph's identity. Equality and hashing are by
    identity (numpy fields have no truth value); graphs_equal compares
    structure.
    """

    n: int
    m: int
    weights: np.ndarray  # float64 (n,)
    indptr: np.ndarray   # int64 (n+1,)
    indices: np.ndarray  # int32 (2m,)
    parse_warnings: int = field(default=0, compare=False)

    def node_weight(self, v: int) -> float:
        return float(self.weights[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor IDs of v (read-only view)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def is_edge(self, u: int, v: int) -> bool:
        return is_edge(self, u, v)

    @cached_property
    def w(self) -> list[float]:
        """Weights as a Python list, built on first use; treat as read-only."""
        return self.weights.tolist()

    @cached_property
    def adj(self) -> list[list[int]]:
        """Sorted neighbor list of each node, built on first use; treat as read-only.

        This is the form in which every Python search loop reads the graph.
        """
        ptr = self.indptr.tolist()
        nbrs = self.indices.tolist()
        return [nbrs[ptr[v]:ptr[v + 1]] for v in range(self.n)]

    @cached_property
    def rows(self) -> list[int]:
        """Neighbour rows as bitsets, built on first use; treat as read-only.

        Bit u of rows[v] is set iff {u,v} is an edge. Built in numpy a block
        of rows at a time, as a bool array of at most 256 kB (or one row), to
        bound temporary memory; each row is packed to little-endian bytes
        and read by int.from_bytes.
        """
        n, ptr = self.n, self.indptr
        width = (n + 7) // 8
        step = max(1, (1 << 18) // max(8 * width, 1))
        out: list[int] = []
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            bits = np.zeros((hi - lo, 8 * width), dtype=bool)
            bits[np.repeat(np.arange(hi - lo), np.diff(ptr[lo:hi + 1])),
                 self.indices[ptr[lo]:ptr[hi]]] = True
            buf = np.packbits(bits, axis=1, bitorder="little").tobytes()
            out += [int.from_bytes(buf[i:i + width], "little") for i in range(0, len(buf), width)]
        return out

    @cached_property
    def eta(self) -> tuple[np.ndarray, np.ndarray]:
        """The non-isolated nodes, ascending, and eta(v) = w(v)/degree(v) of
        each; built on first use; treat as read-only.
        """
        deg = np.diff(self.indptr)
        nodes = np.flatnonzero(deg)
        return nodes, self.weights[nodes] / deg[nodes]

    @cached_property
    def eta_order(self) -> list[int]:
        """Non-isolated nodes by eta descending, ties by ascending ID; cached."""
        nodes, eta = self.eta
        # a stable sort keeps equal etas in ascending node order
        return nodes[np.argsort(-eta, kind="stable")].tolist()


def is_edge(g: Graph, u: int, v: int) -> bool:
    """True iff {u,v} is an edge. Binary search on the lower-degree endpoint."""
    assert 0 <= u < g.n and 0 <= v < g.n
    adj = g.adj
    if len(adj[u]) > len(adj[v]):
        u, v = v, u
    nbrs = adj[u]
    i = bisect_left(nbrs, v)
    return i < len(nbrs) and nbrs[i] == v


def is_dense(n: int, m: int) -> bool:
    """Density rule: an average degree of at least 16 + n/256.

    Dense graphs read bitset rows for the rho->2 member pair (interstate)
    and AAP's path-neighbour set, and get one heap push per node and pick
    in adaptive greedy. A row operation
    touches n/30 of CPython's 30-bit digits, a list scan one step per
    neighbour. On G(n,p) graphs the local search with rows broke even near
    average degree 8 at n=250, 8-16 at n=1e3, 16-32 at n=4e3 and 32-64 at
    n=1e4, and the batched greedy near 16-32 at n=1e3 and 32-64 at n=1e4
    (README). Above the rule the rows take no more memory than the
    neighbour lists.
    """
    return n > 0 and 2 * m >= n * (16 + n / 256)


def build_graph(n: int, edges, weights, parse_warnings: int = 0) -> Graph:
    """Assemble a Graph from an iterable of integer (u, v) pairs or an integer
    (k, 2) array, dropping self-loops/duplicates (added to parse_warnings).
    Rejects endpoints that are not integers, and negative or non-finite weights.
    """
    w = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights,
                   dtype=np.float64)
    if w.shape != (n,):
        raise GraphFormatError(f"expected {n} node weights, got {w.shape[0]}")
    if not np.all(np.isfinite(w)):
        raise GraphFormatError("non-finite node weight")
    if np.any(w < 0):
        raise GraphFormatError("negative node weight")

    e = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    if e.size and e.dtype.kind not in "iu":  # a float, NaN or str endpoint
        raise GraphFormatError(f"edge endpoints must be integers, not {e.dtype}")
    e = e.astype(np.int64, copy=False).reshape(-1, 2)
    u, v = e[:, 0], e[:, 1]
    bad = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))
    if len(bad):
        i = bad[0]
        raise GraphFormatError(f"edge ({u[i]},{v[i]}) references a node outside 0..{n - 1}")
    # lo*n + hi names each undirected edge once, and the sorted arcs u*n + v of
    # both directions are the CSR rows in order. The keys, then the arcs, are
    # sorted and rewritten in place: a build holds under twice the input's bytes
    keys = (np.minimum(u, v) * n + np.maximum(u, v))[u != v]
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    m = len(keys)
    warn = parse_warnings + len(e) - m

    arcs = np.empty(2 * m, dtype=np.int64)  # each key lo*n + hi, then hi*n + lo
    arcs[:m] = keys
    np.remainder(keys, n, out=arcs[m:])
    arcs[m:] *= n
    arcs[m:] += np.floor_divide(keys, n, out=keys)
    del keys
    arcs.sort()
    cols = np.remainder(arcs, n, out=arcs)  # the arcs are symmetric: a column count is a degree
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    indices = cols.astype(np.int32)

    w.flags.writeable = False
    indices.flags.writeable = False
    indptr.flags.writeable = False
    if warn:
        log.warning("graph build dropped %d self-loop/duplicate edge(s)", warn)
    return Graph(n=n, m=m, weights=w, indptr=indptr, indices=indices, parse_warnings=warn)


def load_graph(path: str, fmt: str = "edge-list") -> Graph:
    """Load a graph file of format fmt (see formats.read_graph), dropping
    self-loops and duplicate edges (counted in parse_warnings)."""
    n, edges, weights, warn = read_graph(path, fmt)
    try:
        return build_graph(n, edges, weights, parse_warnings=warn)
    except GraphFormatError as e:
        raise GraphFormatError(f"{path}: {e}") from None


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Structural equality (ignores parse_warnings)."""
    return (a.n == b.n and a.m == b.m
            and np.array_equal(a.weights, b.weights)
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices))
