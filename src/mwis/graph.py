"""Immutable node-weighted graph storage and file formats.

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
from itertools import chain

import numpy as np

log = logging.getLogger(__name__)


class GraphFormatError(ValueError):
    """Raised for malformed graph/solution/relaxed-solution files."""


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

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

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
    def eta_order(self) -> list[int]:
        """Non-isolated nodes by eta(v) = w(v)/degree(v) descending, ties by
        ascending ID; built on first use; treat as read-only.
        """
        deg = np.diff(self.indptr)
        nodes = np.flatnonzero(deg)
        # a stable sort keeps equal etas in ascending node order
        return nodes[np.argsort(-(self.weights[nodes] / deg[nodes]), kind="stable")].tolist()


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
    """Assemble a Graph from an edge iterable, dropping self-loops/duplicates.

    Dropped items add to parse_warnings. Rejects negative or non-finite weights.
    """
    w = np.asarray(list(weights) if not isinstance(weights, np.ndarray) else weights,
                   dtype=np.float64)
    if w.shape != (n,):
        raise GraphFormatError(f"expected {n} node weights, got {w.shape[0]}")
    if not np.all(np.isfinite(w)):
        raise GraphFormatError("non-finite node weight")
    if np.any(w < 0):
        raise GraphFormatError("negative node weight")

    e = np.fromiter(chain.from_iterable(edges), dtype=np.int64).reshape(-1, 2)
    u, v = e[:, 0], e[:, 1]
    bad = np.flatnonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))
    if len(bad):
        i = bad[0]
        raise GraphFormatError(f"edge ({u[i]},{v[i]}) references a node outside 0..{n - 1}")
    keep = u != v
    # lo*n + hi names each undirected edge once; the sorted arcs u*n + v of
    # both directions are the CSR rows in order
    keys = np.minimum(u, v)[keep] * n + np.maximum(u, v)[keep]
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    m = len(keys)
    warn = parse_warnings + len(e) - m

    lo, hi = np.divmod(keys, n)
    rows, cols = np.divmod(np.sort(np.concatenate([keys, hi * n + lo])), n)
    indices = cols.astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])

    w.flags.writeable = False
    indices.flags.writeable = False
    indptr.flags.writeable = False
    if warn:
        log.warning("graph build dropped %d self-loop/duplicate edge(s)", warn)
    return Graph(n=n, m=m, weights=w, indptr=indptr, indices=indices, parse_warnings=warn)


def _tokens(path: str, comment: str):
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split(comment, 1)[0].strip()
            if line:
                yield lineno, line.split()


def load_graph(path: str, fmt: str = "edge-list") -> Graph:
    """Load a graph file.

    fmt="edge-list": '#' comments; header "n m"; weight lines "w <id> <float>"
    (unlisted nodes default to weight 1.0); edge lines "e <u> <v>" with
    0-indexed endpoints.

    fmt="metis": '%' comments; header "n m fmt" with fmt=10 (node weights);
    then n lines "<weight> <nbr> <nbr> ...", neighbors 1-indexed.

    Self-loops and duplicate edges are dropped (counted in parse_warnings);
    negative weights are rejected; parse errors carry the line number.
    """
    if fmt == "edge-list":
        return _load_edge_list(path)
    if fmt == "metis":
        return _load_metis(path)
    raise GraphFormatError(f"unknown graph format {fmt!r}")


def _load_edge_list(path: str) -> Graph:
    lines = _tokens(path, "#")
    try:
        lineno, head = next(lines)
    except StopIteration:
        raise GraphFormatError(f"{path}: empty file") from None
    if len(head) != 2:
        raise GraphFormatError(f"{path}:{lineno}: expected header 'n m'")
    try:
        n, _m_declared = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(f"{path}:{lineno}: bad header 'n m'") from None
    if n < 0:
        raise GraphFormatError(f"{path}:{lineno}: negative node count")

    weights = np.ones(n, dtype=np.float64)
    edges: list[tuple[int, int]] = []
    for lineno, tok in lines:
        kind = tok[0]
        try:
            if kind == "w":
                if len(tok) != 3:
                    raise ValueError
                v = int(tok[1])
                if not 0 <= v < n:
                    raise GraphFormatError(f"{path}:{lineno}: node {v} out of range")
                weights[v] = float(tok[2])
            elif kind == "e":
                if len(tok) != 3:
                    raise ValueError
                edges.append((int(tok[1]), int(tok[2])))
            else:
                raise ValueError
        except GraphFormatError:
            raise
        except ValueError:
            raise GraphFormatError(f"{path}:{lineno}: cannot parse {' '.join(tok)!r}") from None
    try:
        return build_graph(n, edges, weights)
    except GraphFormatError as e:
        raise GraphFormatError(f"{path}: {e}") from None


def _load_metis(path: str) -> Graph:
    lines = _tokens(path, "%")
    try:
        lineno, head = next(lines)
    except StopIteration:
        raise GraphFormatError(f"{path}: empty file") from None
    if len(head) < 2:
        raise GraphFormatError(f"{path}:{lineno}: expected header 'n m fmt'")
    try:
        n, _m_declared = int(head[0]), int(head[1])
        code = head[2] if len(head) > 2 else "0"
    except ValueError:
        raise GraphFormatError(f"{path}:{lineno}: bad METIS header") from None
    if code != "10":
        raise GraphFormatError(f"{path}:{lineno}: unsupported METIS fmt {code!r} (need 10)")

    weights = np.zeros(n, dtype=np.float64)
    # METIS lists every edge in both endpoints' lines; only a repeat within
    # one direction (or a self-loop) counts as a warning
    directed: set[tuple[int, int]] = set()
    warn = 0
    row = 0
    for lineno, tok in lines:
        if row >= n:
            raise GraphFormatError(f"{path}:{lineno}: more than {n} vertex lines")
        try:
            weights[row] = float(tok[0])
            for t in tok[1:]:
                nbr = int(t) - 1
                if not 0 <= nbr < n:
                    raise GraphFormatError(
                        f"{path}:{lineno}: neighbor {nbr + 1} out of range 1..{n}")
                if nbr == row or (row, nbr) in directed:
                    warn += 1
                    continue
                directed.add((row, nbr))
        except GraphFormatError:
            raise
        except ValueError:
            raise GraphFormatError(f"{path}:{lineno}: cannot parse vertex line") from None
        row += 1
    if row != n:
        raise GraphFormatError(f"{path}: expected {n} vertex lines, found {row}")
    edges = {(u, v) for u, v in directed if u < v or (v, u) not in directed}
    try:
        return build_graph(n, sorted(edges), weights, parse_warnings=warn)
    except GraphFormatError as e:
        raise GraphFormatError(f"{path}: {e}") from None


def save_graph(g: Graph, path: str, fmt: str = "edge-list") -> None:
    """Write g in the given format (each undirected edge emitted once)."""
    if fmt == "edge-list":
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{g.n} {g.m}\n")
            for v in range(g.n):
                f.write(f"w {v} {float(g.weights[v])!r}\n")
            for u in range(g.n):
                for v in g.neighbors(u):
                    if u < v:
                        f.write(f"e {u} {v}\n")
    elif fmt == "metis":
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{g.n} {g.m} 10\n")
            for u in range(g.n):
                nbrs = " ".join(str(int(v) + 1) for v in g.neighbors(u))
                f.write(f"{float(g.weights[u])!r} {nbrs}".rstrip() + "\n")
    else:
        raise GraphFormatError(f"unknown graph format {fmt!r}")


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Structural equality (ignores parse_warnings)."""
    return (a.n == b.n and a.m == b.m
            and np.array_equal(a.weights, b.weights)
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices))
