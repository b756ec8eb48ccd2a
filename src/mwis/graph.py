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

import contextlib
import logging
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

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
    """Assemble a Graph from an iterable of (u, v) pairs or an integer (k, 2)
    array, dropping self-loops/duplicates.

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

    if not isinstance(edges, np.ndarray):
        edges = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
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


# Files are read in blocks of about 64 KiB that end at a line end, which keeps
# the reader's temporaries small: a whole-file pass raised the benchmark's
# peak RSS by a fifth, 256 KiB blocks by a tenth
_BLOCK = 1 << 16
_SAVE_BATCH = 1 << 14  # nodes, or adjacency entries, whose lines save_graph writes at once


class _Lines(NamedTuple):
    """The non-blank lines of one block of a file, comments cut."""
    buf: np.ndarray     # the block's bytes (uint8)
    start: np.ndarray   # offset of each token
    end: np.ndarray     # offset past each token
    first: np.ndarray   # index of each line's first token
    count: np.ndarray   # tokens on each line
    lineno: np.ndarray  # 1-based number of each line in the file

    def text(self, i: int) -> str:
        j = self.first[i]
        line = self.buf[self.start[j]:self.end[j + self.count[i] - 1]].tobytes()
        return line.decode("utf-8", "replace")


def _read_lines(path: str, comment: bytes, offset: int = 0, lineno: int = 0):
    """Yield the non-blank lines after byte `offset`, where line `lineno` ends, a
    block (_Lines) at a time. Lines end at LF, tokens are split on ASCII
    whitespace, and a comment runs from the byte `comment` to its line's end."""
    with open(path, "rb") as f:
        f.seek(offset)
        while data := f.read(_BLOCK) + f.readline():
            buf = np.frombuffer(data, dtype=np.uint8)
            sep = (buf == ord(" ")) | (buf - ord("\t") <= 4)  # \t\n\v\f\r; lower bytes wrap
            if comment in data:  # a byte whose last mark comes after its last LF
                at = np.arange(len(buf))
                sep |= (np.maximum.accumulate(np.where(buf == comment[0], at, -1))
                        > np.maximum.accumulate(np.where(buf == 10, at, -1)))
            sep = np.concatenate(([True], sep, [True]))
            start, end = np.flatnonzero(sep[1:] != sep[:-1]).reshape(-1, 2).T
            nl = np.flatnonzero(buf == 10)
            line = np.searchsorted(nl, start)
            first = np.flatnonzero(np.diff(line, prepend=-1))
            yield _Lines(buf, start, end, first, np.diff(first, append=len(start)),
                         lineno + 1 + line[first])
            lineno += len(nl)


def _ids(blk: _Lines, tok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tokens as IDs, an optional '-' then ASCII digits: values and validity
    (more than 18 digits read as +-(2**63 - 1), outside every range)."""
    buf, end = blk.buf, blk.end[tok]
    neg = buf[blk.start[tok]] == ord("-")
    width = end - blk.start[tok] - neg
    ok, value = width > 0, np.zeros(len(end), dtype=np.int64)
    for j in range(1, min(int(width.max(initial=0)), 18) + 1):
        digit = np.where(width >= j, buf[end - j] - ord("0"), 0)  # bytes below '0' wrap past 9
        ok &= digit <= 9
        value += digit.astype(np.int64) * 10 ** (j - 1)
    for i in np.flatnonzero(width > 18):
        ok[i], value[i] = buf[end[i] - width[i]:end[i]].tobytes().isdigit(), np.iinfo(np.int64).max
    return np.where(neg, -value, value), ok


def _floats(blk: _Lines, tok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tokens as Python float() reads them: values and validity. A bytes
    column's astype(float64) is float() but for dropping trailing NULs; if it
    fails on a bad token, or a token is over 32 bytes, each is read by float()."""
    start, end = blk.start[tok], blk.end[tok]
    cols = int((end - start).max(initial=1))
    if cols <= 32:
        text = np.lib.stride_tricks.sliding_window_view(
            np.append(blk.buf, np.zeros(cols, dtype=np.uint8)), cols)[start]
        text[np.arange(cols) >= (end - start)[:, None]] = 0
        with contextlib.suppress(ValueError):
            return text.view(f"S{cols}").ravel().astype(np.float64), blk.buf[end - 1] != 0
    value, ok = np.zeros(len(start)), np.zeros(len(start), dtype=bool)
    for i, (s, e) in enumerate(zip(start, end)):
        with contextlib.suppress(ValueError):
            value[i], ok[i] = float(blk.buf[s:e].tobytes()), True
    return value, ok


def _placed(v: np.ndarray, valid: np.ndarray, seen: np.ndarray):
    """Line masks of the IDs v (where `valid`) outside 0..len(seen)-1 and of repeats,
    and the in-range lines, whose IDs are then marked in `seen`. Repeats are
    found by a sort: np.unique imports numpy.ma, about 1 MB resident."""
    outside = valid & ((v < 0) | (v >= len(seen)))
    lines = np.flatnonzero(valid & ~outside)
    order = lines[np.argsort(v[lines], kind="stable")]
    repeat = np.zeros(len(v), dtype=bool)
    repeat[lines] = seen[v[lines]]
    repeat[order[1:]] |= v[order[1:]] == v[order[:-1]]
    seen[v[lines]] = True
    return outside, repeat, lines


def _check(path: str, blk: _Lines, checks) -> None:
    """Raise for the first line failing one of the (line mask, message(line))
    checks, with the message of the first check it fails."""
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if len(bad):
        message = next(message for mask, message in checks if mask[bad[0]])
        raise GraphFormatError(f"{path}:{blk.lineno[bad[0]]}: {message(bad[0])}")


def _header(path: str, comment: bytes, size, what: str, fmt: str = "0"):
    """n and m from the first line, if size(its token count) and its third
    token ("0" if none) is fmt; and the lines after it."""
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            if head := raw.split(comment, 1)[0].split():
                at = f"{path}:{lineno}:"
                if not size(len(head)):
                    raise GraphFormatError(f"{at} expected header {what}")
                if not all(t.removeprefix(b"-").isdigit() for t in head[:2]):
                    raise GraphFormatError(f"{at} bad header {what}")
                code = (head[2:] or [b"0"])[0].decode("utf-8", "replace")
                if code != fmt:
                    raise GraphFormatError(f"{at} unsupported METIS fmt {code!r} (need 10)")
                if int(head[0]) < 0:
                    raise GraphFormatError(f"{at} negative node count")
                return int(head[0]), int(head[1]), _read_lines(path, comment, f.tell(), lineno)
    raise GraphFormatError(f"{path}: empty file")


def load_graph(path: str, fmt: str = "edge-list") -> Graph:
    """Load a graph file.

    fmt="edge-list": '#' comments; header "n m"; weight lines "w <id> <float>"
    (unlisted nodes default to weight 1.0); edge lines "e <u> <v>" with
    0-indexed endpoints; m must be the number of edge lines.

    fmt="metis": '%' comments; header "n m fmt" with fmt=10 (node weights);
    then n lines "<weight> <nbr> <nbr> ...", neighbors 1-indexed; m must be
    half the number of neighbor entries.

    Tokens are split on ASCII whitespace and IDs are ASCII digits. Self-loops
    and duplicate edges are dropped (counted in parse_warnings); negative
    weights are rejected; parse errors carry the line number.
    """
    if fmt not in ("edge-list", "metis"):
        raise GraphFormatError(f"unknown graph format {fmt!r}")
    n, edges, weights, warn = (_load_edge_list if fmt == "edge-list" else _load_metis)(path)
    try:
        return build_graph(n, edges, weights, parse_warnings=warn)
    except GraphFormatError as e:
        raise GraphFormatError(f"{path}: {e}") from None


def _load_edge_list(path: str):
    n, m, lines = _header(path, b"#", lambda k: k == 2, "'n m'")
    weights, weighted = np.ones(n), np.zeros(n, dtype=bool)
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for blk in lines:
        f, three = blk.first, blk.count == 3
        kind = np.where(three & (blk.end[f] - blk.start[f] == 1), blk.buf[blk.start[f]], 0)
        is_w, is_e = kind == ord("w"), kind == ord("e")
        v, v_ok = _ids(blk, np.where(three, f + 1, f))  # other lines fail on their length
        u, u_ok = _ids(blk, np.where(three, f + 2, f))
        outside, repeat, w_lines = _placed(v, is_w & v_ok, weighted)
        x, x_ok = _floats(blk, f[w_lines] + 2)
        bad_x = np.zeros(len(f), dtype=bool)
        bad_x[w_lines] = ~x_ok

        def unparsed(i):
            return f"cannot parse {' '.join(blk.text(i).split())!r}"

        _check(path, blk, [(~(is_w | is_e) | ~v_ok | (is_e & ~u_ok), unparsed),
                           (outside, lambda i: f"node {int(blk.text(i).split()[1])} out of range"),
                           (repeat, lambda i: f"duplicate weight for node {v[i]}"),
                           (bad_x, unparsed)])
        weights[v[w_lines]] = x
        edges.append(np.column_stack((v[is_e], u[is_e])))
    edges = np.concatenate(edges)
    if len(edges) != m:
        raise GraphFormatError(
            f"{path}: header declares m={m} but the file has {len(edges)} edge lines")
    return n, edges, weights, 0


def _load_metis(path: str):
    n, m, lines = _header(path, b"%", lambda k: k >= 2, "'n m fmt'", fmt="10")
    weights, arcs, row = np.zeros(n), [np.zeros(0, dtype=np.int64)], 0  # arcs: row * n + neighbor
    for blk in lines:
        f, c = blk.first, blk.count
        x, x_ok = _floats(blk, f)
        nbr = np.delete(np.arange(len(blk.start)), f)
        ids, id_ok = _ids(blk, nbr)
        bad = ~id_ok | (ids < 1) | (ids > n)
        line_of = np.repeat(np.arange(len(f)), c - 1)

        def nbr_error(i):  # at line i's first bad entry; f[i] - i entries come before the line
            j = f[i] - i + np.argmax(bad[f[i] - i:f[i] - i + c[i] - 1])
            if not id_ok[j]:
                return "cannot parse vertex line"
            t = nbr[j]
            return f"neighbor {int(blk.buf[blk.start[t]:blk.end[t]].tobytes())} out of range 1..{n}"

        _check(path, blk, [(row + np.arange(len(f)) >= n, lambda i: f"more than {n} vertex lines"),
                           (~x_ok, lambda i: "cannot parse vertex line"),
                           (np.bincount(line_of[bad], minlength=len(f)) > 0, nbr_error)])
        weights[row:row + len(f)] = x
        arcs.append((row + line_of) * n + ids - 1)
        row += len(f)
    if row != n:
        raise GraphFormatError(f"{path}: expected {n} vertex lines, found {row}")
    arcs = np.concatenate(arcs)
    if len(arcs) != 2 * m:
        raise GraphFormatError(f"{path}: header declares m={m} but the vertex lines hold "
                               f"{len(arcs)} neighbor entries, not {2 * m}")
    # METIS lists every edge in both endpoints' lines; only a repeat within
    # one line (or a self-loop) counts as a warning
    u, v = np.divmod(arcs, n)
    keys = np.sort(arcs[u != v])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    u, v = np.divmod(keys, n)
    pairs = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    edges = np.column_stack(np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], n))
    return n, edges, weights, len(arcs) - len(keys)


def save_graph(g: Graph, path: str, fmt: str = "edge-list") -> None:
    """Write g in the given format (each undirected edge emitted once), the
    lines of _SAVE_BATCH nodes or adjacency entries per write."""
    if fmt not in ("edge-list", "metis"):
        raise GraphFormatError(f"unknown graph format {fmt!r}")
    ptr, w, b = g.indptr, g.w, _SAVE_BATCH
    with open(path, "w", encoding="utf-8") as f:
        if fmt == "edge-list":
            f.write(f"{g.n} {g.m}\n")
            for lo in range(0, g.n, b):
                f.write("".join(map("w {} {!r}\n".format, range(lo, lo + b), w[lo:lo + b])))
            for a in range(0, len(g.indices), b):
                v = g.indices[a:a + b]
                u = np.searchsorted(ptr, np.arange(a, a + len(v)), side="right") - 1
                up = u < v
                f.write("".join(map("e {} {}\n".format, u[up].tolist(), v[up].tolist())))
        else:
            f.write(f"{g.n} {g.m} 10\n")
            for lo in range(0, g.n, b):
                p = ptr[lo:lo + b + 1]
                ids = list(map(str, (g.indices[p[0]:p[-1]] + 1).tolist()))
                p = (p - p[0]).tolist()
                f.write("".join(" ".join([repr(x), *ids[p[i]:p[i + 1]]]) + "\n"
                                for i, x in enumerate(w[lo:lo + b])))


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Structural equality (ignores parse_warnings)."""
    return (a.n == b.n and a.m == b.m
            and np.array_equal(a.weights, b.weights)
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices))
