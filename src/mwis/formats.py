"""Every reader and writer of graph, relaxed-value and solution files.

Graphs are an edge list or METIS. Tokens are split on ASCII whitespace, IDs
are ASCII digits, and a parse error names its line. The readers return numpy
arrays, from which graph, lp_bias and solution build their objects; this
module imports none of them.
"""

from __future__ import annotations

import contextlib
from typing import NamedTuple

import numpy as np


class GraphFormatError(ValueError):
    """Raised for malformed graph/solution/relaxed-solution files."""


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


def read_graph(path: str, fmt: str = "edge-list"):
    """n, the (k, 2) edges, the weights and the parse warnings of a graph file.

    fmt="edge-list": '#' comments; header "n m"; weight lines "w <id> <float>"
    (default weight 1.0); edge lines "e <u> <v>" with 0-indexed endpoints; m
    is the number of edge lines. fmt="metis": '%' comments; header "n m 10";
    then n lines "<weight> <nbr> <nbr> ...", neighbors 1-indexed; m is half
    the number of neighbor entries.
    """
    if fmt not in ("edge-list", "metis"):
        raise GraphFormatError(f"unknown graph format {fmt!r}")
    return (_read_edge_list if fmt == "edge-list" else _read_metis)(path)


def _read_edge_list(path: str):
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


def _read_metis(path: str):
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


def save_graph(g, path: str, fmt: str = "edge-list") -> None:
    """Write the graph.Graph g in the given format (each undirected edge emitted
    once), the lines of _SAVE_BATCH nodes or adjacency entries per write."""
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


def read_relaxed(path: str, n: int) -> np.ndarray:
    """The values of nodes 0..n-1 from a relaxed-solution file: '#' comments,
    then "<node_id> <float>" lines or a bare float per line in node order."""
    by_id, seen, bare = np.zeros(n), np.zeros(n, dtype=bool), [np.zeros(0)]
    for blk in _read_lines(path, b"#"):
        f, c = blk.first, blk.count
        v, v_ok = _ids(blk, f)
        x, x_ok = _floats(blk, f + (c == 2))
        outside, repeat, keyed = _placed(v, (c == 2) & v_ok, seen)
        _check(path, blk, [((c > 2) | ~x_ok | ((c == 2) & ~v_ok),
                            lambda i: f"cannot parse relaxed value {blk.text(i)!r}"),
                           (outside, lambda i: f"node {int(blk.text(i).split()[0])} out of range"),
                           (repeat, lambda i: f"duplicate node {v[i]}")])
        by_id[v[keyed]] = x[keyed]
        bare.append(x[c == 1])
    bare, keyed = np.concatenate(bare), int(seen.sum())
    if keyed and len(bare):
        raise GraphFormatError(f"{path}: mixed '<id> <value>' and bare-value lines")
    # the ids are in range and distinct, so n of them cover 0..n-1
    if (keyed or len(bare)) != n:
        raise GraphFormatError(f"{path}: expected {n} values, found {keyed or len(bare)}")
    return by_id if keyed else bare


def read_solution(path: str, n: int) -> np.ndarray:
    """The node IDs of a solution file, one per line ('#' comments), each in
    0..n-1 and listed once."""
    ids, seen = [np.zeros(0, dtype=np.int64)], np.zeros(n, dtype=bool)
    for blk in _read_lines(path, b"#"):
        v, v_ok = _ids(blk, blk.first)
        unparsed = (blk.count != 1) | ~v_ok
        outside, repeat, _ = _placed(v, ~unparsed, seen)
        _check(path, blk, [(unparsed, lambda i: f"not a node ID: {blk.text(i)!r}"),
                           (outside, lambda i: f"node {int(blk.text(i))} out of range"),
                           (repeat, lambda i: f"duplicate node {v[i]}")])
        ids.append(v)
    return np.concatenate(ids)


def save_solution(s, path: str) -> None:
    """Write the members of the solution.Solution s, one node ID per line."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join([f"{v}\n" for v in s.members()]))
