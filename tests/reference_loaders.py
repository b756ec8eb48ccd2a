"""The per-line file readers that mwis used before its block reader, kept
unchanged as the reference that tests/test_graph.py checks the readers
against: the same arrays from valid files, and the same error type and
"path:line:" prefix from malformed ones.
"""

from __future__ import annotations

import numpy as np

from mwis.graph import Graph, GraphFormatError, build_graph
from mwis.lp_bias import DEFAULT_EPSILON, RelaxedSolution, make_relaxed
from mwis.solution import InfeasibleSolutionError, Solution, is_independent


def _tokens(path: str, comment: str):
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split(comment, 1)[0].strip()
            if line:
                yield lineno, line.split()


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
    weighted: set[int] = set()
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
                if v in weighted:
                    raise GraphFormatError(f"{path}:{lineno}: duplicate weight for node {v}")
                weighted.add(v)
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


def load_relaxed(path: str, g: Graph, epsilon: float = DEFAULT_EPSILON) -> RelaxedSolution:
    """Read per-node fractional values; exactly n values required.

    Accepted line forms ('#' comments allowed): "<node_id> <float>" or a bare
    float per line in node order.
    """
    by_id: dict[int, float] = {}
    bare: list[float] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tok = line.split()
            try:
                if len(tok) == 1:
                    bare.append(float(tok[0]))
                    continue
                if len(tok) != 2:
                    raise ValueError
                v, x = int(tok[0]), float(tok[1])
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{lineno}: cannot parse relaxed value {line!r}") from None
            if not 0 <= v < g.n:
                raise GraphFormatError(f"{path}:{lineno}: node {v} out of range")
            if v in by_id:
                raise GraphFormatError(f"{path}:{lineno}: duplicate node {v}")
            by_id[v] = x
    if by_id and bare:
        raise GraphFormatError(f"{path}: mixed '<id> <value>' and bare-value lines")
    if by_id:
        # every id is in range and distinct, so n of them cover 0..n-1
        if len(by_id) != g.n:
            raise GraphFormatError(
                f"{path}: expected values for nodes 0..{g.n - 1}, got {len(by_id)}")
        values = [by_id[v] for v in range(g.n)]
    else:
        if len(bare) != g.n:
            raise GraphFormatError(f"{path}: expected {g.n} values, found {len(bare)}")
        values = bare
    return make_relaxed(values, epsilon)


def load_solution(path: str, g: Graph) -> Solution:
    """Read one node ID per line ('#' comments); fail loudly if not independent."""
    s = Solution(g)
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                v = int(line)
            except ValueError:
                raise GraphFormatError(f"{path}:{lineno}: not a node ID: {line!r}") from None
            if not 0 <= v < g.n:
                raise GraphFormatError(f"{path}:{lineno}: node {v} out of range")
            if v in s:
                raise GraphFormatError(f"{path}:{lineno}: duplicate node {v}")
            s.add(v)
    if not is_independent(g, s):
        raise InfeasibleSolutionError(f"{path}: solution is not an independent set")
    return s
