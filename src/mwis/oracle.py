"""Exact MWIS for small graphs: the verification backbone of the test suite.

Two independent routes are provided: a branch-and-bound over bitmasks
(default, n <= 30) and a vectorized full enumeration (n <= 20). Tests compare
them against each other and against every heuristic output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

BB_NODE_LIMIT = 30
ENUM_NODE_LIMIT = 20


@dataclass
class ExactResult:
    weight: float
    witness: frozenset[int]
    explored: int


def exact_mwis(g: Graph, method: str = "branch-and-bound") -> ExactResult:
    """Optimal independent set. Guarded: n <= 30 (b&b), n <= 20 (enumerate)."""
    if method == "branch-and-bound":
        if g.n > BB_NODE_LIMIT:
            raise ValueError(f"exact_mwis limited to n <= {BB_NODE_LIMIT}, got n={g.n}")
        return _branch_and_bound(g)
    if method == "enumerate":
        if g.n > ENUM_NODE_LIMIT:
            raise ValueError(f"enumeration limited to n <= {ENUM_NODE_LIMIT}, got n={g.n}")
        return _enumerate(g)
    raise ValueError(f"unknown method {method!r}")


def _branch_and_bound(g: Graph) -> ExactResult:
    n = g.n
    w = g.w
    nmask = g.rows
    best_w = -1.0
    best_set = 0
    explored = 0
    full = (1 << n) - 1

    def mask_weight(mask: int) -> float:
        total = 0.0
        while mask:
            b = mask & -mask
            total += w[b.bit_length() - 1]
            mask ^= b
        return total

    stack = [(full, 0.0, 0, g.weights.sum())]
    while stack:
        live, cur, chosen, rem = stack.pop()
        explored += 1
        if cur + rem <= best_w:
            continue
        if live == 0:
            if cur > best_w:
                best_w = cur
                best_set = chosen
            continue
        # branch on the live node of highest residual degree (ties: lowest ID)
        v = -1
        vdeg = -1
        t = live
        while t:
            b = t & -t
            u = b.bit_length() - 1
            d = (nmask[u] & live).bit_count()
            if d > vdeg:
                vdeg = d
                v = u
            t ^= b
        vbit = 1 << v
        dropped = (nmask[v] | vbit) & live
        # exclude v
        stack.append((live ^ vbit, cur, chosen, rem - w[v]))
        # include v
        stack.append((live & ~dropped, cur + w[v], chosen | vbit,
                      rem - mask_weight(dropped)))

    witness = frozenset(v for v in range(n) if best_set >> v & 1)
    return ExactResult(weight=float(best_w), witness=witness, explored=explored)


def _enumerate(g: Graph) -> ExactResult:
    n = g.n
    if n == 0:
        return ExactResult(weight=0.0, witness=frozenset(), explored=1)
    masks = np.arange(1 << n, dtype=np.uint32)
    bits = ((masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(np.float64)
    weights = bits @ g.weights
    ok = np.ones(1 << n, dtype=bool)
    for u in range(n):
        for v in g.adj[u]:
            if u < v:
                ok &= ~((masks >> u & 1) & (masks >> v & 1)).astype(bool)
    weights[~ok] = -1.0
    best = int(np.argmax(weights))
    witness = frozenset(v for v in range(n) if best >> v & 1)
    return ExactResult(weight=float(weights[best]), witness=witness, explored=1 << n)


def max_weight_subset(weights: list[float], adj_masks: list[int]) -> tuple[float, int]:
    """Heaviest conflict-free subset of an item pool, by include/exclude recursion.

    adj_masks[i] is a bitmask of items conflicting with item i. Returns
    (weight, chosen bitmask). Ties prefer the include branch. This is the same
    routine the (1,*) move uses for exact 1-tight subset selection.
    """
    k = len(weights)

    def rec(avail: int) -> tuple[float, int]:
        if avail == 0:
            return 0.0, 0
        # conflict-free remainder: take everything
        t = avail
        clean = True
        while t:
            b = t & -t
            if adj_masks[b.bit_length() - 1] & avail:
                clean = False
                break
            t ^= b
        if clean:
            total = 0.0
            t = avail
            while t:
                b = t & -t
                total += weights[b.bit_length() - 1]
                t ^= b
            return total, avail
        i = (avail & -avail).bit_length() - 1
        ibit = 1 << i
        w_in, c_in = rec(avail & ~(adj_masks[i] | ibit))
        w_in += weights[i]
        w_ex, c_ex = rec(avail & ~ibit)
        if w_in >= w_ex:
            return w_in, c_in | ibit
        return w_ex, c_ex

    return rec((1 << k) - 1)

