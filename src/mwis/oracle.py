"""Exact MWIS for small graphs: the verification backbone of the test suite.

One route: a branch-and-bound over bitmasks (n <= 30). Tests compare it
against a vectorized full enumeration kept in tests/reference_oracle.py, and
every heuristic output against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph

BB_NODE_LIMIT = 30


@dataclass
class ExactResult:
    weight: float
    witness: frozenset[int]
    explored: int


def exact_mwis(g: Graph) -> ExactResult:
    """Optimal independent set by branch-and-bound. Guarded: n <= BB_NODE_LIMIT."""
    if g.n > BB_NODE_LIMIT:
        raise ValueError(f"exact_mwis limited to n <= {BB_NODE_LIMIT}, got n={g.n}")
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


def max_weight_subset(weights: list[float], adj_masks: list[int]) -> tuple[float, int]:
    """Heaviest conflict-free subset of an item pool, by include/exclude recursion.

    adj_masks[i] is a bitmask of items conflicting with item i. Returns
    (weight, chosen bitmask). Ties prefer the include branch. This is the same
    routine the (1,*) move uses for exact 1-tight subset selection.
    """
    return _best_subset(weights, adj_masks, (1 << len(weights)) - 1)


def _best_subset(weights: list[float], adj_masks: list[int], avail: int) -> tuple[float, int]:
    # not a closure: a self-calling closure is a cycle, unfreed while run pauses the collector
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
    w_in, c_in = _best_subset(weights, adj_masks, avail & ~(adj_masks[i] | ibit))
    w_in += weights[i]
    w_ex, c_ex = _best_subset(weights, adj_masks, avail & ~ibit)
    if w_in >= w_ex:
        return w_in, c_in | ibit
    return w_ex, c_ex
