"""Exact MWIS for small graphs: the verification backbone of the test suite.

One search, `max_weight_subset`: an include/exclude recursion over bitmasks
that prunes a subtree whose remaining weight cannot reach the heaviest total
found so far. The (1,*) move calls it on 1-tight pools; `exact_mwis` calls it
on a whole graph (n <= 30), its nodes relabelled by descending degree. Tests
compare it against a vectorized full enumeration and against the unpruned
recursion, both kept in tests/reference_oracle.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Graph

BB_NODE_LIMIT = 30

# relative rounding allowance per summand when bounding a weight sum: the
# search's subtrees here, the (1,*) and (2,*) moves' pools in local_search
_SUM_SLACK = 4 * math.ulp(1.0)


@dataclass
class ExactResult:
    weight: float
    witness: frozenset[int]
    explored: int  # calls of the subset search


def exact_mwis(g: Graph) -> ExactResult:
    """Optimal independent set by the subset search. Guarded: n <= BB_NODE_LIMIT."""
    if g.n > BB_NODE_LIMIT:
        raise ValueError(f"exact_mwis limited to n <= {BB_NODE_LIMIT}, got n={g.n}")
    # the search branches on its lowest item first: high degree there shrinks both branches
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    pos = {v: i for i, v in enumerate(order)}
    masks = [sum(1 << pos[u] for u in g.adj[v]) for v in order]
    calls = [0]
    weight, chosen = _search([g.w[v] for v in order], masks, calls)
    witness = frozenset(v for i, v in enumerate(order) if chosen >> i & 1)
    return ExactResult(weight=weight, witness=witness, explored=calls[0])


def max_weight_subset(weights: list[float], adj_masks: list[int]) -> tuple[float, int]:
    """Heaviest conflict-free subset of an item pool, by include/exclude recursion.

    Weights are >= 0 and adj_masks[i] is a bitmask of items conflicting with
    item i. Returns (weight, chosen bitmask). The recursion branches on the
    lowest available item, sums each weight bottom-up (a conflict-free
    remainder in ascending item order, then the included items outward), and
    prefers the include branch on a tie. This is the routine the (1,*) move
    uses for exact 1-tight subset selection.
    """
    return _search(weights, adj_masks, [0])


def _search(weights: list[float], adj_masks: list[int], calls: list[int]) -> tuple[float, int]:
    total = sum(weights)
    return _best_subset(weights, adj_masks, (1 << len(weights)) - 1, total, -math.inf,
                        total * _SUM_SLACK * len(weights), calls)


def _best_subset(weights: list[float], adj_masks: list[int], avail: int, rem: float,
                 need: float, margin: float, calls: list[int]) -> tuple[float, int]:
    """The best subset of `avail`, which weighs `rem` in all. A branch whose
    items cannot reach `need`, the weight that would tie the heaviest total
    found so far, is not searched: it reads -inf and loses every comparison
    above it, so the result is the unpruned recursion's, bit for bit."""
    # not a closure: a self-calling closure is a cycle, unfreed while run pauses the collector
    calls[0] += 1
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
    w_i = weights[i]
    rem -= w_i
    dropped = adj_masks[i] & avail
    rem_in = rem
    t = dropped
    while t:
        b = t & -t
        rem_in -= weights[b.bit_length() - 1]
        t ^= b
    # rem and need are running sums; margin covers their rounding and that of
    # any order of summing the pool's items
    if rem_in + margin < need - w_i:
        w_in, c_in = -math.inf, 0
    else:
        w_in, c_in = _best_subset(weights, adj_masks, avail & ~(dropped | ibit), rem_in,
                                  need - w_i, margin, calls)
    w_in += w_i
    need = max(need, w_in)
    if rem + margin < need:
        return w_in, c_in | ibit
    w_ex, c_ex = _best_subset(weights, adj_masks, avail & ~ibit, rem, need, margin, calls)
    if w_in >= w_ex:
        return w_in, c_in | ibit
    return w_ex, c_ex
