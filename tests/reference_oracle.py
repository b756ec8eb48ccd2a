"""Two references for mwis.oracle's one subset search, kept as the
independent routes the tests check it against.

`enumerate_mwis` is the vectorized full enumeration that the oracle once
offered beside its branch-and-bound. It builds every subset's weight at once,
so it is limited to n <= ENUM_NODE_LIMIT.

`max_weight_subset` and `_best_subset` are the unpruned include/exclude
recursion that the (1,*) move used before the search gained its weight bound,
copied unchanged: the pruned search must return their (weight, mask) exactly.
"""

from __future__ import annotations

import numpy as np

from mwis.graph import Graph
from mwis.oracle import ExactResult

ENUM_NODE_LIMIT = 20


def enumerate_mwis(g: Graph) -> ExactResult:
    if g.n > ENUM_NODE_LIMIT:
        raise ValueError(f"enumeration limited to n <= {ENUM_NODE_LIMIT}, got n={g.n}")
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
