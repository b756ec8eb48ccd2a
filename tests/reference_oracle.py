"""The vectorized full enumeration that mwis.oracle offered beside its
branch-and-bound, kept unchanged as the independent route that the tests check
exact_mwis against. It builds every subset's weight at once, so it is limited
to n <= ENUM_NODE_LIMIT.
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
