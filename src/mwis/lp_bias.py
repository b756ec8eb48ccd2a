"""Relaxed-LP-solution ingestion and biased node sampling.

An LP relaxation of the clique formulation assigns each node a fractional
value x_v in [0,1] (solved elsewhere; ingested here as a file). Perturbation
samples node v with probability proportional to x_v + epsilon, so every node
stays reachable even at x_v = 0. A prefix-sum array makes each draw a binary
search.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, GraphFormatError

log = logging.getLogger(__name__)

DEFAULT_EPSILON = 0.005


@dataclass(frozen=True)
class RelaxedSolution:
    x: np.ndarray                 # float64 (n,), clamped to [0,1]
    epsilon: float
    prefix: np.ndarray            # cumulative sums of (x_v + epsilon)
    clamp_warnings: int = field(default=0, compare=False)

    @property
    def total(self) -> float:
        return float(self.prefix[-1])


def make_relaxed(values, epsilon: float = DEFAULT_EPSILON) -> RelaxedSolution:
    """Validate, clamp to [0,1] (with a warning), and build the prefix index."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("expected a non-empty 1-d value array")
    if not np.all(np.isfinite(x)):
        raise GraphFormatError("non-finite relaxed value")
    clamped = np.clip(x, 0.0, 1.0)
    n_clamped = int(np.sum(clamped != x))
    if n_clamped:
        log.warning("clamped %d relaxed value(s) to [0,1]", n_clamped)
    prefix = np.cumsum(clamped + epsilon)
    clamped.flags.writeable = False
    prefix.flags.writeable = False
    return RelaxedSolution(x=clamped, epsilon=epsilon, prefix=prefix,
                           clamp_warnings=n_clamped)


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


def sample_biased(rs: RelaxedSolution, rng: random.Random) -> int:
    """Draw a node with P(v) = (x_v + eps) / sum(x_u + eps).

    The node is the least i with prefix[i] > z; a draw z that rounds up to the
    total picks the last node.
    """
    z = rng.random() * rs.total
    return min(int(np.searchsorted(rs.prefix, z, side="right")), len(rs.prefix) - 1)
