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

from .graph import Graph, GraphFormatError, _check, _floats, _ids, _placed, _read_lines

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
    by_id, seen, bare = np.zeros(g.n), np.zeros(g.n, dtype=bool), [np.zeros(0)]
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
    if (keyed or len(bare)) != g.n:
        raise GraphFormatError(f"{path}: expected {g.n} values, found {keyed or len(bare)}")
    return make_relaxed(by_id if keyed else bare, epsilon)


def sample_biased(rs: RelaxedSolution, rng: random.Random) -> int:
    """Draw a node with P(v) = (x_v + eps) / sum(x_u + eps).

    The node is the least i with prefix[i] > z; a draw z that rounds up to the
    total picks the last node.
    """
    z = rng.random() * rs.total
    return min(int(np.searchsorted(rs.prefix, z, side="right")), len(rs.prefix) - 1)
