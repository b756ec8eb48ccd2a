"""Relaxed-LP-solution ingestion and biased node sampling.

An LP relaxation of the clique formulation assigns each node a fractional
value x_v in [0,1] (solved elsewhere; ingested here as a file). Perturbation
samples node v with probability proportional to x_v + epsilon, so every node
stays reachable even at x_v = 0. A prefix-sum array makes each draw a binary
search.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .formats import GraphFormatError, read_relaxed
from .graph import Graph

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


def check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:  # NaN fails too
        raise ValueError("epsilon must be finite and > 0")


def make_relaxed(values, epsilon: float = DEFAULT_EPSILON) -> RelaxedSolution:
    """Validate, clamp to [0,1] (with a warning), and build the prefix index."""
    check_epsilon(epsilon)
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
    """Read per-node fractional values (formats.read_relaxed); exactly n required."""
    return make_relaxed(read_relaxed(path, g.n), epsilon)


def sample_biased(rs: RelaxedSolution, rng: random.Random) -> int:
    """Draw a node with P(v) = (x_v + eps) / sum(x_u + eps).

    The node is the least i with prefix[i] > z; a draw z that rounds up to the
    total picks the last node.
    """
    z = rng.random() * rs.total
    return min(int(np.searchsorted(rs.prefix, z, side="right")), len(rs.prefix) - 1)
