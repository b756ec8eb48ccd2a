"""Deterministic test-instance generation.

Models: gnp (Erdos-Renyi via geometric edge skipping), path, cycle, star,
grid. Weight rules: uniform-int(lo,hi) drawn from the seed, or id-mod-c
(weight = node ID modulo a constant, default 200) for seed-independent
reproducibility.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from .graph import Graph, build_graph


@dataclass
class GenSpec:
    model: str = "gnp"           # gnp | path | cycle | star | grid
    n: int = 0
    p: float = 0.0               # gnp edge probability
    rows: int = 0                # grid
    cols: int = 0                # grid
    weight_rule: str = "uniform-int"  # uniform-int | id-mod
    w_lo: int = 1
    w_hi: int = 200
    mod: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:  # NaN fails too
            raise ValueError("p must be in [0, 1]")
        for name in ("n", "rows", "cols", "w_lo", "w_hi", "mod", "seed"):  # NaN hashes by identity
            if not hasattr(getattr(self, name), "__index__"):
                raise ValueError(f"{name} must be an integer")
        self.seed = operator.index(self.seed)  # a plain int: random.Random refuses numpy's
        # gnp reads n and p, grid rows and cols, every other model n alone
        used = {"gnp": ("n", "p"), "grid": ("rows", "cols")}.get(self.model, ("n",))
        unused = [f for f in ("n", "p", "rows", "cols")
                  if f not in used and getattr(self, f) != getattr(GenSpec, f)]
        if unused:
            raise ValueError(f"model {self.model!r} does not read {', '.join(unused)}")

    def node_count(self) -> int:
        return self.rows * self.cols if self.model == "grid" else self.n


def _gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    if p <= 0 or n < 2:
        return []
    if p >= 1.0:
        return [(u, v) for v in range(n) for u in range(v)]
    edges = []
    lq = math.log1p(-p)
    v, u = 1, -1
    while v < n:
        r = rng.random()
        u += 1 + int(math.log1p(-r) / lq)
        while u >= v and v < n:
            u -= v
            v += 1
        if v < n:
            edges.append((u, v))
    return edges


def _model_edges(spec: GenSpec, rng: random.Random) -> list[tuple[int, int]]:
    n = spec.node_count()
    if spec.model == "gnp":
        return _gnp_edges(n, spec.p, rng)
    if spec.model == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if spec.model == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return [(i, (i + 1) % n) for i in range(n)]
    if spec.model == "star":
        return [(0, i) for i in range(1, n)]
    if spec.model == "grid":
        if spec.rows < 1 or spec.cols < 1:
            raise ValueError("grid needs rows >= 1 and cols >= 1")
        edges = []
        for r in range(spec.rows):
            for c in range(spec.cols):
                v = r * spec.cols + c
                if c + 1 < spec.cols:
                    edges.append((v, v + 1))
                if r + 1 < spec.rows:
                    edges.append((v, v + spec.cols))
        return edges
    raise ValueError(f"unknown model {spec.model!r}")


def parse_weight_rule(text: str) -> dict:
    """The GenSpec fields that 'uniform-int:LO:HI' or 'id-mod:C' sets."""
    parts = text.split(":")
    if parts[0] == "uniform-int" and len(parts) == 3:
        return {"weight_rule": "uniform-int", "w_lo": int(parts[1]), "w_hi": int(parts[2])}
    if parts[0] == "id-mod" and len(parts) == 2:
        return {"weight_rule": "id-mod", "mod": int(parts[1])}
    raise ValueError(f"bad weight rule {text!r} (use uniform-int:LO:HI or id-mod:C)")


def _weights(spec: GenSpec, n: int, rng: random.Random) -> np.ndarray:
    if spec.weight_rule == "uniform-int":
        if spec.w_lo > spec.w_hi:
            raise ValueError("uniform-int needs lo <= hi")
        return np.asarray([float(rng.randint(spec.w_lo, spec.w_hi)) for _ in range(n)])
    if spec.weight_rule == "id-mod":
        if spec.mod < 1:
            raise ValueError("id-mod needs a positive modulus")
        return np.asarray([float(v % spec.mod) for v in range(n)])
    raise ValueError(f"unknown weight rule {spec.weight_rule!r}")


def generate_graph(spec: GenSpec) -> Graph:
    n = spec.node_count()
    if n < 0:
        raise ValueError("node count must be >= 0")
    rng = random.Random(spec.seed)
    edges = _model_edges(spec, rng)
    weights = _weights(spec, n, rng)
    return build_graph(n, edges, weights)


def random_gnp(n: int, p: float, seed: int, w_lo: int = 1, w_hi: int = 200) -> Graph:
    """Convenience wrapper used throughout the tests."""
    return generate_graph(GenSpec(model="gnp", n=n, p=p, seed=seed,
                                  w_lo=w_lo, w_hi=w_hi))
