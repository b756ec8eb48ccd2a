"""Workload inputs: the benchmark's own G(n,p) generator and file writers.

Standard library plus numpy only, so the inputs do not depend on the solver
code being measured. The same (workload, seed) always gives byte-identical
files; the SHA-256 of each file goes into the run record so that two commits
can show they solved the same instances.
"""

from __future__ import annotations

import hashlib
import os
import zlib

import numpy as np


def gnp_edges(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Edge keys u*n+v (u < v), sorted, of one G(n,p) draw.

    The edge count is Binomial(n(n-1)/2, p); the edges are then a uniform
    sample of that many distinct unordered pairs, which is exactly G(n,p).
    """
    m = int(rng.binomial(n * (n - 1) // 2, p))
    keys = np.zeros(0, dtype=np.int64)
    while len(keys) < m:
        k = 2 * (m - len(keys)) + 16
        u = rng.integers(0, n, k, dtype=np.int64)
        v = rng.integers(0, n, k, dtype=np.int64)
        keep = u != v
        u, v = u[keep], v[keep]
        keys = np.unique(np.concatenate([keys, np.minimum(u, v) * n + np.maximum(u, v)]))
    return np.sort(keys[rng.choice(len(keys), m, replace=False)])


def relaxed_values(n: int, keys: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Stand-in for an LP relaxation: x_v = w_v / max weight in N[v].

    It is 1 on local weight maxima, which a heavy independent set tends to
    contain, and small next to heavier neighbours.
    """
    u, v = keys // n, keys % n
    top = weights.astype(np.float64)
    np.maximum.at(top, u, weights[v])
    np.maximum.at(top, v, weights[u])
    return weights / top


def _write(path: str, lines: list[str]) -> str:
    data = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as f:
        f.write(data)
    return hashlib.sha256(data).hexdigest()


def make_inputs(spec: dict, seed: int, instance: int, out_dir: str) -> dict:
    """Write one instance's graph (edge-list format) and, if asked, relaxed file.

    Returns the input record: paths, n, m and content hashes. The arrays the
    solver's outputs are checked against go to an .npz file beside them.
    """
    rng = np.random.default_rng([seed, zlib.crc32(spec["name"].encode()), instance])
    n = spec["n"]
    keys = gnp_edges(n, spec["p"], rng)
    weights = rng.integers(1, 201, n, dtype=np.int64)

    graph_path = os.path.join(out_dir, f"graph-{instance}.txt")
    lines = [f"{n} {len(keys)}"]
    lines += [f"w {i} {x}" for i, x in enumerate(weights.tolist())]
    lines += [f"e {k // n} {k % n}" for k in keys.tolist()]
    rec = {"n": n, "m": len(keys), "graph": graph_path,
           "graph_sha256": _write(graph_path, lines)}
    if spec.get("relaxed"):
        relaxed_path = os.path.join(out_dir, f"relaxed-{instance}.txt")
        x = relaxed_values(n, keys, weights)
        rec["relaxed"] = relaxed_path
        rec["relaxed_sha256"] = _write(
            relaxed_path, [f"{i} {v!r}" for i, v in enumerate(x.tolist())])
    rec["arrays"] = os.path.join(out_dir, f"arrays-{instance}.npz")
    np.savez(rec["arrays"], keys=keys, weights=weights)
    return rec
