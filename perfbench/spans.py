"""Span recorder for the traced run, and the per-layer metrics derived from it.

Spans come from the benchmark's own wrappers, installed around module-level
names at the solver's call sites and around class methods; nothing inside
the solver changes. Each span records its name, start, end, the span open
when it began (its parent) and one number (relink steps, or whether a move
procedure improved the solution). Spans stay in memory and are written out
once, after the run.
"""

from __future__ import annotations

import contextlib
import importlib
import time
import weakref
from array import array

import numpy as np

# move kind -> MoveEngine method
MOVE_METHODS = {"star_one": "star_one_moves", "one_star": "one_star_moves",
                "two_star": "two_star_moves", "aap": "aap_moves", "perturb": "perturb"}

# (module[:class], attribute, span name). Module-level names are patched where
# they are looked up: `mwis.local_search` calls `build`, `add_member`, ...
# through its own globals, so that module's binding is the one replaced.
TARGETS = [
    ("mwis.graph", "load_graph", "graph.load"),
    ("mwis.graph", "build_graph", "graph.build_graph"),
    ("mwis.driver", "run", "driver.run"),
    ("mwis.greedy", "adaptive_greedy", "greedy.adaptive"),
    ("mwis.driver", "randomized_greedy", "greedy.randomized"),
    ("mwis.solution:Solution", "copy", "solution.copy"),
    ("mwis.local_search", "make_maximal", "solution.make_maximal"),
    ("mwis.relink", "make_maximal", "solution.make_maximal"),
    ("mwis.local_search", "build", "interstate.build"),
    ("mwis.local_search", "add_member", "interstate.update"),
    ("mwis.local_search", "remove_member", "interstate.update"),
    ("mwis.driver", "local_search", "ls.call"),
    ("mwis.driver", "path_relink", "relink.call"),
    ("mwis.local_search", "sample_biased", "lp_bias.sample"),
    ("mwis.local_search", "max_weight_subset", "oracle.subset"),
    ("mwis.driver:EliteSet", "try_add_and_evict", "driver.elite"),
    ("mwis.driver:EliteSet", "random_entry", "driver.elite"),
    ("mwis.driver", "solutions_equivalent", "driver.equivalent"),
] + [("mwis.local_search:MoveEngine", meth, f"ls.{kind}")
     for kind, meth in MOVE_METHODS.items()]


class HookError(RuntimeError):
    """A name the benchmark wraps is missing from the solver."""


def resolve(target: str):
    """Module or class for "pkg.mod" / "pkg.mod:Class".

    importlib is required: the package re-exports some functions under their
    module's name (`mwis.local_search` is a function attribute of `mwis`).
    """
    mod_name, _, cls = target.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def patched(owner, attr: str, make):
    """Replace owner.attr with make(original) for the duration of the block."""
    orig = getattr(owner, attr, None)
    if not callable(orig):
        raise HookError(f"{getattr(owner, '__name__', owner)}.{attr} is missing")
    setattr(owner, attr, make(orig))
    try:
        yield
    finally:
        setattr(owner, attr, orig)


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.value = array("d")
        self._stack: list[int] = []
        self._engines: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _open(self, name: str) -> int:
        sid = len(self.start)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return wrapper

    def _wrap_relink(self, name: str, fn):
        # path_relink's step_log receives one entry per applied step
        def wrapper(*args, **kwargs):
            steps = kwargs.get("step_log")
            if steps is None:
                steps = kwargs["step_log"] = []
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
                self.value[sid] = len(steps)
        return wrapper

    def _wrap_move(self, name: str, fn):
        """value = 1 when the call improved the solution.

        A perturbation counts as a hit when the local search later reaches a
        weight above its best before the perturbation (a new best).
        """
        is_perturb = name == "ls.perturb"

        def wrapper(engine, *args, **kwargs):
            track = self._engines.setdefault(engine, [float("-inf"), -1, 0.0])
            sid = self._open(name)
            if is_perturb:
                track[1], track[2] = sid, track[0]
            try:
                out = fn(engine, *args, **kwargs)
            finally:
                self._close(sid)
            if not is_perturb:
                w = engine.s.total_weight
                self.value[sid] = 1.0 if out else 0.0
                if track[1] >= 0 and w > track[2]:
                    self.value[track[1]] = 1.0
                    track[1] = -1
                track[0] = max(track[0], w)
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target; raises HookError if one is missing."""
        with contextlib.ExitStack() as stack:
            for target, attr, name in TARGETS:
                if name == "relink.call":
                    make = self._wrap_relink
                elif target.endswith(":MoveEngine"):
                    make = self._wrap_move
                else:
                    make = self._wrap
                stack.enter_context(patched(resolve(target), attr,
                                            lambda fn, n=name, mk=make: mk(n, fn)))
            yield self

    def write_tsv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name\tstart\tend\tparent\tvalue\n")
            for i in range(len(self.start)):
                f.write(f"{self.names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                        f"\t{self.parent[i]}\t{self.value[i]!r}\n")


def layer_metrics(rec: SpanRecorder, windows: list[tuple[float, float]],
                  iterations: int) -> dict[str, float]:
    """Per-layer figures over the iteration windows of the traced runs.

    windows holds, per traced run, the interval from the end of the first
    local search to the end of iteration K; `iterations` is the number of
    iterations they cover. graph.* (set-up) and greedy.adaptive_s (initial
    construction) are taken outside the windows. Figures named *_s or *_us
    are per call; *_per_iter, ls.<kind>.calls and ls.<kind>.self_s and the
    driver.* figures are per iteration.
    """
    name = np.frombuffer(rec.name, dtype=np.uint16)
    start = np.frombuffer(rec.start, dtype=np.float64)
    end = np.frombuffer(rec.end, dtype=np.float64)
    parent = np.frombuffer(rec.parent, dtype=np.int64)
    value = np.frombuffer(rec.value, dtype=np.float64)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    inside = np.zeros(len(dur), dtype=bool)
    for a, b in windows:
        inside |= (start >= a) & (end <= b)
    window_s = sum(b - a for a, b in windows)
    ids = {n: i for i, n in enumerate(rec.names)}

    def sel(n: str, windowed: bool = True) -> np.ndarray:
        mask = name == ids.get(n, -1)
        return mask & inside if windowed else mask

    def mean(x: np.ndarray) -> float:
        return float(x.mean()) if len(x) else 0.0

    def per_iter(x) -> float:
        return float(np.sum(x)) / iterations

    out: dict[str, float] = {
        "graph.load_s": mean(dur[sel("graph.load", False)]),
        "graph.build_graph_s": mean(dur[sel("graph.build_graph", False)]),
        "greedy.adaptive_s": mean(dur[sel("greedy.adaptive", False)]),
    }
    rg = sel("greedy.randomized")
    out["greedy.randomized_s"] = mean(dur[rg])
    out["greedy.randomized_share"] = float(dur[rg].sum()) / window_s
    cp = sel("solution.copy")
    out["solution.copy_s"] = mean(dur[cp])
    out["solution.copy_per_iter"] = per_iter(cp)
    out["solution.make_maximal_s"] = mean(dur[sel("solution.make_maximal")])
    bd = sel("interstate.build")
    out["interstate.build_s"] = mean(dur[bd])
    out["interstate.build_per_iter"] = per_iter(bd)
    up = sel("interstate.update")
    out["interstate.update_us"] = mean(dur[up]) * 1e6
    out["interstate.updates_per_iter"] = per_iter(up)
    out["interstate.update_share"] = float(dur[up].sum()) / window_s

    # LS set-up: from entering local_search to its first move procedure
    ls = sel("ls.call")
    move_ids = [ids[f"ls.{k}"] for k in MOVE_METHODS if f"ls.{k}" in ids]
    first_move = np.isin(name, move_ids) & np.isin(parent, np.flatnonzero(ls))
    p, first = np.unique(parent[first_move], return_index=True)
    out["ls.setup_s"] = mean(start[np.flatnonzero(first_move)[first]] - start[p])
    out["ls.calls_per_iter"] = per_iter(ls)
    for kind in MOVE_METHODS:
        mv = sel(f"ls.{kind}")
        out[f"ls.{kind}.calls"] = per_iter(mv)
        out[f"ls.{kind}.self_s"] = per_iter(self_t[mv])
        out[f"ls.{kind}.hit_ratio"] = mean(value[mv])

    rl = sel("relink.call")
    steps = float(value[rl].sum())
    out["relink.call_s"] = mean(dur[rl])
    out["relink.steps"] = mean(value[rl])
    out["relink.step_ms"] = float(dur[rl].sum()) / steps * 1e3 if steps else 0.0
    lp = sel("lp_bias.sample")
    out["lp_bias.sample_us"] = mean(dur[lp]) * 1e6
    out["lp_bias.samples_per_iter"] = per_iter(lp)
    orc = sel("oracle.subset")
    out["oracle.subset_us"] = mean(dur[orc]) * 1e6
    out["oracle.subset_calls_per_iter"] = per_iter(orc)
    out["driver.elite_s"] = per_iter(dur[sel("driver.elite")])
    out["driver.equivalent_s"] = per_iter(dur[sel("driver.equivalent")])
    # driver self time: window minus the run's direct children inside it
    run_children = np.isin(parent, np.flatnonzero(sel("driver.run", False))) & inside
    out["driver.self_s"] = (window_s - float(dur[run_children].sum())) / iterations
    return out
