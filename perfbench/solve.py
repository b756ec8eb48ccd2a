"""Solver process of the benchmark: set-up, solves, output checks, figures.

run.py starts this as `python3 perfbench/solve.py PLAN.json RESULT.json`,
one process per benchmark run, so that the peak RSS is the solver's own and
no other work shares the process. It drives the solver only through its
public functions (`load_graph`, `load_relaxed`, `run` and its `clock`).

Solves of two kinds:
  fixed-iteration  stops `run` after K greedy->relink->LS iterations
                   (IterationStop); gives first_ls_s, iter_s and
                   best_weight_iters, which is deterministic given the seed;
  fixed-deadline   `run` with time_limit=T on the real clock; gives
                   best_weight_wall and solve_wall_s.
Every solve on the i-th graph of a run uses solver seed i (from 1), on
every commit.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from inputs import relaxed_values
from spans import HookError, SpanRecorder, layer_metrics, patched, resolve

K_TIME_LIMIT = 1e5   # far beyond any run; IterationStop ends fixed-iteration solves
WATCHDOG_S = 150.0   # a fixed-iteration solve still running after this has failed
REF_S = 0.01         # reference-kernel time that set-up and solve timings are scaled to


def _reference_kernel() -> int:
    table = {}
    pairs = []
    for i in range(20_000):
        table[i] = i * 7919 % 10_007
        pairs.append((table[i], i))
    pairs.sort()
    return len(pairs)


def reference_s() -> float:
    """Time of a fixed pure-Python kernel now: best of three, GC off.

    Shared machines drift in speed by a third or more over tens of seconds,
    which moves every timing of a run together. Scaling each timing by
    REF_S / (this kernel's time measured around it) removes that drift; the
    kernel belongs to the benchmark, so a change to the solver cannot move it.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            _reference_kernel()
            best = min(best, time.perf_counter() - t)
    finally:
        if gc_was_on:
            gc.enable()
    return best


class IterationStop:
    """Ends `run` after k completed iterations, from outside the solver.

    `run` has no iteration limit, so this counts iterations at the call
    sites in `mwis.driver`: a `local_search` call that follows a
    `path_relink` call completes one. Once k have completed, `clock` returns
    the run's own deadline and the main loop exits at its next check.
    A `max_iterations` stop inside `run` should replace this class.
    """

    def __init__(self, k: int):
        self.k = k
        self.done = 0
        self.t0: float | None = None
        self.relinked = False
        self.watchdog_hit = False
        # perf_counter at the end of the first local search and of each iteration
        self.marks: list[float] = []

    def clock(self) -> float:
        now = time.monotonic()
        if self.t0 is None:
            self.t0 = now  # run() reads its start time first
        if now - self.t0 > WATCHDOG_S:
            self.watchdog_hit = True
        if self.done >= self.k or self.watchdog_hit:
            return self.t0 + K_TIME_LIMIT
        return now

    def _relink(self, orig):
        def wrapper(*args, **kwargs):
            self.relinked = True
            return orig(*args, **kwargs)
        return wrapper

    def _local_search(self, orig):
        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            if self.relinked or not self.marks:
                self.done += self.relinked
                self.relinked = False
                self.marks.append(time.perf_counter())
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        driver = resolve("mwis.driver")
        with patched(driver, "path_relink", self._relink), \
                patched(driver, "local_search", self._local_search):
            yield


class Checker:
    """Vectorised output checks against the generated inputs."""

    def __init__(self, keys: np.ndarray, weights: np.ndarray):
        self.keys = keys
        self.weights = weights.astype(np.float64)
        self.n = len(weights)
        self.rows = self.cols = None

    def graph_errors(self, g) -> list[str]:
        n = self.n
        if g.n != n or g.m != len(self.keys):
            return [f"loaded graph has n={g.n} m={g.m}, expected n={n} m={len(self.keys)}"]
        errs = []
        if not np.array_equal(np.asarray(g.weights), self.weights):
            errs.append("loaded weights differ from the generated ones")
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(np.asarray(g.indptr)))
        cols = np.asarray(g.indices, dtype=np.int64)
        up = rows < cols
        if len(cols) != 2 * len(self.keys) \
                or not np.array_equal(np.sort(rows[up] * n + cols[up]), self.keys) \
                or not np.array_equal(np.sort(cols[~up] * n + rows[~up]), self.keys):
            errs.append("loaded adjacency differs from the generated edges")
        self.rows, self.cols = rows, cols
        return errs

    def result_errors(self, best, trace) -> list[str]:
        errs = []
        members = np.fromiter(best.members(), dtype=np.int64)
        flags = np.zeros(self.n, dtype=bool)
        flags[members] = True
        if flags.sum() != len(members):
            errs.append("a member is listed twice")
        if np.any(flags[self.rows] & flags[self.cols]):
            errs.append("result is not independent")
        member_nbrs = np.bincount(self.rows, weights=flags[self.cols], minlength=self.n)
        if np.any(~flags & (member_nbrs == 0)):
            errs.append("result is not maximal")
        w, rw = best.total_weight, best.recomputed_weight()
        own = float(self.weights[members].sum())
        for label, x in (("recomputed_weight()", rw), ("sum of input weights", own)):
            if abs(w - x) > 1e-9 * max(1.0, abs(x)):
                errs.append(f"total_weight {w!r} differs from {label} {x!r}")
        bw = [ev.best_weight for ev in trace]
        if any(b < a for a, b in zip(bw, bw[1:])):
            errs.append("trace best weight decreases")
        if not bw or bw[-1] != w:
            errs.append("last trace value differs from the returned weight")
        return errs


def fixed_iteration_solve(g, relaxed, checker, seed: int, k: int,
                          recorder: SpanRecorder | None = None) -> dict:
    stop = IterationStop(k)
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(recorder.installed())
        stack.enter_context(stop.installed())  # outermost: its time is driver time
        driver = resolve("mwis.driver")
        best, trace = driver.run(g, driver.RunConfig(time_limit=K_TIME_LIMIT, seed=seed),
                                 clock=stop.clock, relaxed=relaxed)
    errs = checker.result_errors(best, trace)
    if stop.watchdog_hit or stop.done != k:
        errs.append(f"stopped after {stop.done} of {k} iterations")
    first_ls = next((ev.elapsed for ev in trace if ev.event == "local-search"), None)
    if first_ls is None or len(stop.marks) != k + 1:
        errs.append("no local-search event or iteration marks missing")
        return {"seed": seed, "errors": errs}
    return {"seed": seed, "errors": errs, "first_ls_s": first_ls,
            "iter_times": [b - a for a, b in zip(stop.marks, stop.marks[1:])],
            "best_weight": best.total_weight,
            "window": (stop.marks[0], stop.marks[-1])}


def fixed_deadline_solve(g, relaxed, checker, seed: int, limit: float) -> dict:
    driver = resolve("mwis.driver")
    cfg = driver.RunConfig(time_limit=limit, seed=seed)
    t = time.perf_counter()
    best, trace = driver.run(g, cfg, relaxed=relaxed)
    wall = time.perf_counter() - t
    # best weight at each local-search event that the deadline cannot have
    # cut short: entry i is the best after i iterations
    ls_best = [ev.best_weight for ev in trace if ev.event == "local-search" and ev.elapsed < limit]
    return {"seed": seed, "errors": checker.result_errors(best, trace),
            "best_weight": best.total_weight, "solve_wall_s": wall,
            "iterations": sum(ev.event == "relink" for ev in trace), "ls_best": ls_best}


def guarded(fn, *args, **kwargs) -> dict:
    """Run one solve; an exception from the solver is a failed run."""
    try:
        return fn(*args, **kwargs)
    except HookError:
        raise
    except Exception:
        return {"seed": kwargs.get("seed"), "errors": [traceback.format_exc(limit=4)]}


def load_inputs(inputs: dict, checker: Checker, recorder: SpanRecorder | None = None):
    """One set-up: load the graph (and relaxed values) and check them."""
    with recorder.installed() if recorder else contextlib.nullcontext():
        graph_mod, lp_mod = resolve("mwis.graph"), resolve("mwis.lp_bias")
        t = time.perf_counter()
        g = graph_mod.load_graph(inputs["graph"])
        relaxed = lp_mod.load_relaxed(inputs["relaxed"], g) if "relaxed" in inputs else None
        elapsed = time.perf_counter() - t
    errs = checker.graph_errors(g)
    if relaxed is not None and not np.array_equal(
            np.asarray(relaxed.x),
            relaxed_values(checker.n, checker.keys, checker.weights)):
        errs.append("loaded relaxed values differ from the generated ones")
    return g, relaxed, elapsed, errs


def machine_record() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def scaled_median(runs: list[dict], field: str) -> float:
    """Median of a timing field (a number or a list), scaled to REF_S."""
    values = []
    for r in runs:
        v = r[field]
        values.extend(x * r["scale"] for x in (v if isinstance(v, list) else [v]))
    return statistics.median(values)


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    src = os.path.join(plan["root"], "src")
    sys.path.insert(0, src)
    import mwis
    if not os.path.abspath(mwis.__file__).startswith(src + os.sep):
        raise HookError(f"imported mwis from {mwis.__file__}, not from {src}")

    spec, traced = plan["workload"], plan["trace"]
    k = spec["k"]
    limit = plan["seconds"] / spec["deadline_solves"]
    recorder = SpanRecorder() if traced else None
    runs: list[dict] = []  # every attempted operation, with its errors
    ref_before = reference_s()

    for idx, inputs in enumerate(plan["inputs"]):
        seed = idx + 1
        with np.load(inputs["arrays"]) as arrays:
            checker = Checker(arrays["keys"], arrays["weights"])

        def solve(kind: str, fn, **kwargs) -> dict:
            r = guarded(fn, g, relaxed, checker, seed=seed, **kwargs)
            r.update(kind=kind, instance=idx)
            return r

        # load and fixed-iteration solve, timed against the reference kernel
        # run before and after them
        g, relaxed, elapsed, errs = load_inputs(inputs, checker, recorder)
        done = [{"kind": "setup", "instance": idx, "errors": errs, "setup_s": elapsed},
                solve("iterations", fixed_iteration_solve, k=k)]
        if traced:
            done.append(solve("traced", fixed_iteration_solve, k=k, recorder=recorder))
        ref_after = reference_s()
        ref = (ref_before + ref_after) / 2
        ref_before = ref_after
        for r in done:
            r.update(reference_s=ref, scale=REF_S / ref)
        runs.extend(done)
        if not traced:
            if idx == 0:
                runs.append(solve("repeat", fixed_iteration_solve, k=k))
            if idx < spec["deadline_solves"]:
                runs.append(solve("deadline", fixed_deadline_solve, limit=limit))
        g = relaxed = None  # let this graph go before loading the next

    # same instance and seed, same best weight after K iterations: repeats,
    # traced solves, and fixed-deadline solves that finished K iterations
    # before their deadline
    first_k: dict[tuple[int, int], float] = {}
    for r in runs:
        w = r.get("best_weight") if r["kind"] in ("iterations", "traced", "repeat") else None
        if r["kind"] == "deadline" and len(r.get("ls_best", ())) > k:
            w = r["ls_best"][k]
        if w is None:
            continue
        expected = first_k.setdefault((r["instance"], r["seed"]), w)
        if w != expected:
            r["errors"].append(f"best weight after {k} iterations {w!r} differs from "
                               f"{expected!r} in an earlier solve with the same seed")

    failed = sum(bool(r["errors"]) for r in runs)
    # figures come from every operation that finished, checked or not: a
    # failed check shows in `failed` and `correct`, not as a missing metric
    ok = {kind: [r for r in runs if r["kind"] == kind and field in r]
          for kind, field in (("setup", "setup_s"), ("iterations", "iter_times"),
                              ("traced", "iter_times"), ("deadline", "solve_wall_s"))}
    result = {"attempted": len(runs), "failed": failed, "machine": machine_record(),
              "inputs": [{key: v for key, v in inputs.items() if key in ("n", "m") or "sha" in key}
                         for inputs in plan["inputs"]],
              "runs": runs}
    if traced:
        if ok["traced"] and ok["iterations"]:
            metrics = layer_metrics(recorder, [r["window"] for r in ok["traced"]],
                                    k * len(ok["traced"]))
            metrics["trace.overhead_frac"] = (scaled_median(ok["traced"], "iter_times")
                                              / scaled_median(ok["iterations"], "iter_times")
                                              - 1.0)
            result["metrics"] = metrics
        recorder.write_tsv(plan["spans_path"])
    elif ok["setup"] and ok["iterations"] and ok["deadline"]:
        result["metrics"] = {
            "setup_s": scaled_median(ok["setup"], "setup_s"),
            "first_ls_s": scaled_median(ok["iterations"], "first_ls_s"),
            "iter_s": scaled_median(ok["iterations"], "iter_times"),
            "best_weight_iters": statistics.fmean(r["best_weight"] for r in ok["iterations"]),
            "best_weight_wall": statistics.fmean(r["best_weight"] for r in ok["deadline"]),
            "solve_wall_s": statistics.median(r["solve_wall_s"] for r in ok["deadline"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (len(runs) - failed) / len(runs),
        }
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
