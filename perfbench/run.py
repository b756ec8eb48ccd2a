"""Solver benchmark: time to quality end to end, and per-layer attribution.

    python3 perfbench/run.py --workload gnp-10k --seed 1 --seconds 9 --trace 0

Run from the root of a source checkout. It writes the workload's inputs
from --seed with its own generator (inputs.py), starts one solver process
(solve.py) on them, waits for it, and prints one JSON object as the last
line of standard output: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it is the run record
(machine, input sizes and hashes). Scratch files go under .bench_build/.
See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from inputs import make_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DEADLINE_S = 175.0  # the whole run, solver process included

# Per run: `instances` graphs drawn from --seed. Each is loaded once and
# solved for k iterations; the first is solved again as a repeat, and each of
# the first `deadline_solves` gets one fixed-deadline solve; those share
# --seconds. Many graphs per run keep the figures steady: best weight and
# local-search length both differ by graph, whatever the solver does.
WORKLOADS = {
    # ~4 iterations/s: randomized greedy, relink, per-call LS set-up
    # (build, make_maximal, copy) dominate
    "gnp-10k": {"n": 10_000, "p": 25_000 / (10_000 * 9_999 / 2), "instances": 32, "k": 2,
                "deadline_solves": 6},
    # average degree ~100 and LP-biased perturbation: interstate updates and
    # (2,*)/AAP evaluation dominate, per-iteration O(n) set-up does not
    "dense-1k-lp": {"n": 1_000, "p": 0.1, "relaxed": True, "instances": 32, "k": 2,
                    "deadline_solves": 6},
    # Criterion-9 size (m~5e5): adaptive greedy, load, memory and deadline
    # overshoot. Not in BENCHMARK.json: one local search here takes 2-6 s,
    # so a run cannot hold enough of them for steady figures.
    "gnp-100k": {"n": 100_000, "p": 5e5 / (100_000 * 99_999 / 2), "instances": 1, "k": 2,
                 "deadline_solves": 1},
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="input seed")
    ap.add_argument("--seconds", type=float, required=True,
                    help="wall budget shared by the fixed-deadline solves")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.monotonic()
    # SIGTERM unwinds through subprocess.run, which kills and reaps the solver
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "mwis", "__init__.py")):
        print(f"perfbench: no solver source under {ROOT}/src", file=sys.stderr)
        return 2

    spec = dict(WORKLOADS[args.workload], name=args.workload)
    os.makedirs(BENCH_DIR, exist_ok=True)
    stem = os.path.join(BENCH_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    work = tempfile.mkdtemp(prefix="inputs-", dir=BENCH_DIR)
    try:
        inputs = [make_inputs(spec, args.seed, i, work) for i in range(spec["instances"])]
        plan = {"root": ROOT, "workload": spec, "inputs": inputs, "seconds": args.seconds,
                "trace": bool(args.trace), "spans_path": stem + ".spans.tsv"}
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as f:
            json.dump(plan, f)
        # one solver process at a time, no helper threads in numpy
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        child = [sys.executable, os.path.join(ROOT, "perfbench", "solve.py"),
                 plan_path, stem + ".json"]
        try:
            proc = subprocess.run(child, stdout=sys.stderr, env=env, cwd=ROOT,
                                  timeout=DEADLINE_S - (time.monotonic() - t_start))
        except subprocess.TimeoutExpired:
            print("perfbench: solver process timed out", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"perfbench: solver process exited with {proc.returncode}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(stem + ".json", encoding="utf-8") as f:
        result = json.load(f)
    for r in result["runs"]:
        for e in r["errors"]:
            print(f"perfbench: {r['kind']} seed {r.get('seed')}: {e}", file=sys.stderr)
    if "metrics" not in result:
        print("perfbench: no solve finished; nothing to report", file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    print(json.dumps({"record": {"workload": args.workload, "seed": args.seed,
                                 "machine": result["machine"], "inputs": result["inputs"]}}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
