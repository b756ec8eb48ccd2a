"""Batch command-line front end.

Subcommands:
  solve     run the full metaheuristic on a graph file
  exact     exact optimum for small graphs (n <= 30; n <= 20 to enumerate)
  generate  write a synthetic instance in edge-list format
  report    cross-run t* statistic from trace CSV files

Exit codes: 0 success, 1 input error, 2 infeasible initial solution.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import driver, generate, oracle
from .driver import RunConfig
from .graph import GraphFormatError, load_graph, save_graph
from .greedy import GreedyConfig
from .local_search import LocalSearchParams
from .lp_bias import DEFAULT_EPSILON, load_relaxed
from .relink import RelinkParams
from .solution import InfeasibleSolutionError, load_solution, save_solution

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2


def _add_solve_parser(sub) -> None:
    """Every solver default comes from its config class (or lp_bias)."""
    rc, gr = RunConfig, GreedyConfig
    ls, rl = LocalSearchParams, RelinkParams
    p = sub.add_parser("solve", help="run the metaheuristic solver")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", default="edge-list", choices=["edge-list", "metis"])
    p.add_argument("--time-limit", type=float, default=rc.time_limit)
    p.add_argument("--seed", type=int, default=rc.seed)
    p.add_argument("--initial", default=None, help="initial solution file")
    p.add_argument("--relaxed", default=None, help="relaxed LP solution file")
    p.add_argument("--trace", default=None, help="trace CSV output path")
    p.add_argument("--solution-out", default=None, help="write best solution node IDs here")
    p.add_argument("--greedy-k-fraction", type=float, default=gr.k_fraction)
    p.add_argument("--num-iterations", type=int, default=ls.num_iterations)
    p.add_argument("--exact-recursion-limit", type=int, default=ls.exact_recursion_limit)
    p.add_argument("--aap-max-len", type=int, default=ls.aap_max_len)
    p.add_argument("--aap-gain-floor", type=float, default=ls.aap_gain_floor)
    p.add_argument("--aap-delta", type=float, default=ls.aap_delta)
    p.add_argument("--relink-f0", type=float, default=rl.f0)
    p.add_argument("--relink-cn0", type=float, default=rl.c_n0)
    p.add_argument("--relink-cp0", type=float, default=rl.c_p0)
    p.add_argument("--relink-f-decay", type=float, default=rl.f_decay)
    p.add_argument("--relink-budget-growth", type=float, default=rl.budget_growth)
    p.add_argument("--lp-epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--check-interstate-every", type=int, default=rc.check_interstate_every,
                   help="debug: verify the interstate graph every N committed moves")


def _config_for(args) -> RunConfig:
    return RunConfig(
        time_limit=args.time_limit,
        seed=args.seed,
        greedy=GreedyConfig(k_fraction=args.greedy_k_fraction),
        ls_params=LocalSearchParams(
            num_iterations=args.num_iterations,
            exact_recursion_limit=args.exact_recursion_limit,
            aap_max_len=args.aap_max_len,
            aap_gain_floor=args.aap_gain_floor,
            aap_delta=args.aap_delta),
        relink_params=RelinkParams(
            f0=args.relink_f0, c_n0=args.relink_cn0, c_p0=args.relink_cp0,
            f_decay=args.relink_f_decay, budget_growth=args.relink_budget_growth),
        check_interstate_every=args.check_interstate_every,
    )


def _cmd_solve(args) -> int:
    g = load_graph(args.graph, args.format)
    initial = None
    if args.initial:
        # infeasibility is its own exit code; surface it before solving
        try:
            initial = load_solution(args.initial, g)
        except InfeasibleSolutionError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_INFEASIBLE
    relaxed = load_relaxed(args.relaxed, g, args.lp_epsilon) if args.relaxed else None
    cfg = _config_for(args)
    best, trace = driver.run(g, cfg, initial=initial, relaxed=relaxed)
    if args.trace:
        driver.write_trace_csv(trace, args.trace)
    if args.solution_out:
        save_solution(best, args.solution_out)
    print(driver.summary_json(driver.summarize(g, cfg, best, trace)), end="")
    return EXIT_OK


def _cmd_exact(args) -> int:
    g = load_graph(args.graph, args.format)
    res = oracle.exact_mwis(g, method=args.method)
    print(json.dumps({"weight": res.weight, "witness": sorted(res.witness),
                      "explored": res.explored}, sort_keys=True))
    return EXIT_OK


def _parse_weight_rule(text: str) -> dict:
    parts = text.split(":")
    if parts[0] == "uniform-int" and len(parts) == 3:
        return {"weight_rule": "uniform-int", "w_lo": int(parts[1]), "w_hi": int(parts[2])}
    if parts[0] == "id-mod" and len(parts) == 2:
        return {"weight_rule": "id-mod", "mod": int(parts[1])}
    raise ValueError(f"bad weight rule {text!r} (use uniform-int:LO:HI or id-mod:C)")


def _cmd_generate(args) -> int:
    spec = generate.GenSpec(model=args.model, n=args.n, p=args.p,
                            rows=args.rows, cols=args.cols, seed=args.seed,
                            **_parse_weight_rule(args.weights))
    g = generate.generate_graph(spec)
    save_graph(g, args.out, "edge-list")
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return EXIT_OK


def _cmd_report(args) -> int:
    runs = []
    for path in args.traces:
        rows = []
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            if not {"elapsed_s", "best_weight", "event"} <= set(reader.fieldnames or ()):
                raise ValueError(f"{path}: not a trace CSV (expected elapsed_s,best_weight,event)")
            for row in reader:
                try:
                    rows.append((float(row["elapsed_s"]), float(row["best_weight"])))
                except (TypeError, ValueError) as e:  # TypeError: a short row
                    raise ValueError(f"{path}:{reader.line_num}: {e}") from None
        if not rows:
            print(f"error: empty trace {path}", file=sys.stderr)
            return EXIT_INPUT
        runs.append((path, rows))
    best_path, best_rows = max(runs, key=lambda r: r[1][-1][1])
    t_star = next((t for t, w in best_rows if w >= args.threshold), None)
    print(json.dumps({
        "threshold": args.threshold,
        "best_run": best_path,
        "best_final": best_rows[-1][1],
        "t_star": t_star,
        "runs": len(runs),
    }, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mwis",
                                     description="maximum-weight independent set solver")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_solve_parser(sub)

    p = sub.add_parser("exact", help="exact optimum for small graphs")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", default="edge-list", choices=["edge-list", "metis"])
    p.add_argument("--method", default="branch-and-bound",
                   choices=["branch-and-bound", "enumerate"],
                   help=f"branch-and-bound takes n <= {oracle.BB_NODE_LIMIT}, "
                        f"enumerate n <= {oracle.ENUM_NODE_LIMIT}")

    p = sub.add_parser("generate", help="write a synthetic instance")
    p.add_argument("--model", required=True,
                   choices=["gnp", "path", "cycle", "star", "grid"])
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--rows", type=int, default=0)
    p.add_argument("--cols", type=int, default=0)
    p.add_argument("--weights", default="uniform-int:1:200")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="compute t* across trace files")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("traces", nargs="+")

    args = parser.parse_args(argv)
    command = {"solve": _cmd_solve, "exact": _cmd_exact,
               "generate": _cmd_generate, "report": _cmd_report}[args.command]
    try:
        return command(args)
    except (GraphFormatError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
