"""Batch command-line front end with the subcommands solve, exact, generate and
report; `mwis <subcommand> --help` lists each one's flags. Exit codes: 0
success, 1 input error, 2 infeasible initial solution or a usage error that
argparse refuses (an unknown flag, a missing --graph, --num-iterations 2.5).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import driver, generate, oracle
from .driver import RunConfig
from .graph import GraphFormatError, load_graph, save_graph
from .greedy import GreedyConfig
from .local_search import LocalSearchParams
from .lp_bias import DEFAULT_EPSILON, check_epsilon, load_relaxed
from .relink import RelinkParams
from .solution import InfeasibleSolutionError, load_solution, save_solution

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2


# Each solve tuning flag, by the config class whose field it sets. The flag's
# default is that field's default; its type is int for an int default and
# float otherwise (aap_gain_floor's None too).
SOLVE_FLAGS = {
    RunConfig: {"--time-limit": "time_limit", "--seed": "seed",
                "--check-interstate-every": "check_interstate_every"},
    GreedyConfig: {"--greedy-noise": "noise"},
    LocalSearchParams: {"--num-iterations": "num_iterations",
                        "--exact-recursion-limit": "exact_recursion_limit",
                        "--aap-max-len": "aap_max_len", "--aap-gain-floor": "aap_gain_floor",
                        "--aap-delta": "aap_delta"},
    RelinkParams: {"--relink-f0": "f0", "--relink-cn0": "c_n0", "--relink-cp0": "c_p0",
                   "--relink-f-decay": "f_decay", "--relink-budget-growth": "budget_growth"},
}
FLAG_HELP = {"--check-interstate-every":
             "debug: verify the interstate graph every N committed moves"}
# the GenSpec fields that generate sets from flags of the same name
GEN_FIELDS = ("n", "p", "rows", "cols", "seed")


def _add_field_flag(p, flag: str, cls, name: str) -> None:
    default = getattr(cls, name)
    p.add_argument(flag, default=default, help=FLAG_HELP.get(flag),
                   type=int if type(default) is int else float)


def _add_solve_parser(sub) -> None:
    p = sub.add_parser("solve", help="run the metaheuristic solver")
    p.add_argument("--graph", required=True)
    p.add_argument("--format", default="edge-list", choices=["edge-list", "metis"])
    p.add_argument("--initial", default=None, help="initial solution file")
    p.add_argument("--relaxed", default=None, help="relaxed LP solution file")
    p.add_argument("--trace", default=None, help="trace CSV output path")
    p.add_argument("--solution-out", default=None, help="write best solution node IDs here")
    p.add_argument("--lp-epsilon", type=float, default=DEFAULT_EPSILON)  # not a config field
    for cls, flags in SOLVE_FLAGS.items():
        for flag, name in flags.items():
            _add_field_flag(p, flag, cls, name)


def _config_for(args) -> RunConfig:
    kw = {cls: {name: getattr(args, flag[2:].replace("-", "_")) for flag, name in flags.items()}
          for cls, flags in SOLVE_FLAGS.items()}
    return RunConfig(greedy=GreedyConfig(**kw[GreedyConfig]),
                     ls_params=LocalSearchParams(**kw[LocalSearchParams]),
                     relink_params=RelinkParams(**kw[RelinkParams]), **kw[RunConfig])


def _cmd_solve(args) -> int:
    check_epsilon(args.lp_epsilon)  # with or without --relaxed
    g = load_graph(args.graph, args.format)
    initial = load_solution(args.initial, g) if args.initial else None
    relaxed = load_relaxed(args.relaxed, g, args.lp_epsilon) if args.relaxed else None
    cfg = _config_for(args)
    best, trace = driver.run(g, cfg, initial=initial, relaxed=relaxed)
    if args.trace:
        driver.write_trace(trace, args.trace)
    if args.solution_out:
        save_solution(best, args.solution_out)
    print(json.dumps(driver.summarize(g, cfg, best, trace), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_exact(args) -> int:
    g = load_graph(args.graph, args.format)
    res = oracle.exact_mwis(g)
    print(json.dumps({"weight": res.weight, "witness": sorted(res.witness),
                      "explored": res.explored}, sort_keys=True))
    return EXIT_OK


def _cmd_generate(args) -> int:
    spec = generate.GenSpec(model=args.model, **{k: getattr(args, k) for k in GEN_FIELDS},
                            **generate.parse_weight_rule(args.weights))
    g = generate.generate_graph(spec)
    save_graph(g, args.out, "edge-list")
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return EXIT_OK


def _cmd_report(args) -> int:
    if not math.isfinite(args.threshold):  # json.dumps would print NaN or Infinity
        raise ValueError("threshold must be finite")
    runs = [(path, driver.read_trace(path)) for path in args.traces]
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
    p.add_argument("--graph", required=True,
                   help=f"a graph of n <= {oracle.BB_NODE_LIMIT} nodes")
    p.add_argument("--format", default="edge-list", choices=["edge-list", "metis"])

    p = sub.add_parser("generate", help="write a synthetic instance")
    p.add_argument("--model", required=True,
                   choices=["gnp", "path", "cycle", "star", "grid"])
    for name in GEN_FIELDS:
        _add_field_flag(p, f"--{name}", generate.GenSpec, name)
    p.add_argument("--weights", default=f"uniform-int:{generate.GenSpec.w_lo}:"
                                        f"{generate.GenSpec.w_hi}")
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="compute t* across trace files")
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("traces", nargs="+")

    args = parser.parse_args(argv)
    command = {"solve": _cmd_solve, "exact": _cmd_exact,
               "generate": _cmd_generate, "report": _cmd_report}[args.command]
    try:
        return command(args)
    except InfeasibleSolutionError as e:  # its own exit code
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (GraphFormatError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
