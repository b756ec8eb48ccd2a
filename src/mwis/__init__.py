"""Maximum-weight independent set metaheuristic solver.

mwis.local_search and mwis.greedy are the functions, not their submodules:
`import mwis.local_search as L` binds the function. The module, whose
globals the move engine reads, is importlib.import_module("mwis.local_search").
"""

from .driver import EliteSet, RunConfig, TraceEvent, run
from .generate import GenSpec, generate_graph, random_gnp
from .graph import Graph, GraphFormatError, build_graph, is_edge, load_graph, save_graph
from .greedy import GreedyConfig, GreedySource, adaptive_greedy, greedy, randomized_greedy
from .interstate import InterstateState, add_member, build, make_maximal, remove_member, \
    state_mismatches
from .local_search import LocalSearchParams, MoveEngine, MoveOutcome, local_search
from .lp_bias import RelaxedSolution, load_relaxed, make_relaxed, sample_biased
from .oracle import ExactResult, exact_mwis
from .relink import RelinkParams, path_relink
from .solution import InfeasibleSolutionError, Solution, is_independent, load_solution, \
    save_solution, solutions_equivalent

__version__ = "0.1.0"

__all__ = [
    "EliteSet", "ExactResult", "GenSpec", "Graph", "GraphFormatError", "GreedyConfig",
    "GreedySource",
    "InfeasibleSolutionError", "InterstateState", "LocalSearchParams", "MoveEngine",
    "MoveOutcome", "RelaxedSolution", "RelinkParams", "RunConfig", "Solution",
    "TraceEvent", "adaptive_greedy", "add_member", "build", "build_graph",
    "exact_mwis", "generate_graph", "greedy", "is_edge",
    "is_independent", "load_graph", "load_relaxed", "load_solution", "local_search",
    "make_maximal", "make_relaxed", "path_relink", "random_gnp", "randomized_greedy",
    "remove_member", "run", "sample_biased", "save_graph", "save_solution",
    "solutions_equivalent", "state_mismatches",
]
