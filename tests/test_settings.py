"""Every setting rejects NaN, the time limit, the LP epsilon, the AAP
noise and the relink budget growth must be finite, and a seed or a count
must be an integer.

A NaN fails every comparison, so a check written as `x <= 0` lets it pass.
These run under `python -O` too: rejecting outside input must not rest on
`assert`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from mwis.driver import RunConfig, run
from mwis.generate import GenSpec, generate_graph, random_gnp
from mwis.graph import graphs_equal
from mwis.local_search import LocalSearchParams
from mwis.lp_bias import make_relaxed
from mwis.relink import RelinkParams

from conftest import FakeClock

NAN, INF = math.nan, math.inf

REJECTED = {
    "time_limit=nan": lambda: RunConfig(time_limit=NAN),
    "time_limit=inf": lambda: RunConfig(time_limit=INF),
    "check_interstate_every=nan": lambda: RunConfig(check_interstate_every=NAN),
    "check_interstate_every=0.5": lambda: RunConfig(check_interstate_every=0.5),
    "max_iterations=nan": lambda: RunConfig(max_iterations=NAN),
    "max_iterations=inf": lambda: RunConfig(max_iterations=INF),
    "max_iterations=2.5": lambda: RunConfig(max_iterations=2.5),
    "max_iterations=0": lambda: RunConfig(max_iterations=0),
    "max_iterations=-1": lambda: RunConfig(max_iterations=-1),
    "max_iterations='3'": lambda: RunConfig(max_iterations="3"),
    # random.Random seeds a float from its hash, and a NaN's hash varies by object
    "seed=nan": lambda: RunConfig(seed=NAN),
    "spec_seed=nan": lambda: GenSpec(seed=NAN),
    # generate_graph would raise TypeError deep inside
    "spec_n=nan": lambda: GenSpec(model="path", n=NAN),
    "spec_rows=2.5": lambda: GenSpec(model="grid", rows=2.5, cols=2),
    "spec_cols=2.5": lambda: GenSpec(model="grid", rows=2, cols=2.5),
    "spec_w_lo=0.5": lambda: GenSpec(n=3, w_lo=0.5),
    "spec_w_hi=inf": lambda: GenSpec(n=3, w_hi=INF),
    "spec_mod=2.5": lambda: GenSpec(n=3, weight_rule="id-mod", mod=2.5),
    "c_n0=nan": lambda: RelinkParams(c_n0=NAN),
    "c_p0=nan": lambda: RelinkParams(c_p0=NAN),
    "budget_growth=nan": lambda: RelinkParams(budget_growth=NAN),
    # 0 * inf would give a zero budget of NaN after one stagnation
    "budget_growth=inf": lambda: RelinkParams(c_n0=0.0, c_p0=-1.0, budget_growth=INF),
    "num_iterations=nan": lambda: LocalSearchParams(num_iterations=NAN),
    # a count must be an integer: local_search would never end at inf
    "num_iterations=inf": lambda: LocalSearchParams(num_iterations=INF),
    "exact_recursion_limit=2.5": lambda: LocalSearchParams(exact_recursion_limit=2.5),
    "aap_max_len=nan": lambda: LocalSearchParams(aap_max_len=NAN),
    "aap_max_len=1.5": lambda: LocalSearchParams(aap_max_len=1.5),
    "aap_delta=nan": lambda: LocalSearchParams(aap_delta=NAN),
    "aap_delta=inf": lambda: LocalSearchParams(aap_delta=INF),
    "aap_gain_floor=nan": lambda: LocalSearchParams(aap_gain_floor=NAN),
    "epsilon=nan": lambda: make_relaxed([0.5, 0.0], epsilon=NAN),
    "epsilon=inf": lambda: make_relaxed([0.5, 0.0], epsilon=INF),
}


@pytest.mark.parametrize("case", REJECTED)
def test_rejected(case):
    with pytest.raises(ValueError):
        REJECTED[case]()


def test_finite_extremes_accepted():
    # the benchmark's "no wall limit" for fixed-iteration solves
    assert RunConfig(time_limit=1e5).time_limit == 1e5
    # no floor on an alternating path's gain
    assert LocalSearchParams(aap_gain_floor=-INF).aap_gain_floor == -INF
    assert make_relaxed([0.5, 0.0], epsilon=1e-300).total > 0
    # any integer seeds a run or a generated graph, numpy's too
    assert RunConfig(seed=np.int64(3)).seed == GenSpec(seed=np.uint8(3)).seed == 3
    # stored as plain ints: random.Random refuses numpy's, and summarize writes JSON
    assert type(RunConfig(seed=np.int64(3)).seed) is type(GenSpec(seed=np.uint8(3)).seed) is int
    g = random_gnp(50, 0.1, 1)
    a, b = (run(g, RunConfig(time_limit=0.002, seed=seed), clock=FakeClock())[0]
            for seed in (np.int64(3), 3))
    assert a.member_list() == b.member_list()
    # and numpy integers count, size and weigh as plain ones
    assert LocalSearchParams(num_iterations=np.int64(4)).num_iterations == 4
    assert RunConfig(check_interstate_every=np.int32(2)).check_interstate_every == 2
    assert RunConfig(max_iterations=np.int32(2)).max_iterations == 2
    grid = dict(model="grid", weight_rule="id-mod")
    assert graphs_equal(generate_graph(GenSpec(**grid, rows=np.int64(2), cols=np.int32(3),
                                               mod=np.uint8(5))),
                        generate_graph(GenSpec(**grid, rows=2, cols=3, mod=5)))
    spec = dict(model="gnp", n=20, p=0.2)
    assert graphs_equal(generate_graph(GenSpec(**spec, seed=np.uint8(3))),
                        generate_graph(GenSpec(**spec, seed=3)))
