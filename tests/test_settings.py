"""Every setting rejects NaN, the time limit, the LP epsilon and the AAP
noise must be finite, and a seed must be an integer.

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
    # random.Random seeds a float from its hash, and a NaN's hash varies by object
    "seed=nan": lambda: RunConfig(seed=NAN),
    "spec_seed=nan": lambda: GenSpec(seed=NAN),
    "c_n0=nan": lambda: RelinkParams(c_n0=NAN),
    "c_p0=nan": lambda: RelinkParams(c_p0=NAN),
    "budget_growth=nan": lambda: RelinkParams(budget_growth=NAN),
    "num_iterations=nan": lambda: LocalSearchParams(num_iterations=NAN),
    "aap_max_len=nan": lambda: LocalSearchParams(aap_max_len=NAN),
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
    spec = dict(model="gnp", n=20, p=0.2)
    assert graphs_equal(generate_graph(GenSpec(**spec, seed=np.uint8(3))),
                        generate_graph(GenSpec(**spec, seed=3)))
