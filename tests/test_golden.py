"""Golden determinism check across commits.

Criterion 7 only shows that a run repeats itself within one commit. This test
pins one SHA-256 over the traces and best member sets of 20 small runs under
a deterministic clock, so a change that is meant to keep every result (a
refactor or a speed-up) can show that it did.

The hash was re-pinned when relinking began to hand its interstate structure
to local search: the pruning queues then carry the walk's history instead of
a fresh ascending build, so local search draws its candidates in another
order. Every walk is unchanged, and with a fresh build in local search the
previous hash still holds. A change that alters results on purpose must
update GOLDEN and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random

from mwis.driver import RunConfig, run, trace_csv
from mwis.generate import random_gnp
from mwis.greedy import GreedyConfig
from mwis.lp_bias import make_relaxed

from conftest import FakeClock

GOLDEN = "bd91dd9aa6bf88bdfd5b53d3eeb70083409d27b7331f4babf2542cfac010050d"

MODES = ("deterministic", "randomized", "adaptive")


def golden_runs():
    """Yield (trace csv, best members) for 20 runs of mixed configurations."""
    rng = random.Random(3141)
    for i in range(20):
        n = rng.randint(30, 80)
        g = random_gnp(n, rng.choice([0.05, 0.1, 0.2]), seed=9000 + i,
                       w_lo=0 if i % 5 == 4 else 1, w_hi=200)
        cfg = RunConfig(time_limit=0.005, seed=i,
                        elite_capacity=3 if i % 2 else 1,
                        ls_before_relinking=i % 4 == 1,
                        greedy=GreedyConfig(k_fraction=rng.choice([0.05, 0.1, 0.3]),
                                            mode=MODES[i % 3]))
        relaxed = make_relaxed([rng.random() for _ in range(n)]) if i % 3 == 2 else None
        best, trace = run(g, cfg, clock=FakeClock(), relaxed=relaxed)
        yield trace_csv(trace), best.member_list()


def test_results_match_golden_hash():
    h = hashlib.sha256()
    for csv, members in golden_runs():
        h.update(csv.encode())
        h.update((",".join(map(str, members)) + "\n").encode())
    assert h.hexdigest() == GOLDEN
