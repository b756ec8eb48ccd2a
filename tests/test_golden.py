"""Golden determinism check across commits.

Criterion 7 only shows that a run repeats itself within one commit. This test
pins one SHA-256 over the traces and best member sets of 20 small runs under
a deterministic clock, so a change that is meant to keep every result (a
refactor or a speed-up) can show that it did.

The hash was computed at the commit before the numpy set-up speed-ups
(cached eta order, vectorised free-node scan, member-arc interstate build)
and still holds after them. A change that alters results on purpose must
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

GOLDEN = "bed3d5f3f2a114a4e2a19d9d54929343fad9813ec35302f06478cc86b5e69d0e"

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
