"""Golden determinism check across commits.

Criterion 7 only shows that a run repeats itself within one commit. This test
pins one SHA-256 over the traces and best member sets of 20 small runs under
a deterministic clock, so a change that is meant to keep every result (a
refactor or a speed-up) can show that it did.

The hash was re-pinned when relinking began to hand its interstate structure
to local search: the pruning queues then carry the walk's history instead of
a fresh ascending build, so local search draws its candidates in another
order. Every walk is unchanged, and with a fresh build in local search the
previous hash still holds.

It was re-pinned again, for two reasons, when a run began to keep one
structure from its first local search to its end, and when (2,*) began to
skip the randomized trial on a pool too light to beat its pair. The live
structure's dicts and sets hold their entries in the order of its history,
so the refilled queues and the sets the moves iterate come out in another
order; a skipped trial draws no random numbers, so the stream shifts. Walks
are unchanged on these integer weights.

It was re-pinned once more when one routine, interstate.make_maximal, took
over every maximalization. Only the move engine's re-maximalization after a
committed move changed its draws: uniform pops from the free nodes became the
free nodes ascending, one shuffle, then an insert of each node still free.
Both pick each next node uniformly among those still free, so the search is
the same in distribution, but the random stream differs. With the engine's
uniform pops put back, the previous hash still holds.

It was re-pinned once more when retarget stopped refilling the pruning
queues: the search after relinking draws only from the entries that retarget
and the walk re-armed, and from what the previous search left, so it makes
other draws. With the two refill lines put back, the previous hash still
holds; so does the exact (*,1) decision, which decides alike on these integer
weights.

It was re-pinned once more when RunConfig lost ls_before_relinking, which
five of the runs below set to search each greedy source before relinking.
No result of a default run changed: the new hash is the one the previous
code gives when the only edit to golden_runs is dropping that field, so
those five runs now take the default loop.

It was re-pinned once more when RunConfig lost elite_capacity and
GreedyConfig lost mode: a run relinks from one guide, S*, and starts from
adaptive greedy. Ten runs below kept three elite solutions and fourteen
started from the static or the randomized greedy. No result of a default run
changed: the new hash is the one the previous code gives when the only edit
to golden_runs is dropping those two fields, so every run now takes the
default path.

It was re-pinned once more when randomized_greedy stopped picking uniformly
among the top-k live nodes by eta and became the static scan over eta times
seeded noise, with GreedyConfig.k_fraction renamed noise. Every relinking
source changed, and it draws eight bytes per non-isolated node instead of
one randrange per pick, so every later draw shifts. The runs below keep
their three values, now read as noise.

It was re-pinned once more, for two reasons, when the relinking walk became
the paper's pull-only walk and the guide stopped costing a draw. The walk no
longer takes drop steps (drop a member outside the source, add the source
neighbours that frees), so a walk that took one now pulls instead and ends
elsewhere. EliteSet.random_entry no longer draws randrange(1), which kept
the stream of an elite pool that is gone, so every later draw shifts.

It was re-pinned once more when the (2,*) queue began to hold members
instead of member pairs, and the 2-tight pools became per-member sets. A
(2,*) pop draws a member and tries each of its pairs, so the queue makes
other draws; a 1-tight change queues the member once instead of each of its
pairs, and build queues each pair by its lower member. AAP reads a step's
candidates from the last member's 2-tight set, in that set's order, not
mate by mate, so its noise draws fall on the candidates in another order.

A change that alters results on purpose must update GOLDEN and say why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import random

from mwis.driver import RunConfig, run, trace_csv
from mwis.generate import random_gnp
from mwis.greedy import GreedyConfig
from mwis.lp_bias import make_relaxed

from conftest import FakeClock

GOLDEN = "54f335fe20d736bd76ac022e99514b52201966addf1c66c79b9bb13f5afdbf4e"


def golden_runs():
    """Yield (trace csv, best members) for 20 runs of mixed configurations."""
    rng = random.Random(3141)
    for i in range(20):
        n = rng.randint(30, 80)
        g = random_gnp(n, rng.choice([0.05, 0.1, 0.2]), seed=9000 + i,
                       w_lo=0 if i % 5 == 4 else 1, w_hi=200)
        cfg = RunConfig(time_limit=0.005, seed=i,
                        greedy=GreedyConfig(noise=rng.choice([0.05, 0.1, 0.3])))
        relaxed = make_relaxed([rng.random() for _ in range(n)]) if i % 3 == 2 else None
        best, trace = run(g, cfg, clock=FakeClock(), relaxed=relaxed)
        yield trace_csv(trace), best.member_list()


def test_results_match_golden_hash():
    h = hashlib.sha256()
    for csv, members in golden_runs():
        h.update(csv.encode())
        h.update((",".join(map(str, members)) + "\n").encode())
    assert h.hexdigest() == GOLDEN
