"""Local search: (*,1), (1,*), (2,*) and alternating-augmenting-path moves.

The outer loop alternates a cheap phase {star_one, aap, one_star} with a
single (2,*) sweep, perturbs on stagnation, and returns the best solution
seen. Every committed move re-establishes maximality before the next
evaluation. Candidate draws from the pruning queues are uniform-random, so a
fixed RNG seed fixes the whole move sequence.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from dataclasses import dataclass

from .graph import Graph, is_edge
from .interstate import InterstateState, _pair, add_member, build, remove_member
from .lp_bias import RelaxedSolution, sample_biased
from .oracle import max_weight_subset
from .solution import Solution, make_maximal

# relative rounding allowance per summand when bounding a pool's weight sum
_SUM_SLACK = 4 * sys.float_info.epsilon


@dataclass
class LocalSearchParams:
    num_iterations: int = 64        # consecutive non-improving outer iterations allowed
    exact_recursion_limit: int = 7  # max 1-tight pool size for exact subset selection
    aap_max_len: int = 32           # max vertices on an alternating path
    aap_gain_floor: float | None = None  # None: -10 * mean node weight
    aap_delta: float = 50.0         # half-width of the gain noise
    perturb_count: int = 1          # nodes forced per perturbation

    def __post_init__(self):
        if self.num_iterations < 1 or self.exact_recursion_limit < 1 \
                or self.aap_max_len < 1 or self.perturb_count < 1:
            raise ValueError("counts must be >= 1")
        if self.aap_delta < 0:
            raise ValueError("aap_delta must be >= 0")


@dataclass
class MoveOutcome:
    gain: float
    nodes_added: list[int]
    nodes_removed: list[int]
    kind: str


class MoveEngine:
    """Owns the (Solution, InterstateState, RNG) triple for one search run."""

    def __init__(self, g: Graph, s: Solution, rng: random.Random,
                 params: LocalSearchParams | None = None,
                 bias: RelaxedSolution | None = None, on_commit=None,
                 state: InterstateState | None = None):
        self.g = g
        self.s = s
        self.rng = rng
        self.params = params or LocalSearchParams()
        self.bias = bias
        self.on_commit = on_commit  # called as on_commit(engine, MoveOutcome)
        self.w = g.w
        self.adj = g.adj
        self.state = build(g, s) if state is None else state
        floor = self.params.aap_gain_floor
        if floor is None:
            mean = sum(self.w) / len(self.w) if self.w else 0.0
            floor = -10.0 * mean
        self.aap_gain_floor = floor

    # -- plumbing ---------------------------------------------------------

    def _member_neighbors(self, v: int) -> list[int]:
        """Member neighbours of v, ascending."""
        in_set = self.s._in_set
        return [x for x in self.adj[v] if in_set[x]]

    def _maximalize(self) -> list[int]:
        """Add free nodes in random order until none remain."""
        st, s = self.state, self.s
        added = []
        while len(st.free):
            v = st.free.pop_random(self.rng)
            add_member(st, self.g, s, v)
            added.append(v)
        return added

    def _apply(self, kind: str, removed: list[int], added: list[int]) -> None:
        """Remove, then insert, then re-maximalize, then report one move."""
        st, g, s = self.state, self.g, self.s
        for x in removed:
            remove_member(st, g, s, x)
        for x in added:
            add_member(st, g, s, x)
        self._commit(kind, added + self._maximalize(), removed)

    def _commit(self, kind: str, added: list[int], removed: list[int]) -> None:
        """Report the net change: each list holds the nodes inserted and
        removed in order of events, and a node whose insertions and removals
        cancel out goes in neither."""
        if self.on_commit is not None:
            net = Counter(added)
            net.subtract(removed)
            added = [x for x in dict.fromkeys(added) if net[x] > 0]
            removed = [x for x in dict.fromkeys(removed) if net[x] < 0]
            gain = sum(self.w[v] for v in added) - sum(self.w[v] for v in removed)
            self.on_commit(self, MoveOutcome(gain, added, removed, kind))

    # -- move procedures --------------------------------------------------

    def star_one_moves(self) -> bool:
        """Drain S+: insert each verified positive-delta node, drop its blockers."""
        st, s = self.state, self.s
        improved = False
        while len(st.s_plus):
            u = st.s_plus.pop_random(self.rng)
            if u in s or st.delta[u] <= 0:
                continue  # stale entry
            self._apply("star_one", self._member_neighbors(u), [u])
            improved = True
        return improved

    def one_star_moves(self) -> bool:
        """Drain S1: replace a member with a heavier subset of its 1-tight pool."""
        st, s = self.state, self.s
        improved = False
        limit = self.params.exact_recursion_limit
        w = self.w
        while len(st.s_one):
            v = st.s_one.pop_random(self.rng)
            if v not in s:
                continue
            pool = st.one_tight.get(v)
            if not pool:
                continue
            # weights are >= 0, so no subset of the pool outweighs the whole;
            # the slack covers rounding in any summation order
            if sum(map(w.__getitem__, pool)) * (1.0 + _SUM_SLACK * len(pool)) <= w[v]:
                continue
            cand = sorted(pool, key=lambda u: (-w[u], u))
            if len(cand) <= limit:
                best_w, chosen = self._exact_subset(cand)
            else:
                best_w, chosen = self._greedy_subset(cand)
            if best_w > w[v]:
                self._apply("one_star", [v], chosen)
                improved = True
        return improved

    def _exact_subset(self, cand: list[int]) -> tuple[float, list[int]]:
        masks = [0] * len(cand)
        for i, u in enumerate(cand):
            for j in range(i + 1, len(cand)):
                if is_edge(self.g, u, cand[j]):
                    masks[i] |= 1 << j
                    masks[j] |= 1 << i
        best_w, chosen_mask = max_weight_subset([self.w[u] for u in cand], masks)
        return best_w, [cand[i] for i in range(len(cand)) if chosen_mask >> i & 1]

    def _greedy_subset(self, cand: list[int]) -> tuple[float, list[int]]:
        # cand is sorted by descending weight already
        chosen: list[int] = []
        total = 0.0
        for u in cand:
            if not any(is_edge(self.g, u, c) for c in chosen):
                chosen.append(u)
                total += self.w[u]
        return total, chosen

    def two_star_moves(self) -> bool:
        """Evaluate S2 pairs; commit and return on the first improving move.

        Each popped pair gets one randomized trial, simulated read-only on
        the pair's pool; only a success is replayed as real state updates,
        so a failed pair stays pruned until a real change.
        """
        st, s, g = self.state, self.s, self.g
        w = self.w
        in_set = s._in_set
        while len(st.s_two):
            key = st.s_two.pop_random(self.rng)
            u, v = key
            if not (in_set[u] and in_set[v]):
                continue
            if v not in st.mates.get(u, ()):
                continue  # no longer mates
            # the three parts are disjoint (1-tight to u, 1-tight to v,
            # 2-tight to both), and every pool node's only member neighbors
            # are u and v, so only the picks themselves close candidates
            open_now = sorted([*st.one_tight.get(u, ()), *st.one_tight.get(v, ()),
                               *st.two_tight.get(key, ())])
            added: list[int] = []
            gained = 0.0
            while open_now:
                c = open_now[self.rng.randrange(len(open_now))]
                added.append(c)
                gained += w[c]
                open_now = [x for x in open_now if x != c and not is_edge(g, c, x)]
            if gained > w[u] + w[v]:
                self._apply("two_star", [u, v], added)
                return True
        return False

    def aap_moves(self) -> bool:
        """One pass of alternating-augmenting-path searches seeded from S1.

        S1 is snapshotted, not consumed: its consumption contract belongs to
        the (1,*) procedure that runs after this one.
        """
        st, s = self.state, self.s
        seeds = list(st.s_one)
        self.rng.shuffle(seeds)
        improved = False
        for v in seeds:
            if v not in s or not st.one_tight.get(v):
                continue
            if self._aap_from(v):
                improved = True
        return improved

    def _aap_from(self, v: int) -> bool:
        st = self.state
        w, adj, rows = self.w, self.adj, st.rows
        rng = self.rng
        delta = self.params.aap_delta

        seed = None
        seed_score = float("-inf")
        for a in st.one_tight[v]:
            score = w[a] + rng.uniform(-delta, delta)
            if score > seed_score:
                seed_score = score
                seed = a
        path_in = [v]        # members, flip candidates for removal
        path_out = [seed]    # non-members, flip candidates for insertion
        on_path = {v, seed}
        # neighbours of path_out: with lists a set built at the first mate
        # (its pool holds a candidate: neither v nor seed is 2-tight), with
        # rows a bitset
        near_out = None if rows is None else rows[seed]
        gain = w[seed] - w[v]
        best_gain = gain
        best_pairs = 1
        u = v
        while len(path_in) + len(path_out) < self.params.aap_max_len \
                and gain >= self.aap_gain_floor:
            best_step = None
            best_score = float("-inf")
            for mate in st.mates.get(u, ()):
                if mate in on_path:
                    continue
                if near_out is None:  # first mate: path_out is [seed]
                    near_out = set(adj[seed])
                step_base = -w[mate]
                for x in st.two_tight[_pair(u, mate)]:
                    if x in on_path:
                        continue
                    if (x in near_out) if rows is None else (near_out >> x & 1):
                        continue
                    score = gain + step_base + w[x] + rng.uniform(-delta, delta)
                    if score > best_score:
                        best_score = score
                        best_step = (x, mate)
            if best_step is None:
                break
            x, mate = best_step
            path_out.append(x)
            if rows is None:
                near_out.update(adj[x])  # built at the first mate
            else:
                near_out |= rows[x]
            path_in.append(mate)
            on_path.add(x)
            on_path.add(mate)
            gain += w[x] - w[mate]
            if gain > best_gain:
                best_gain = gain
                best_pairs = len(path_in)
            u = mate
        if best_gain <= 0:
            return False
        self._apply("aap", path_in[:best_pairs], path_out[:best_pairs])
        return True

    def perturb(self) -> None:
        """Force random (optionally LP-biased) nodes into S, then re-maximalize."""
        st, g, s = self.state, self.g, self.s
        added: list[int] = []
        removed: list[int] = []
        for _ in range(self.params.perturb_count):
            target = self._perturb_target()
            if target is None:
                break
            evicted = self._member_neighbors(target)
            for x in evicted:
                remove_member(st, g, s, x)
            add_member(st, g, s, target)
            removed += evicted
            added.append(target)
        if added:
            self._commit("perturb", added + self._maximalize(), removed)

    def _perturb_target(self) -> int | None:
        s, n, rng, bias = self.s, self.g.n, self.rng, self.bias
        if s.size >= n:
            return None
        for _ in range(32):
            v = rng.randrange(n) if bias is None else sample_biased(bias, rng)
            if v not in s:
                return v
        outside = [v for v in range(n) if v not in s]
        return outside[rng.randrange(len(outside))]


def local_search(g: Graph, s0: Solution, params: LocalSearchParams | None = None,
                 rng: random.Random | None = None,
                 bias: RelaxedSolution | None = None, *,
                 deadline: float | None = None, clock=time.monotonic,
                 on_commit=None, state: InterstateState | None = None) -> Solution:
    """Run the full move loop from s0 (maximalized on entry); return best seen.

    Given the interstate `state` of a maximal s0 (as path_relink returns
    them), the search runs on s0 and state in place; otherwise it runs on a
    copy of s0 with a fresh structure.

    The clock is consulted between move procedures only; on deadline the last
    clean snapshot is returned, so outputs are always maximal with delta <= 0
    everywhere outside the set. on_commit, when given, is called as
    on_commit(engine, MoveOutcome) after every committed move, perturbations
    included.
    """
    params = params or LocalSearchParams()
    rng = rng or random.Random()
    s = make_maximal(g, s0.copy(), rng) if state is None else s0
    engine = MoveEngine(g, s, rng, params, bias, on_commit, state)
    # Drain S+ before the first snapshot: every snapshot this function can
    # return then satisfies delta(u) <= 0 outside the set, even on timeout.
    engine.star_one_moves()
    best = s.copy()

    def out_of_time() -> bool:
        return deadline is not None and clock() >= deadline

    def descend() -> bool:
        """Run the move procedures to a local optimum; False on deadline."""
        while True:
            w0 = s.total_weight
            engine.star_one_moves()
            if out_of_time():
                return False
            engine.aap_moves()
            if out_of_time():
                return False
            engine.one_star_moves()
            if s.total_weight > w0:
                continue  # improved: restart the cheap phase, skip (2,*)
            if out_of_time():
                return False
            engine.two_star_moves()
            if s.total_weight <= w0:
                return True

    i = 1
    while i <= params.num_iterations and descend():
        if s.total_weight > best.total_weight:
            best = s.copy()
            i = 1
        else:
            i += 1
            if i <= params.num_iterations:
                engine.perturb()
    return best
