from __future__ import annotations

import random

import numpy as np
import pytest

from mwis.graph import build_graph
from mwis.interstate import IndexedSet, InterstateState, _one_tight_changed, _pair, \
    add_member, build, make_maximal, remove_member, retarget, state_mismatches
from mwis.local_search import LocalSearchParams, MoveEngine
from mwis.solution import Solution

from conftest import graph_from, maximal, random_graph, rows_forced


def reference_build(g, s):
    """The per-node loop `build` replaced; it fixes every insertion order."""
    n = g.n
    st = InterstateState(g, s)
    flags = np.asarray(s._in_set, dtype=bool)
    rho = np.zeros(n, dtype=np.int64)
    blocked = np.zeros(n, dtype=np.float64)
    if g.m:
        nonempty = g.indptr[:-1] < g.indptr[1:]
        starts = g.indptr[:-1][nonempty]
        member_w = np.where(flags, g.weights, 0.0)
        rho[nonempty] = np.add.reduceat(flags[g.indices].astype(np.int64), starts)
        blocked[nonempty] = np.add.reduceat(member_w[g.indices], starts)
        src = np.repeat(np.arange(g.n), np.diff(g.indptr))
        if np.any(flags[src] & flags[g.indices]):
            raise ValueError("solution is not an independent set")

    in_set = s._in_set
    st.rho = np.where(flags, 0, rho).tolist()
    st.delta = np.where(flags, -np.inf, g.weights - blocked).tolist()
    st.link = [None] * n
    adj = g.adj
    for v in range(n):
        if in_set[v]:
            continue
        r = st.rho[v]
        if r == 0:
            st.free.add(v)
        elif r == 1:
            u = next(x for x in adj[v] if in_set[x])
            st.one_tight.setdefault(u, set()).add(v)
            st.link[v] = u
        elif r == 2:
            a, b = (x for x in adj[v] if in_set[x])
            key = _pair(a, b)
            st.mates.setdefault(a, set()).add(b)
            st.mates.setdefault(b, set()).add(a)
            st.two_tight.setdefault(key, set()).add(v)
            st.link[v] = key
        if st.delta[v] > 0:
            st.s_plus.add(v)
    for u in st.one_tight:
        st.s_one.add(u)
    for key in st.two_tight:
        st.s_two.add(key)
    return st


def reference_remove_member(st, g, s, v):
    """`remove_member` before its loop bound locals; it fixes every insertion order."""
    s.remove(v)
    wv = g.w[v]
    in_set = s._in_set
    st.one_tight.pop(v, None)
    st.s_one.discard(v)
    for m in st.mates.pop(v, set()):
        key = _pair(v, m)
        st.two_tight.pop(key, None)
        mm = st.mates.get(m)
        if mm is not None:
            mm.discard(v)
            if not mm:
                del st.mates[m]
        st.s_two.discard(key)
    adj = g.adj
    for x in adj[v]:
        r = st.rho[x] - 1
        st.rho[x] = r
        st.delta[x] += wv
        if st.delta[x] > 0:
            st.s_plus.add(x)
        if r == 0:
            st.free.add(x)
        elif r == 1:
            key = st.link[x]
            other = key[0] if key[1] == v else key[1]
            st.one_tight.setdefault(other, set()).add(x)
            st.link[x] = other
            _one_tight_changed(st, other, gained=True)
        elif r == 2:
            a, b = (y for y in adj[x] if in_set[y])
            key = _pair(a, b)
            st.mates.setdefault(a, set()).add(b)
            st.mates.setdefault(b, set()).add(a)
            st.two_tight.setdefault(key, set()).add(x)
            st.link[x] = key
            st.s_two.add(key)
    st.delta[v] = wv
    if wv > 0:
        st.s_plus.add(v)
    st.free.add(v)


def reference_add_member(st, g, s, u):
    """`add_member` before its loop bound locals; it fixes every insertion order."""
    s.add(u)
    st.free.discard(u)
    st.s_plus.discard(u)
    wu = g.w[u]
    st.delta[u] = -np.inf
    for x in g.adj[u]:
        r = st.rho[x] + 1
        st.rho[x] = r
        st.delta[x] -= wu
        if r == 1:
            st.free.discard(x)
            st.one_tight.setdefault(u, set()).add(x)
            st.link[x] = u
            _one_tight_changed(st, u, gained=True)
        elif r == 2:
            prev = st.link[x]
            po = st.one_tight.get(prev)
            if po is not None:
                po.discard(x)
                if not po:
                    del st.one_tight[prev]
            _one_tight_changed(st, prev, gained=False)
            key = _pair(u, prev)
            st.mates.setdefault(u, set()).add(prev)
            st.mates.setdefault(prev, set()).add(u)
            st.two_tight.setdefault(key, set()).add(x)
            st.link[x] = key
            st.s_two.add(key)
        elif r == 3:
            key = st.link[x]
            a, b = key
            tt = st.two_tight.get(key)
            if tt is not None:
                tt.discard(x)
                if not tt:
                    del st.two_tight[key]
                    st.s_two.discard(key)
                    ma = st.mates.get(a)
                    if ma is not None:
                        ma.discard(b)
                        if not ma:
                            del st.mates[a]
                    mb = st.mates.get(b)
                    if mb is not None:
                        mb.discard(a)
                        if not mb:
                            del st.mates[b]
                else:
                    st.s_two.add(key)


def ordered(st):
    """Everything of a state whose iteration order the moves depend on, the
    free nodes, which make_maximal reads in ascending order, and the links
    at rho 1 and 2 (entries elsewhere are stale by design)."""
    def sets(d):
        return [(k, list(v)) for k, v in d.items()]
    links = [(v, st.link[v]) for v, r in enumerate(st.rho) if r in (1, 2)]
    return (st.rho, links, sets(st.one_tight),
            sets(st.mates), sets(st.two_tight), sorted(st.free), list(st.s_plus),
            list(st.s_one), list(st.s_two))


def random_independent(g, rng, tries):
    """Independent set from `tries` random insertion attempts (0: empty)."""
    s = Solution(g)
    for _ in range(tries):
        v = rng.randrange(g.n)
        if v not in s and not any(u in s for u in g.adj[v]):
            s.add(v)
    return s


def churn(g, rng, steps, check_every=100, check_pruning=True):
    """Random valid add/remove interleaving with periodic rebuild checks."""
    s = Solution(g)
    st = build(g, s)
    for step in range(1, steps + 1):
        do_remove = len(s) > 0 and rng.random() < 0.45
        if not do_remove:
            free = list(st.free)
            if free:
                add_member(st, free[rng.randrange(len(free))])
            elif len(s):
                do_remove = True
        if do_remove and len(s):
            members = s.member_list()
            remove_member(st, members[rng.randrange(len(members))])
        if step % check_every == 0:
            bad = state_mismatches(st, check_pruning=check_pruning)
            assert not bad, f"step {step}: {bad[:5]}"
    return s, st


class TestIndexedSet:
    def test_add_discard_contains(self):
        xs = IndexedSet()
        xs.add(3)
        xs.add(5)
        xs.add(3)
        assert len(xs) == 2 and 3 in xs and 5 in xs
        xs.discard(3)
        xs.discard(99)  # absent: no-op
        assert len(xs) == 1 and 3 not in xs

    def test_pop_random_is_uniform_ish(self):
        rng = random.Random(0)
        counts = {v: 0 for v in range(4)}
        for _ in range(2000):
            xs = IndexedSet(range(4))
            counts[xs.pop_random(rng)] += 1
        assert all(c > 350 for c in counts.values())


class TestBuild:
    def test_path_single_member(self, path3):
        s = Solution(path3, [1])
        st = build(path3, s)
        assert st.rho == [1, 0, 1]
        assert st.one_tight == {1: {0, 2}}
        assert st.mates == {} and st.two_tight == {}
        assert st.delta[0] == 3.0 - 5.0
        assert st.delta[2] == 3.0 - 5.0
        assert list(st.s_one) == [1]
        assert len(st.s_plus) == 0

    def test_cycle_mate_pair(self, cycle4):
        s = Solution(cycle4, [0, 2])
        st = build(cycle4, s)
        assert st.mates == {0: {2}, 2: {0}}
        assert st.two_tight == {(0, 2): {1, 3}}
        assert st.one_tight == {}
        assert list(st.s_two) == [(0, 2)]

    def test_edgeless_full_membership(self):
        g = graph_from(4, [], [1.0] * 4)
        s = Solution(g, range(4))
        st = build(g, s)
        assert st.rho == [0] * 4
        assert not st.one_tight and not st.mates and not st.two_tight
        assert len(st.free) == 0

    def test_rejects_dependent_set(self, path3):
        s = Solution(path3)
        s.add(0)
        s.add(1)  # membership bookkeeping only; edges not checked by add()
        with pytest.raises(ValueError):
            build(path3, s)

    def test_matches_reference_including_order(self):
        rng = random.Random(31)
        for i in range(300):
            n = rng.choice([0, 1, 2, rng.randint(3, 80)])
            p = rng.choice([0.0, 0.05, 0.15, 0.4, 0.8])
            if i % 3:
                g = random_graph(rng, n, p, max_w=rng.choice([1, 5, 100]))
            else:  # fractional weights: sums may round differently
                edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < p]
                g = build_graph(n, edges, [rng.random() * 10 for _ in range(n)])
            tries = rng.choice([0, n // 4, 3 * n]) if n else 0
            s = random_independent(g, rng, tries)
            if rng.random() < 0.5:
                maximal(g, s, rng)
            st, ref = build(g, s), reference_build(g, s)
            assert ordered(st) == ordered(ref), f"instance {i}"
            if i % 3:
                assert st.delta == ref.delta, f"instance {i}"
            else:
                assert st.delta == pytest.approx(ref.delta, rel=1e-12, abs=1e-12)

    def test_splus_reflects_delta_not_maximality(self):
        # maximal solution can still have positive-delta outsiders
        g = graph_from(2, [(0, 1)], [1.0, 9.0])
        s = Solution(g, [0])
        st = build(g, s)
        assert st.delta[1] == 8.0
        assert list(st.s_plus) == [1]


class TestSingleUpdates:
    def test_remove_last_member(self, path3):
        s = Solution(path3, [1])
        st = build(path3, s)
        remove_member(st, 1)
        assert len(s) == 0
        assert st.rho == [0, 0, 0]
        assert st.delta[1] == 5.0
        assert 1 in st.s_plus
        assert not state_mismatches(st)

    def test_remove_dissolves_mates(self, cycle4):
        s = Solution(cycle4, [0, 2])
        st = build(cycle4, s)
        remove_member(st, 0)
        assert st.mates == {} or all(not v for v in st.mates.values())
        assert st.rho[1] == 1 and st.rho[3] == 1
        assert st.one_tight.get(2) == {1, 3}
        assert 2 in st.s_one
        assert not state_mismatches(st)

    def test_add_creates_one_tight(self, path3):
        s = Solution(path3)
        st = build(path3, s)
        add_member(st, 1)
        assert st.one_tight == {1: {0, 2}}
        assert 1 in st.s_one
        assert st.delta[0] == 3.0 - 5.0
        assert not state_mismatches(st)

    def test_add_creates_mate_pair(self, cycle4):
        s = Solution(cycle4, [0])
        st = build(cycle4, s)
        add_member(st, 2)
        assert st.mates == {0: {2}, 2: {0}}
        assert st.two_tight == {(0, 2): {1, 3}}
        assert (0, 2) in st.s_two
        assert not state_mismatches(st)

    def test_add_isolated_only_membership(self):
        g = graph_from(3, [(0, 1)], [1.0, 1.0, 4.0])
        s = Solution(g)
        st = build(g, s)
        add_member(st, 2)
        assert st.rho == [0, 0, 0]
        assert not st.one_tight
        assert not state_mismatches(st)

    def test_remove_then_readd_round_trip(self, cycle4):
        rng = random.Random(0)
        s = maximal(cycle4, Solution(cycle4), rng)
        st = build(cycle4, s)
        v = s.member_list()[0]
        remove_member(st, v)
        add_member(st, v)
        assert not state_mismatches(st, check_pruning=True)

    def test_guards(self, path3):
        s = Solution(path3, [1])
        st = build(path3, s)
        with pytest.raises(AssertionError):
            remove_member(st, 0)  # not a member
        with pytest.raises(AssertionError):
            add_member(st, 0)  # would break independence

    def test_stale_owner_link_guard(self):
        # node 1 is 1-tight to member 0; adding 2 takes it to rho 2, where
        # add_member reads its owner from link
        g = graph_from(6, [(0, 1), (1, 2), (4, 5)])
        st = build(g, Solution(g, [0, 4]))
        st.link[1] = 4  # a member whose 1-tight set is {5}
        with pytest.raises(AssertionError, match="outside its owner's 1-tight set"):
            add_member(st, 2)


class TestVerification:
    def test_fresh_state_verifies(self):
        rng = random.Random(1)
        g = random_graph(rng, 50, 0.15)
        s = maximal(g, Solution(g), rng)
        assert not state_mismatches(build(g, s))

    def test_corruption_detected(self):
        rng = random.Random(2)
        g = random_graph(rng, 30, 0.2)
        s = maximal(g, Solution(g), rng)
        st = build(g, s)
        victim = next(v for v in range(g.n) if v not in s)
        st.rho[victim] += 1
        assert state_mismatches(st)

    def test_delta_tolerance_is_relative(self):
        rng = random.Random(3)
        g = random_graph(rng, 20, 0.3, max_w=10**6)
        s = maximal(g, Solution(g), rng)
        st = build(g, s)
        victim = next(v for v in range(g.n) if v not in s)
        st.delta[victim] += 1.0  # way beyond 1e-9 relative
        assert state_mismatches(st)

    def test_member_bitset_corruption_detected(self):
        rng = random.Random(7)
        g = random_graph(rng, 30, 0.2)
        s = maximal(g, Solution(g), rng)
        with rows_forced(True):
            st = build(g, s)
        assert st.rows is g.rows and not state_mismatches(st)
        st.members ^= 1 << next(v for v in range(g.n) if v not in s)
        assert "member bitset differs from the membership flags" in state_mismatches(st)
        with rows_forced(False):
            st = build(g, s)
        assert st.rows is None and st.members == 0
        st.members = 1
        assert state_mismatches(st)

    @staticmethod
    def path7():
        """Path 0-...-6 with members 1, 3, 5: nodes 0 and 6 are 1-tight,
        nodes 2 and 4 are 2-tight to (1, 3) and (3, 5)."""
        g = graph_from(7, [(v, v + 1) for v in range(6)], [float(v + 1) for v in range(7)])
        st = build(g, Solution(g, [1, 3, 5]))
        assert not state_mismatches(st)
        return st

    def test_wrong_owner_link_detected(self):
        st = self.path7()
        st.link[0] = 5  # a member, but not node 0's neighbour
        assert state_mismatches(st) == ["link[0]=5 expected 1"]

    def test_wrong_pair_link_detected(self):
        st = self.path7()
        st.link[2] = (3, 5)  # a mate pair, but node 4's
        assert state_mismatches(st) == ["link[2]=(3, 5) expected (1, 3)"]

    def test_member_with_finite_delta_detected(self):
        # w(v), what remove_member writes, passes a relative test against -inf
        st = self.path7()
        st.delta[3] = 4.0
        assert state_mismatches(st) == ["delta[3]=4.0 expected -inf"]

    def test_dead_queue_entries_detected(self, cycle4):
        # the moves pop s_one/s_two unchecked, so a dead entry is drift
        st = build(cycle4, Solution(cycle4, [0, 2]))
        assert not state_mismatches(st)
        st.s_one.add(1)  # a non-member
        st.s_two.add((0, 1))  # not a mate pair, not a key of two_tight
        assert state_mismatches(st) == ["s_one holds a node with no 1-tight pool",
                                        "s_two holds a pair with no 2-tight node"]

    def test_churn_small(self):
        # with neighbour lists, then with bitset rows and the member bitset
        for rows in (False, True):
            rng = random.Random(4)
            with rows_forced(rows):
                for _ in range(10):
                    n = rng.randint(20, 80)
                    g = random_graph(rng, n, rng.uniform(0.05, 0.3))
                    churn(g, rng, steps=1000)

    def test_updates_match_reference_including_order(self):
        # the moves draw random numbers while iterating these sets, so their
        # order after every update is part of the solver's determinism; the
        # state under test reads neighbour lists, then bitset rows
        for rows in (False, True):
            with rows_forced(rows):
                self._updates_match_reference(random.Random(6))

    def _updates_match_reference(self, rng):
        for i in range(100):
            n = rng.randint(1, 60)
            g = random_graph(rng, n, rng.choice([0.05, 0.15, 0.3]),
                             max_w=rng.choice([0, 1, 100]))
            s = random_independent(g, rng, rng.randint(0, n))
            s_ref = s.copy()
            st, ref = build(g, s), build(g, s_ref)
            for step in range(150):
                members = s.member_list()
                free = list(st.free)
                if members and (not free or rng.random() < 0.45):
                    v = members[rng.randrange(len(members))]
                    remove_member(st, v)
                    reference_remove_member(ref, g, s_ref, v)
                else:
                    u = free[rng.randrange(len(free))]
                    add_member(st, u)
                    reference_add_member(ref, g, s_ref, u)
                assert ordered(st) == ordered(ref), f"instance {i} step {step}"
                assert st.delta == ref.delta, f"instance {i} step {step}"
                # prune the queues as failed move evaluations do, so that
                # re-insertions land in them again
                for queue, ref_queue in ((st.s_one, ref.s_one), (st.s_two, ref.s_two)):
                    if len(queue) and rng.random() < 0.5:
                        x = list(queue)[rng.randrange(len(queue))]
                        queue.discard(x)
                        ref_queue.discard(x)
            assert not state_mismatches(st), f"instance {i}"

    def test_splus_completeness_under_churn(self):
        rng = random.Random(5)
        g = random_graph(rng, 60, 0.15)
        s, st = churn(g, rng, steps=500, check_every=50)
        positive = {v for v in range(g.n) if v not in s and st.delta[v] > 0}
        assert positive <= set(st.s_plus)


def star_churn(steps):
    """Random updates on a star whose centre and first leaf weigh over 2^53
    times the light leaves; yields (step, state) after each update."""
    g = graph_from(4, [(0, 1), (0, 2), (0, 3)], [1e16, 1e16, 1.0, 1.0])
    rng = random.Random(8)
    s = Solution(g)
    st = build(g, s)
    for step in range(steps):
        members = s.member_list()
        free = list(st.free)
        if members and (not free or rng.random() < 0.5):
            remove_member(st, members[rng.randrange(len(members))])
        else:
            add_member(st, free[rng.randrange(len(free))])
        yield step, st


class TestExactDelta:
    def test_delta_exact_at_rho_zero_and_one(self):
        # a running sum loses the light weights, build does not
        for step, st in star_churn(300):
            fresh = build(st.g, st.s)
            for v in range(st.g.n):
                if fresh.rho[v] <= 1:
                    assert st.delta[v] == fresh.delta[v], f"step {step}, node {v}"

    def test_star_one_takes_no_loss_on_a_drifted_delta(self):
        # after 20 updates the centre's running delta reads 1.0 at rho 2,
        # where swapping it in for members 1 and 2 loses 1
        *_, (_, st) = star_churn(20)
        s = st.s
        assert (s.member_list(), st.rho[0], st.delta[0]) == ([1, 2], 2, 1.0)
        moves = []
        MoveEngine(st, random.Random(1), LocalSearchParams(), on_commit=lambda _, out: moves.append(out)).star_one_moves()
        assert s.member_list() == [1, 2, 3]
        assert [(out.nodes_added, out.nodes_removed) for out in moves] == [([3], [])]


def pool_parts(st, key):
    """The three parts of a mate pair's (2,*) pool."""
    u, v = key
    return (set(st.one_tight.get(u, ())), set(st.one_tight.get(v, ())),
            set(st.two_tight.get(key, ())))


def nearby(g, s, rng, flips):
    """A copy of s moved by `flips` random steps, each a node dropped or a
    node pulled in with its member neighbours dropped."""
    t = s.copy()
    for _ in range(flips):
        v = rng.randrange(g.n)
        if v in t:
            t.remove(v)
            continue
        for u in g.adj[v]:
            if u in t:
                t.remove(u)
        t.add(v)
    return t


class TestRetarget:
    @pytest.mark.parametrize("rows", [False, True])
    def test_retarget_matches_a_rebuild(self, rows):
        """After retarget, a member with a pool is out of s_one only if that
        pool is a subset of the one it was pruned on, and a mate pair is out
        of s_two only if its pool parts are those it was pruned on."""
        rng = random.Random(9)
        checks = 0
        with rows_forced(rows):
            for i in range(60):
                n = rng.randint(1, 100)
                edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < rng.choice([0.05, 0.15, 0.3])]
                # integer weights with zeros, then weights k/10
                g = graph_from(n, edges, [rng.randint(0, 30) / (1, 10)[i % 2] for _ in range(n)])
                s = random_independent(g, rng, rng.randint(0, n))
                st = build(g, s)
                assert (st.rows is not None) is rows
                pruned_one, pruned_two = {}, {}  # the pools each entry was pruned on
                for k in range(12):
                    # a far target, then targets a few relink steps away
                    if k % 4 == 0:
                        target = random_independent(g, rng, rng.randint(0, 2 * n))
                    else:
                        target = nearby(g, s, rng, rng.randint(1, 4))
                    if k % 4 != 2:
                        maximal(g, target, rng)
                    # prune the queues as failed move evaluations do
                    share = rng.choice([0.5, 1.0])
                    for v in list(st.s_one):
                        if rng.random() < share:
                            st.s_one.discard(v)
                            pruned_one[v] = set(st.one_tight.get(v, ()))
                    for key in list(st.s_two):
                        if rng.random() < share:
                            st.s_two.discard(key)
                            pruned_two[key] = pool_parts(st, key)
                    retarget(st, target)
                    assert s._in_set == target._in_set, f"instance {i}"
                    assert (s.size, s.total_weight) == (target.size, target.total_weight)
                    assert not state_mismatches(st), f"instance {i}"
                    for v, pool in st.one_tight.items():
                        if pool and v not in st.s_one:
                            checks += 1
                            assert pool <= pruned_one.get(v, set()), f"instance {i}, member {v}"
                    for key in st.two_tight:
                        if key not in st.s_two:
                            checks += 1
                            assert pool_parts(st, key) == pruned_two.get(key), \
                                f"instance {i}, pair {key}"
        assert checks > 800


class Recorded(Solution):
    """A Solution that lists its insertions, in order, from its creation on."""

    __slots__ = ("inserted",)

    def __init__(self, s):
        self.inserted = []
        super().__init__(s.graph, s.members())
        self.inserted.clear()

    def add(self, v):
        super().add(v)
        self.inserted.append(v)


def uniform_pops(st, rng):
    """Re-maximalization by uniform pops from the free nodes, as the engine
    once did it: the same distribution as make_maximal, another stream."""
    added = []
    while st.free:
        v = sorted(st.free)[rng.randrange(len(st.free))]
        add_member(st, v)
        added.append(v)
    return added


class TestMakeMaximal:
    @staticmethod
    def mismatches(routine):
        """Cases where `routine` on a state differs from the test helper
        `maximal` on its set: in the nodes inserted and their order, the
        members or the random state afterwards. Each target set (empty,
        partial or maximal) is tried on a fresh build of it and on a state
        that reached it through random churn."""
        rng = random.Random(41)
        bad = []
        for i in range(150):
            n = rng.randint(1, 50)
            g = random_graph(rng, n, rng.choice([0.0, 0.05, 0.15, 0.4]),
                             max_w=rng.choice([0, 1, 100]))
            target = random_independent(g, rng, (0, rng.randint(1, n), 0)[i % 3])
            if i % 3 == 2:
                maximal(g, target, rng)
            _, churned = churn(g, rng, steps=rng.randint(0, 3 * n), check_every=10**9)
            retarget(churned, target)
            for st in (build(g, target.copy()), churned):
                seed = rng.random()
                ref, ref_rng = Recorded(target), random.Random(seed)
                maximal(g, ref, ref_rng)
                st_rng = random.Random(seed)
                added = routine(st, st_rng)
                if (added, st.s.member_list(), st_rng.getstate()) != \
                        (ref.inserted, ref.member_list(), ref_rng.getstate()):
                    bad.append(i)
                assert not state_mismatches(st, check_pruning=True), f"instance {i}"
        return bad

    def test_matches_the_helper_on_fresh_and_churned_states(self):
        assert self.mismatches(make_maximal) == []

    def test_the_comparison_rejects_uniform_pops(self):
        assert self.mismatches(uniform_pops)


class TestS2Completeness:
    def test_pair_reenters_after_neighborhood_change(self, cycle4):
        s = Solution(cycle4, [0, 2])
        st = build(cycle4, s)
        st.s_two.discard((0, 2))  # simulate a failed (2,*) evaluation
        # 2-tight neighborhood of {0,2} changes: node 1 leaves it
        remove_member(st, 0)
        add_member(st, 0)
        assert (0, 2) in st.s_two

    def test_pair_reenters_after_one_tight_change_of_endpoint(self):
        # 5-node: pair {0,2} shares 2-tight node 1; node 4 hangs off 0 only
        g = graph_from(5, [(0, 1), (1, 2), (0, 4), (0, 3), (3, 4)])
        s = Solution(g, [0, 2])
        st = build(g, s)
        assert st.two_tight.get((0, 2)) == {1}
        assert st.one_tight.get(0) == {3, 4}
        st.s_two.discard((0, 2))  # pretend it was evaluated and failed
        # removing node 3's other blocker changes nothing for 0; instead force a
        # 1-tight gain on endpoint 0 by removing+re-adding member 2's influence:
        # remove member 2 -> node 1 becomes 1-tight to 0 (gain on one_tight(0))
        remove_member(st, 2)
        assert 1 in st.one_tight[0]
        add_member(st, 2)  # pair {0,2} reforms and re-enters S2
        assert (0, 2) in st.s_two
