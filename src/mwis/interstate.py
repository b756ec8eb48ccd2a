"""The search state: a solution S over graph g, both held here, and its
incremental bookkeeping. S changes only through the updates below.

Tracks, for S:
  rho(u)      -- |N(u) & S| (0 for members),
  delta(u)    -- w(u) - sum of member-neighbor weights; -inf for members, so
                 a ranking by delta puts them last and no gain test passes them,
  link(u)     -- the owner (only member neighbor) of a rho-1 node, the member
                 pair of a rho-2 node; stale at other rho, where nothing reads it,
  one_tight   -- per member v, the non-members whose only member neighbor is v,
  mates/two_tight -- member pairs {u,v} sharing non-members with N(w) & S == {u,v},
  s_plus/s_one/s_two -- pruning queues for the (*,1), (1,*) and (2,*) moves,
  free        -- non-members with rho == 0, a plain set; make_maximal, the
                 one maximalization routine, inserts them in random order,
  rows/members -- on dense graphs, the graph's bitset neighbour rows and S as
                 a bitset, for the rho->2 pair (rows also for AAP's path).

s_plus is stale-tolerant: nodes are inserted when delta turns positive and
purged on pop if delta has since dropped. s_one/s_two hold only live entries:
s_one members with a 1-tight pool, s_two keys of two_tight; the updates
discard an entry the moment it dies, so the moves pop them unchecked. They
are consumed by move evaluation and re-fed on any pool change, retarget's
too: an entry out of its queue failed on its pool as it is (or, for a
member, on a superset of it). Verification therefore checks that every
entry is live, and only with check_pruning that every live one is queued.

Updates are single-node: batch moves are applied as removals first, then
additions, so S stays independent throughout; retarget (to a new guide) is one.
"""

from __future__ import annotations

import random
from itertools import compress, count
from operator import ne

import numpy as np

from .graph import Graph, is_dense
from .solution import Solution


class IndexedSet:
    """Set with O(1) add/discard/contains and O(1) uniform random pop.

    Iteration order is the backing-list order: deterministic for a fixed
    operation history, which the engine requires for reproducibility.
    """

    __slots__ = ("_items", "_pos")

    def __init__(self, items=()):
        self._pos: dict = dict(zip(dict.fromkeys(items), count()))
        self._items: list = list(self._pos)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, x) -> bool:
        return x in self._pos

    def __iter__(self):
        return iter(self._items)

    def add(self, x) -> None:
        if x not in self._pos:
            self._pos[x] = len(self._items)
            self._items.append(x)

    def discard(self, x) -> None:
        i = self._pos.pop(x, None)
        if i is None:
            return
        last = self._items.pop()
        if i < len(self._items):
            self._items[i] = last
            self._pos[last] = i

    def pop_random(self, rng: random.Random):
        i = rng.randrange(len(self._items))
        x = self._items[i]
        last = self._items.pop()
        if i < len(self._items):
            self._items[i] = last
            self._pos[last] = i
        del self._pos[x]
        return x


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _bitset(flags: np.ndarray) -> int:
    """The bool array `flags` as an int with bit v set iff flags[v]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class InterstateState:
    __slots__ = ("g", "s", "rho", "delta", "link", "one_tight", "mates", "two_tight",
                 "s_plus", "s_one", "s_two", "free", "rows", "members")

    def __init__(self, g: Graph, s: Solution):
        # build fills the per-node lists rho, delta and link
        self.g = g
        self.s = s
        self.one_tight: dict[int, set[int]] = {}
        self.mates: dict[int, set[int]] = {}
        self.two_tight: dict[tuple[int, int], set[int]] = {}
        self.s_plus = IndexedSet()
        self.s_one = IndexedSet()
        self.s_two = IndexedSet()
        self.free: set[int] = set()
        # g.rows when the density rule picks bitsets (is_dense), else
        # None; members is S as a bitset, kept only while rows is set
        self.rows: list[int] | None = None
        self.members = 0


def build(g: Graph, s: Solution) -> InterstateState:
    """Initialize the structure of s from scratch in linear time; s is
    adopted, not copied, and from then on changes only through the state.

    Counts come from the member arcs only, so Python loops run over the
    1-tight and 2-tight nodes alone. Every dict, set and queue is filled as
    a scan over ascending node IDs would fill it: the moves draw random
    numbers while iterating them, so this order is part of the solver's
    determinism.
    """
    n = g.n
    st = InterstateState(g, s)
    flags = np.array(s._in_set, dtype=bool)
    arcs = np.flatnonzero(flags[g.indices])
    rows = np.searchsorted(g.indptr, arcs, side="right") - 1
    cols = g.indices[arcs]
    if flags[rows].any():
        raise ValueError("solution is not an independent set")
    rho = np.bincount(rows, minlength=n)
    delta = g.weights - np.bincount(rows, weights=g.weights[cols], minlength=n)
    delta[flags] = -np.inf
    st.rho = rho.tolist()
    st.delta = delta.tolist()
    st.link = link = [None] * n
    # rows and their columns come out sorted, so a row's member neighbors
    # are consecutive and ascending from first[v]
    first = np.cumsum(rho) - rho
    outside = ~flags

    one = np.flatnonzero(outside & (rho == 1))
    owners = cols[first[one]]
    for v, u in zip(one.tolist(), owners.tolist()):
        st.one_tight.setdefault(u, set()).add(v)
        link[v] = u

    two = np.flatnonzero(outside & (rho == 2))
    at = first[two]
    for v, a, b in zip(two.tolist(), cols[at].tolist(), cols[at + 1].tolist()):
        key = (a, b)
        st.mates.setdefault(a, set()).add(b)
        st.mates.setdefault(b, set()).add(a)
        st.two_tight.setdefault(key, set()).add(v)
        link[v] = key

    st.free = set(np.flatnonzero(outside & (rho == 0)).tolist())
    st.s_plus = IndexedSet(np.flatnonzero(delta > 0).tolist())
    st.s_one = IndexedSet(st.one_tight)
    st.s_two = IndexedSet(st.two_tight)
    if is_dense(n, g.m):
        st.rows = g.rows
        st.members = _bitset(flags)
    return st


def _one_tight_changed(st: InterstateState, member: int, gained: bool) -> None:
    """Re-arm the pruning queues after a 1-tight change of `member`.

    S1 entry only on gains (a shrunken pool cannot make the deterministic
    (1,*) evaluation succeed where it failed); mate pairs re-enter S2 on any
    change of either endpoint's 1-tight set.
    """
    if gained:
        st.s_one.add(member)
    elif not st.one_tight.get(member):
        st.s_one.discard(member)
    for m in st.mates.get(member, ()):
        st.s_two.add(_pair(member, m))


def remove_member(st: InterstateState, v: int) -> None:
    """Remove member v from S and propagate all structure updates."""
    g, s = st.g, st.s
    s.remove(v)
    wv = g.w[v]
    in_set = s._in_set

    # v's own interstate presence dissolves
    st.one_tight.pop(v, None)
    st.s_one.discard(v)
    for m in st.mates.pop(v, ()):
        key = _pair(v, m)
        del st.two_tight[key]
        mm = st.mates[m]
        mm.discard(v)
        if not mm:
            del st.mates[m]
        st.s_two.discard(key)

    # S is independent, so every neighbor of v is a non-member
    adj = g.adj
    rho, delta, link, s_plus = st.rho, st.delta, st.link, st.s_plus
    in_plus = s_plus._pos
    rows = st.rows
    if rows is not None:
        members = st.members = st.members ^ (1 << v)
    rearmed = set()
    for x in adj[v]:
        r = rho[x] - 1
        rho[x] = r
        # build's exact delta at rho 0 and 1 (add_member's 0 -> 1 step keeps it)
        if r > 2:
            d = delta[x] + wv
        elif r == 0:
            d = g.w[x]
            st.free.add(x)
        elif r == 1:
            a, b = link[x]
            other = a if b == v else b
            d = g.w[x] - g.w[other]
            st.one_tight.setdefault(other, set()).add(x)
            link[x] = other
            # re-arm once: this loop discards no queue entry, so a repeat adds nothing
            if other not in rearmed:
                rearmed.add(other)
                _one_tight_changed(st, other, gained=True)
        else:
            d = delta[x] + wv
            # x's two member neighbours, ascending
            if rows is None:
                a, b = [y for y in adj[x] if in_set[y]]
            else:  # the lowest and highest bit
                pair = rows[x] & members
                b = pair.bit_length() - 1
                a = (pair ^ (1 << b)).bit_length() - 1
            key = (a, b)
            st.mates.setdefault(a, set()).add(b)
            st.mates.setdefault(b, set()).add(a)
            st.two_tight.setdefault(key, set()).add(x)
            link[x] = key
            st.s_two.add(key)
        delta[x] = d
        if d > 0 and x not in in_plus:
            s_plus.add(x)

    # v itself: rho stays 0, delta recomputed (no member neighbors remain)
    delta[v] = wv
    if wv > 0:
        s_plus.add(v)
    st.free.add(v)


def add_member(st: InterstateState, u: int) -> None:
    """Add non-member u (with no member neighbor) to S and propagate updates."""
    assert st.rho[u] == 0, f"add_member: {u} has {st.rho[u]} member neighbor(s)"
    g = st.g
    st.s.add(u)
    st.free.discard(u)
    st.s_plus.discard(u)
    if st.rows is not None:
        st.members |= 1 << u
    wu = g.w[u]

    rho, delta, link = st.rho, st.delta, st.link
    delta[u] = -np.inf
    for x in g.adj[u]:
        r = rho[x] + 1
        rho[x] = r
        delta[x] -= wu
        if r > 3:
            continue
        if r == 1:
            st.free.discard(x)
            st.one_tight.setdefault(u, set()).add(x)
            link[x] = u
            # u is new: each of its mate pairs was queued on creation in this call
            st.s_one.add(u)
        elif r == 2:
            prev = link[x]
            po = st.one_tight[prev]
            assert x in po, f"node {x} reached rho=2 outside its owner's 1-tight set"
            po.discard(x)
            if not po:
                del st.one_tight[prev]
            _one_tight_changed(st, prev, gained=False)
            key = _pair(u, prev)
            st.mates.setdefault(u, set()).add(prev)
            st.mates.setdefault(prev, set()).add(u)
            st.two_tight.setdefault(key, set()).add(x)
            link[x] = key
            st.s_two.add(key)
        elif r == 3:
            key = link[x]
            a, b = key
            tt = st.two_tight[key]
            tt.discard(x)
            if tt:
                st.s_two.add(key)
                continue
            del st.two_tight[key]
            st.s_two.discard(key)
            for y, z in ((a, b), (b, a)):
                my = st.mates[y]
                my.discard(z)
                if not my:
                    del st.mates[y]


def make_maximal(st: InterstateState, rng: random.Random) -> list[int]:
    """Insert free nodes in uniformly random order until st.s is maximal;
    return them in insertion order. The draws: the free nodes ascending,
    one shuffle, then an insert of each node still free at its turn."""
    cand = sorted(st.free)
    rng.shuffle(cand)
    added = []
    for v in cand:
        if st.rho[v] == 0:
            add_member(st, v)
            added.append(v)
    return added


def retarget(st: InterstateState, target: Solution) -> None:
    """Turn st.s into target's set, removals first, with target's total_weight.
    The queues stand: the flips re-arm each member and pair whose pool they
    change, so the next search evaluates only what changed."""
    in_s, in_t = st.s._in_set, target._in_set
    flips = list(compress(range(st.g.n), map(ne, in_s, in_t)))
    for v in flips:
        if in_s[v]:
            remove_member(st, v)
    for v in flips:
        if in_t[v]:
            add_member(st, v)
    st.s.total_weight = target.total_weight


def state_mismatches(st: InterstateState, check_pruning: bool = False) -> list[str]:
    """Compare st with a from-scratch rebuild of st.s; empty list means consistent.

    delta uses relative tolerance 1e-9 at non-members; everything else is
    exact: members' delta (-inf), link at rho 1 and 2 (stale elsewhere), the
    member bitset (0 when st keeps no rows). s_plus is
    checked for completeness only (stale extra entries are legal). Every
    s_one/s_two entry must be live: a member with a 1-tight pool, a key of
    two_tight. With check_pruning, s_one/s_two are additionally required to
    cover every currently eligible member/pair (valid only when no
    evaluation has pruned them, e.g. in pure add/remove churn).
    """
    g, s = st.g, st.s
    fresh = build(g, s)
    bad: list[str] = []
    in_set = s._in_set
    for v in range(g.n):
        if st.rho[v] != fresh.rho[v]:
            bad.append(f"rho[{v}]={st.rho[v]} expected {fresh.rho[v]}")
        d, fd = st.delta[v], fresh.delta[v]
        # the relative test would pass any value at a member: inf > inf is false
        if d != fd if in_set[v] else abs(d - fd) > 1e-9 * max(1.0, abs(fd)):
            bad.append(f"delta[{v}]={d} expected {fd}")
        if fresh.rho[v] in (1, 2) and st.link[v] != fresh.link[v]:
            bad.append(f"link[{v}]={st.link[v]} expected {fresh.link[v]}")
        if fd > 0 and v not in st.s_plus:
            bad.append(f"s_plus missing node {v} with delta {fd}")
    if {k: v for k, v in st.one_tight.items() if v} != fresh.one_tight:
        bad.append("one_tight sets differ")
    if {k: v for k, v in st.mates.items() if v} != fresh.mates:
        bad.append("mate sets differ")
    if {k: v for k, v in st.two_tight.items() if v} != fresh.two_tight:
        bad.append("two_tight sets differ")
    if st.free != fresh.free:
        bad.append("free sets differ")
    expected = 0 if st.rows is None else _bitset(np.array(in_set, dtype=bool))
    if st.members != expected:
        bad.append("member bitset differs from the membership flags")
    if not all(v in fresh.s_one for v in st.s_one):
        bad.append("s_one holds a node with no 1-tight pool")
    if not all(key in fresh.s_two for key in st.s_two):
        bad.append("s_two holds a pair with no 2-tight node")
    if check_pruning:
        if not all(v in st.s_one for v in fresh.s_one):
            bad.append("s_one lost an eligible member")
        if not all(key in st.s_two for key in fresh.s_two):
            bad.append("s_two lost an eligible pair")
    return bad
