"""Independent-set representation, validation, equivalence and files.

A Solution is one membership flag per node plus a cached size and total
weight. add/remove are O(1), copy is one list copy, and members() scans the
flags, so members always come out in ascending node order. Maximalization
needs the free nodes, which the search state tracks, so it lives there
(interstate.make_maximal).
"""

from __future__ import annotations

from itertools import compress

import numpy as np

from .graph import Graph, GraphFormatError, _check, _ids, _placed, _read_lines


class InfeasibleSolutionError(GraphFormatError):
    """An initial-solution file violates independence."""


class Solution:
    """A (not necessarily maximal) independent set with cached total weight."""

    __slots__ = ("graph", "_w", "_in_set", "size", "total_weight")

    def __init__(self, graph: Graph, members=()):
        self.graph = graph
        self._w = graph.w
        self._in_set = [False] * graph.n
        self.size = 0
        self.total_weight = 0.0
        for v in members:
            self.add(v)

    def __contains__(self, v: int) -> bool:
        return self._in_set[v]

    def __len__(self) -> int:
        return self.size

    def add(self, v: int) -> None:
        assert not self._in_set[v], f"node {v} already a member"
        self._in_set[v] = True
        self.size += 1
        self.total_weight += self._w[v]

    def remove(self, v: int) -> None:
        assert self._in_set[v], f"node {v} is not a member"
        self._in_set[v] = False
        self.size -= 1
        self.total_weight -= self._w[v]

    def members(self):
        """Iterate members in ascending node order."""
        return compress(range(self.graph.n), self._in_set)

    def member_list(self) -> list[int]:
        return list(self.members())

    def as_frozenset(self) -> frozenset[int]:
        return frozenset(self.members())

    def recomputed_weight(self) -> float:
        """Sum of member weights in ascending node order (order-canonical)."""
        return sum(self._w[v] for v in self.members())

    def copy(self) -> "Solution":
        out = Solution.__new__(Solution)
        out.graph = self.graph
        out._w = self._w
        out._in_set = self._in_set.copy()
        out.size = self.size
        out.total_weight = self.total_weight
        return out


def is_independent(g: Graph, s: Solution) -> bool:
    """True iff no edge has both endpoints in s."""
    flags = s._in_set
    adj = g.adj
    return not any(flags[u] for v in s.members() for u in adj[v])


def solutions_equivalent(g: Graph, s1: Solution, s2: Solution,
                         move_budget: int | None = None) -> bool:
    """Bounded test for zero-gain transformability of s1 into s2.

    Returns True if s1 == s2 as sets, or a greedy search over zero-gain
    (*,1)/(1,*) swaps restricted to the symmetric difference turns s1 into s2
    within move_budget steps (default 2*|s1 ^ s2|). One-sided: a False answer
    does not prove inequivalence. Differing weights short-circuit to False.
    """
    set1 = s1.as_frozenset()
    set2 = s2.as_frozenset()
    if set1 == set2:
        return True
    w1 = s1.recomputed_weight()
    w2 = s2.recomputed_weight()
    scale = max(1.0, abs(w1), abs(w2))
    if abs(w1 - w2) > 1e-9 * scale:
        return False

    if move_budget is None:
        move_budget = 2 * len(set1 ^ set2)

    w = g.w
    adj = g.adj
    cur = set(set1)

    for _ in range(move_budget):
        if cur == set2:
            return True
        applied = False
        # (*,1)-style: pull in a target member whose blockers weigh exactly the same
        for v in sorted(set2 - cur):
            blockers = [x for x in adj[v] if x in cur]
            if sum(w[x] for x in blockers) == w[v]:
                cur.difference_update(blockers)
                cur.add(v)
                applied = True
                break
        if applied:
            continue
        # (1,*)-style: drop a non-target member, add freed target neighbors, zero gain only
        for v in sorted(cur - set2):
            trial = set(cur)
            trial.discard(v)
            gained = 0.0
            added = []
            for u in adj[v]:
                if u in set2 and u not in trial and not any(x in trial for x in adj[u]):
                    trial.add(u)
                    added.append(u)
                    gained += w[u]
            if added and gained == w[v]:
                cur = trial
                applied = True
                break
        if not applied:
            return False
    return cur == set2


def load_solution(path: str, g: Graph) -> Solution:
    """Read one node ID per line ('#' comments); fail loudly if not independent."""
    s, seen = Solution(g), np.zeros(g.n, dtype=bool)
    for blk in _read_lines(path, b"#"):
        v, v_ok = _ids(blk, blk.first)
        unparsed = (blk.count != 1) | ~v_ok
        outside, repeat, _ = _placed(v, ~unparsed, seen)
        _check(path, blk, [(unparsed, lambda i: f"not a node ID: {blk.text(i)!r}"),
                           (outside, lambda i: f"node {int(blk.text(i))} out of range"),
                           (repeat, lambda i: f"duplicate node {v[i]}")])
        for u in v.tolist():
            s.add(u)
    if not is_independent(g, s):
        raise InfeasibleSolutionError(f"{path}: solution is not an independent set")
    return s


def save_solution(s: Solution, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join([f"{v}\n" for v in s.members()]))
