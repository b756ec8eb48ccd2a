from __future__ import annotations

import random

import pytest

import reference_loaders as ref
from mwis.graph import build_graph
from mwis.interstate import build, make_maximal
from mwis.solution import InfeasibleSolutionError, Solution, is_independent, load_solution, \
    save_solution, solutions_equivalent

from conftest import graph_from, maximal, random_graph


class TestBasics:
    def test_is_independent(self, path3):
        assert is_independent(path3, Solution(path3, [0, 2]))
        assert not is_independent(path3, Solution(path3, [0, 1]))
        assert is_independent(path3, Solution(path3))

    def test_weight_and_size_tracking(self, path3):
        s = Solution(path3, [0])
        s.add(2)
        assert (s.size, s.total_weight) == (2, 6.0)
        s.remove(0)
        assert (s.size, s.total_weight) == (1, 3.0)
        assert s.member_list() == [2]

    def test_add_remove_guards(self, path3):
        s = Solution(path3, [0])
        with pytest.raises(AssertionError):
            s.add(0)
        with pytest.raises(AssertionError):
            s.remove(1)

    def test_lazy_compaction_no_duplicates(self, path3):
        s = Solution(path3, [0, 2])
        s.remove(0)
        s.add(0)  # re-add after a removal
        assert sorted(s.members()) == [0, 2]
        assert sorted(s.members()) == [0, 2]
        g = graph_from(10, [])
        s = Solution(g, [7, 3, 9, 1])
        s.remove(3)
        s.add(5)
        s.add(0)
        s.remove(9)
        s.add(3)
        assert list(s.members()) == [0, 1, 3, 5, 7]

    def test_copy_is_detached(self, path3):
        s = Solution(path3, [0])
        c = s.copy()
        c.add(2)
        assert 2 not in s and 2 in c
        assert s.total_weight == 3.0 and c.total_weight == 6.0

    def test_cached_weight_matches_recompute(self):
        rng = random.Random(5)
        g = random_graph(rng, 50, 0.1, max_w=1000)
        s = Solution(g)
        pool = list(range(50))
        for _ in range(300):
            v = rng.choice(pool)
            if v in s:
                s.remove(v)
            else:
                s.add(v)  # independence not needed for weight bookkeeping
        assert s.total_weight == pytest.approx(s.recomputed_weight(), rel=1e-9)


class TestMakeMaximal:
    """The solver's one maximalization routine, on a state built over s;
    tests/test_interstate.py::TestMakeMaximal pins its draws."""

    def test_forced_completion(self, cycle4):
        s = Solution(cycle4, [0])
        assert make_maximal(build(cycle4, s), random.Random(0)) == [2]
        assert sorted(s.members()) == [0, 2]

    def test_already_maximal_unchanged(self, path3):
        s = Solution(path3, [1])
        assert make_maximal(build(path3, s), random.Random(0)) == []
        assert sorted(s.members()) == [1]

    def test_isolated_nodes_all_added(self):
        g = graph_from(3, [], [1.0, 2.0, 3.0])
        s = Solution(g)
        make_maximal(build(g, s), random.Random(0))
        assert sorted(s.members()) == [0, 1, 2]

    def test_properties_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(1000):
            g = random_graph(rng, rng.randint(1, 40), rng.uniform(0.05, 0.4))
            s = Solution(g)
            for v in range(g.n):  # random independent start
                if rng.random() < 0.2 and all(
                        u not in s for u in g.neighbors(v).tolist()):
                    s.add(v)
            w_before = s.total_weight
            members_before = s.as_frozenset()
            make_maximal(build(g, s), rng)
            assert is_independent(g, s)
            assert members_before <= s.as_frozenset()  # never removes
            assert s.total_weight >= w_before
            flags = [v in s for v in range(g.n)]
            for v in range(g.n):  # no free node remains
                if not flags[v]:
                    assert any(flags[u] for u in g.neighbors(v).tolist())


class TestEquivalence:
    def test_identical_sets(self, path3):
        s = Solution(path3, [0, 2])
        assert solutions_equivalent(path3, s, s.copy())

    def test_weight_mismatch_short_circuits(self, path3):
        s1 = maximal(path3, Solution(path3, [1]), random.Random(0))
        s2 = maximal(path3, Solution(path3, [0, 2]), random.Random(0))
        assert s1.total_weight != s2.total_weight
        assert not solutions_equivalent(path3, s1, s2)

    def test_single_zero_gain_swap(self):
        g = graph_from(2, [(0, 1)], [5.0, 5.0])
        s1 = Solution(g, [0])
        s2 = Solution(g, [1])
        assert solutions_equivalent(g, s1, s2)
        assert solutions_equivalent(g, s2, s1)  # symmetric here

    def test_reflexive_symmetric_on_random_pairs(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng, 20, 0.25)
            a = maximal(g, Solution(g), rng)
            b = maximal(g, Solution(g), rng)
            assert solutions_equivalent(g, a, a.copy())
            assert solutions_equivalent(g, a, b) == solutions_equivalent(g, b, a)

    def test_budget_zero_blocks_search(self):
        g = graph_from(2, [(0, 1)], [5.0, 5.0])
        assert not solutions_equivalent(g, Solution(g, [0]), Solution(g, [1]),
                                        move_budget=0)


class TestSolutionFiles:
    @pytest.mark.parametrize("members", [[], [0], [0, 2, 5, 9], list(range(0, 30, 2))])
    def test_writer_matches_reference(self, tmp_path, members):
        g = graph_from(30, [(v, v + 1) for v in range(29)])
        new, old = tmp_path / "new.txt", tmp_path / "old.txt"
        save_solution(Solution(g, members), str(new))
        ref.save_solution(Solution(g, members), str(old))
        assert new.read_bytes() == old.read_bytes()

    def test_round_trip(self, tmp_path, path3):
        s = Solution(path3, [0, 2])
        p = str(tmp_path / "sol.txt")
        save_solution(s, p)
        s2 = load_solution(p, path3)
        assert s2.as_frozenset() == {0, 2}

    def test_loader_rejects_dependent_set(self, tmp_path, path3):
        p = tmp_path / "bad.txt"
        p.write_text("0\n1\n")
        with pytest.raises(InfeasibleSolutionError):
            load_solution(str(p), path3)

    def test_loader_comments_and_range(self, tmp_path, path3):
        p = tmp_path / "sol.txt"
        p.write_text("# chosen nodes\n0\n2\n")
        assert load_solution(str(p), path3).as_frozenset() == {0, 2}
        p.write_text("9\n")
        with pytest.raises(Exception):
            load_solution(str(p), path3)
