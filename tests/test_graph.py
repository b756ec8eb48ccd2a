from __future__ import annotations

import random

import numpy as np
import pytest

from mwis.graph import GraphFormatError, build_graph, graphs_equal, is_edge, \
    load_graph, save_graph

from conftest import graph_from, random_graph


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestEdgeListFormat:
    def test_path_graph(self, tmp_path):
        p = write(tmp_path, "g.txt",
                  "3 2\nw 0 3.0\nw 1 5.0\nw 2 3.0\ne 0 1\ne 1 2\n")
        g = load_graph(p)
        assert (g.n, g.m) == (3, 2)
        assert g.weights.tolist() == [3.0, 5.0, 3.0]
        assert g.neighbors(1).tolist() == [0, 2]

    def test_empty_edge_section(self, tmp_path):
        g = load_graph(write(tmp_path, "g.txt", "4 0\n"))
        assert (g.n, g.m) == (4, 0)
        assert all(len(g.adj[v]) == 0 for v in range(4))

    def test_missing_weights_default_to_one(self, tmp_path):
        g = load_graph(write(tmp_path, "g.txt", "2 1\ne 0 1\nw 1 7.5\n"))
        assert g.weights.tolist() == [1.0, 7.5]

    def test_duplicate_weight_line_rejected(self, tmp_path):
        p = write(tmp_path, "g.txt", "3 0\nw 1 2.0\nw 1 7.5\n")
        with pytest.raises(GraphFormatError, match=r"g\.txt:3: duplicate weight for node 1"):
            load_graph(p)

    def test_self_loop_dropped_with_warning(self, tmp_path):
        g = load_graph(write(tmp_path, "g.txt", "6 1\ne 5 5\n"))
        assert g.m == 0
        assert g.parse_warnings == 1

    def test_duplicate_edge_dropped_with_warning(self, tmp_path):
        g = load_graph(write(tmp_path, "g.txt", "3 3\ne 0 1\ne 1 0\ne 0 1\n"))
        assert g.m == 1
        assert g.parse_warnings == 2

    def test_comments_ignored(self, tmp_path):
        g = load_graph(write(tmp_path, "g.txt",
                             "# header\n2 1\ne 0 1  # trailing\n"))
        assert g.m == 1

    def test_negative_weight_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_graph(write(tmp_path, "g.txt", "2 0\nw 0 -1.0\n"))

    def test_non_finite_weight_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_graph(write(tmp_path, "g.txt", "2 0\nw 0 inf\n"))

    def test_parse_error_reports_line_number(self, tmp_path):
        with pytest.raises(GraphFormatError, match=":3:"):
            load_graph(write(tmp_path, "g.txt", "2 1\ne 0 1\nbogus line\n"))

    def test_out_of_range_node_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_graph(write(tmp_path, "g.txt", "2 1\ne 0 5\n"))


class TestMetisFormat:
    def test_weighted_metis(self, tmp_path):
        text = "% comment\n3 2 10\n3.0 2\n5.0 1 3\n3.0 2\n"
        g = load_graph(write(tmp_path, "g.metis", text), fmt="metis")
        assert (g.n, g.m) == (3, 2)
        assert g.parse_warnings == 0  # double-listing is the format, not an error
        assert g.weights.tolist() == [3.0, 5.0, 3.0]
        assert g.neighbors(1).tolist() == [0, 2]

    def test_wrong_fmt_code_rejected(self, tmp_path):
        with pytest.raises(GraphFormatError, match="fmt"):
            load_graph(write(tmp_path, "g.metis", "2 1 1\n1 2\n1 1\n"), fmt="metis")

    def test_vertex_line_count_checked(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_graph(write(tmp_path, "g.metis", "3 1 10\n1.0 2\n1.0 1\n"),
                       fmt="metis")


class TestInvariants:
    def test_adjacency_sorted_symmetric(self):
        rng = random.Random(0)
        g = random_graph(rng, 60, 0.2)
        total = 0
        for v in range(g.n):
            nbrs = g.neighbors(v).tolist()
            assert nbrs == sorted(set(nbrs))
            assert v not in nbrs
            total += len(nbrs)
            for u in nbrs:
                assert v in g.neighbors(u).tolist()
        assert total == 2 * g.m

    def test_build_matches_set_reference(self):
        # reference: the plain loop over a set of normalized edge tuples
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 25)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 80))]
            seen, warn = set(), 0
            for u, v in edges:
                key = (min(u, v), max(u, v))
                if u == v or key in seen:
                    warn += 1
                seen.add(key)
            adj = [[] for _ in range(n)]
            for u, v in sorted(seen):
                if u != v:
                    adj[u].append(v)
                    adj[v].append(u)
            g = build_graph(n, edges, [1.0] * n, parse_warnings=2)
            assert g.parse_warnings == warn + 2
            assert g.m == sum(map(len, adj)) // 2
            assert [g.neighbors(v).tolist() for v in range(n)] == [sorted(a) for a in adj]

    def test_is_edge_matches_dense_matrix(self):
        rng = random.Random(1)
        for trial in range(8):
            g = random_graph(rng, rng.randint(2, 60), 0.25)
            dense = np.zeros((g.n, g.n), dtype=bool)
            for v in range(g.n):
                dense[v, g.neighbors(v).tolist()] = True
            for u in range(g.n):
                for v in range(g.n):
                    assert is_edge(g, u, v) == dense[u, v]

    def test_is_edge_symmetric_and_irreflexive(self, path3):
        assert is_edge(path3, 0, 1) and is_edge(path3, 1, 0)
        assert not is_edge(path3, 0, 2)
        for v in range(3):
            assert not is_edge(path3, v, v)

    @pytest.mark.parametrize("fmt", ["edge-list", "metis"])
    def test_round_trip(self, tmp_path, fmt):
        rng = random.Random(2)
        g = random_graph(rng, 40, 0.15)
        p = str(tmp_path / "out.g")
        save_graph(g, p, fmt)
        g2 = load_graph(p, fmt)
        assert graphs_equal(g, g2)

    def test_accessors(self, path3):
        assert len(path3.adj[1]) == 2
        assert path3.node_weight(1) == 5.0
        assert path3.neighbors(1).tolist() == [0, 2]
        with pytest.raises(ValueError):
            path3.neighbors(1)[0] = 9  # read-only view

    def test_list_views_match_arrays_and_are_built_once(self):
        g = random_graph(random.Random(4), 30, 0.2)
        assert g.w == g.weights.tolist()
        assert all(g.adj[v] == g.neighbors(v).tolist() for v in range(g.n))
        assert g.adj is g.adj and g.w is g.w

    def test_rows_match_adjacency_and_are_built_once(self):
        rng = random.Random(5)
        # n = 0, n not a multiple of 8, and n = 1100, whose rows are
        # packed in several blocks
        for n, p in [(0, 0.0), (1, 0.0), (7, 0.5), (9, 0.3), (64, 0.1), (1100, 0.01)]:
            g = random_graph(rng, n, p)
            assert g.rows == [sum(1 << u for u in g.adj[v]) for v in range(n)]
            assert g.rows is g.rows

    def test_identity_equality_and_hash(self):
        a = random_graph(random.Random(6), 20, 0.3)
        b = build_graph(a.n, [(u, v) for u in range(a.n) for v in a.adj[u] if u < v], a.w)
        assert a == a and a != b and graphs_equal(a, b)
        assert len({a, b, a}) == 2 and hash(a) == hash(a)

    def test_isolated_positive_weight_legal(self):
        g = graph_from(3, [], [1.0, 2.0, 3.0])
        assert g.m == 0 and sum(g.w) == 6.0

    def test_build_rejects_bad_edge(self):
        with pytest.raises(GraphFormatError):
            build_graph(2, [(0, 3)], [1.0, 1.0])
        with pytest.raises(GraphFormatError, match=r"edge \(1,-1\)"):
            build_graph(3, [(0, 1), (1, -1), (4, 0)], [1.0] * 3)
