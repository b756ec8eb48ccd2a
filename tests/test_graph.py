from __future__ import annotations

import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import reference_loaders as ref
from mwis import formats
from mwis.graph import GraphFormatError, build_graph, graphs_equal, is_edge, \
    load_graph, save_graph
from mwis.lp_bias import load_relaxed
from mwis.solution import load_solution

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

    def test_declared_edge_count_must_match(self, tmp_path):
        with pytest.raises(GraphFormatError,
                           match=r"g\.txt: header declares m=2 but the file has 1 edge lines"):
            load_graph(write(tmp_path, "g.txt", "3 2\ne 0 1\n"))
        with pytest.raises(GraphFormatError, match=r"m=1 but the file has 2"):
            load_graph(write(tmp_path, "g.txt", "3 1\ne 0 1\ne 1 1\n"))
        # a bad line keeps its precedence over the count
        with pytest.raises(GraphFormatError, match=r"g\.txt:3: cannot parse"):
            load_graph(write(tmp_path, "g.txt", "3 5\ne 0 1\ne 0\n"))

    def test_token_syntax(self, tmp_path):
        # IDs are ASCII digits after an optional '-', tokens split on ASCII
        # whitespace, and lines end at LF
        for text in ("2 1\ne +1 0\n", "20 1\ne 1_0 0\n", "2 1\ne 0\u00a01\n",
                     "2 1\ne \u0661 0\n", "2 1\re 0 1\n"):
            with pytest.raises(GraphFormatError, match=r"g\.txt:[12]: "):
                load_graph(write(tmp_path, "g.txt", text))


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

    def test_declared_edge_count_must_match(self, tmp_path):
        with pytest.raises(GraphFormatError, match=r"g\.metis: header declares m=2 but the "
                                                   r"vertex lines hold 2 neighbor entries, not 4"):
            load_graph(write(tmp_path, "g.metis", "3 2 10\n1.0 2\n1.0 1\n1.0\n"), fmt="metis")
        # a self-loop or a repeat is an entry too
        g = load_graph(write(tmp_path, "g.metis", "2 2 10\n1.0 1 2\n1.0 1 1\n"), fmt="metis")
        assert (g.m, g.parse_warnings) == (1, 2)

    def test_read_temporaries_stay_under_five_times_the_arcs(self, tmp_path):
        # the reader sorts its arcs in place and keys each edge in the freed
        # buffers, so its peak is about 3.5 times the bytes of its 2m int64 arcs
        n, edges = 20_000, np.random.default_rng(0).integers(0, 20_000, size=(100_000, 2))
        path = str(tmp_path / "g.metis")
        save_graph(build_graph(n, edges, np.ones(n)), path, "metis")
        tracemalloc.start()
        try:
            _, edges, _, _ = formats.read_graph(path, "metis")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arcs = 2 * len(edges) * 8
        assert peak <= 5 * arcs, peak / arcs


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
            for dtype in (np.int64, np.int32, np.uint8):  # integer arrays build the same graph
                h = build_graph(n, np.array(edges, dtype=dtype).reshape(-1, 2), [1.0] * n, 2)
                assert graphs_equal(h, g) and h.parse_warnings == g.parse_warnings

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

    @pytest.mark.parametrize("edges", [[(0, 1.7)], np.array([[0.0, 1.7]]), [(0, "2")],
                                       [(0, 1), (2, float("nan"))]])
    def test_build_rejects_non_integer_endpoints(self, edges):
        # a cast to int64 would truncate them to (0, 1), (0, 2) or any node
        with pytest.raises(GraphFormatError, match="must be integers"):
            build_graph(3, edges, [1.0] * 3)

    def test_build_temporaries_stay_under_three_times_the_input(self):
        # a build sorts and rewrites its keys, then its arcs, in place, so its
        # peak above entry is about 1.6 times the (k, 2) int64 input's bytes
        n, edges = 20_000, np.random.default_rng(0).integers(0, 20_000, size=(100_000, 2))
        weights = np.ones(n)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_graph(n, edges, weights)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 * edges.nbytes, peak / edges.nbytes


# The readers against their per-line reference copies (reference_loaders.py).
# Each kind's file body is a list of lines; relaxed values and solutions are
# read against a random graph.
KINDS = ("edge-list", "metis", "relaxed", "solution")
COMMENT = {"edge-list": "#", "metis": "%", "relaxed": "#", "solution": "#"}


def load_new(kind, path, g):
    if kind in ("edge-list", "metis"):
        return load_graph(path, kind)
    return (load_relaxed if kind == "relaxed" else load_solution)(path, g)


def load_reference(kind, path, g):
    if kind == "edge-list":
        return ref._load_edge_list(path)
    if kind == "metis":
        return ref._load_metis(path)
    return (ref.load_relaxed if kind == "relaxed" else ref.load_solution)(path, g)


def outcome(load, kind, path, g):
    """(loaded object, None) or (None, (error type, message))."""
    try:
        return load(kind, path, g), None
    except GraphFormatError as e:
        return None, (type(e), str(e))


def same_result(kind, a, b):
    if kind in ("edge-list", "metis"):
        return graphs_equal(a, b) and a.parse_warnings == b.parse_warnings
    if kind == "relaxed":
        return np.array_equal(a.x, b.x) and a.clamp_warnings == b.clamp_warnings
    return a.member_list() == b.member_list() and a.total_weight == b.total_weight


def a_float(rng):
    return rng.choice([repr(rng.uniform(0, 100)), str(rng.randint(0, 200)), "+2.5", "1_0.5",
                       f"{rng.random():.3e}", "7."])


def valid_lines(kind, rng, g):
    n = g.n
    if kind == "edge-list":
        body = [f"w {v} {a_float(rng)}" for v in rng.sample(range(n), rng.randint(0, n))]
        body += [f"e {u} {v}" for u in range(n) for v in g.adj[u] if u < v or rng.random() < 0.1]
        body += [f"e {v} {v}" for v in rng.sample(range(n), min(n, 2))]
        rng.shuffle(body)
        return [f"{n} {sum(line[0] == 'e' for line in body)}"] + body
    if kind == "metis":
        adj = [list(a) for a in g.adj]
        for _ in range(rng.randint(0, 4)):  # self-loops, repeats and one-way entries
            v = rng.randrange(n)
            adj[v].append(rng.choice([v, rng.randrange(n)] + adj[v]))
        if sum(map(len, adj)) % 2:
            adj[0].append(0)
        for a in adj:
            rng.shuffle(a)
        return [f"{n} {sum(map(len, adj)) // 2} 10"] + [
            " ".join([a_float(rng)] + [str(u + 1) for u in a]) for a in adj]
    if kind == "relaxed":
        values = [rng.choice([repr(rng.random()), "0", "1", "5e-1", str(rng.uniform(-0.5, 1.5))])
                  for _ in range(n)]
        if rng.random() < 0.5:
            return values
        return [f"{v} {values[v]}" for v in rng.sample(range(n), n)]
    members = set()
    for v in rng.sample(range(n), n):
        if not members.intersection(g.adj[v]):
            members.add(v)
    return [str(v) for v in rng.sample(sorted(members), len(members))]


def faults(kind, rng, g, lines):
    """Malformed lines for kind: one of each error class that applies."""
    n = g.n
    if kind == "edge-list":
        w = [line for line in lines[1:] if line[0] == "w"]
        return ["x 0 1", "e 0", "w 0 1.0 2", "e 0 a", "w 1.5 2.0", "w 0 abc", "w 0 2.5\0",
                "w -1 1.0", f"w {n} 1.0", "w 100000000000000001 1.0", "w 123456789012345678901 1.0",
                "e 1234567890123456789x 0", f"e 0 {n + rng.randint(0, 5)}", "e -1 0"] + w[:1]
    if kind == "metis":
        # "1.0" is an extra vertex line
        return ["1.0 a", "abc 1", f"1.0 {n + 1}", "1.0 0", f"1.0 1 x {n + 1}", f"1.0 {n + 1} x",
                "1.0"]
    if kind == "relaxed":
        bare = len(lines[0].split()) == 1
        return (["0 0.5 1", "a 0.5", "1.5 0.5", "abc", "0.5\0", "0 abc", f"{n} 0.5", "-1 0.5",
                 "123456789012345678901 0.5"]
                + ([f"{rng.randrange(n)} 0.3"] if bare else ["0.3", lines[0]]))
    neighbours = [str(v) for v in g.adj[int(lines[0])][:1]]  # of a member
    return ["1 2", "a", "1.5", str(n), "-1"] + lines[:1] + neighbours


def noisy(rng, lines, comment):
    """The file text of lines, with comments, blank lines and mixed spacing."""
    out = []
    for line in lines:
        if rng.random() < 0.2:
            out.append(rng.choice(["", " \t", f"{comment} note", f"\t{comment} {comment} 1 2"]))
        sep = rng.choice([" ", "  ", "\t", " \t"])
        out.append(rng.choice(["", " "]) + sep.join(line.split())
                   + rng.choice(["", " ", f" {comment} tail", f"{comment}x"]))
    return "\n".join(out) + rng.choice(["", "\n"])


@pytest.fixture(params=[1, 7, 64, None], ids=lambda b: f"block{b or 'default'}")
def block(request, monkeypatch):
    if request.param:
        monkeypatch.setattr(formats, "_BLOCK", request.param)


class TestReadersMatchReference:
    @pytest.mark.parametrize("kind", KINDS)
    def test_valid_files_give_equal_results(self, tmp_path, kind, block):
        rng = random.Random(KINDS.index(kind))
        path = str(tmp_path / "f.txt")
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 30), rng.choice([0.05, 0.2]))
            with open(path, "w") as f:
                f.write(noisy(rng, valid_lines(kind, rng, g), COMMENT[kind]))
            new, new_err = outcome(load_new, kind, path, g)
            old, old_err = outcome(load_reference, kind, path, g)
            assert new_err is None and old_err is None
            assert same_result(kind, new, old)

    @pytest.mark.parametrize("kind", KINDS)
    def test_malformed_files_give_the_same_error(self, tmp_path, kind, block):
        rng = random.Random(10 + KINDS.index(kind))
        path = str(tmp_path / "f.txt")
        for trial in range(40):
            g = random_graph(rng, rng.randint(2, 30), 0.2)
            lines = valid_lines(kind, rng, g)
            options = faults(kind, rng, g, lines)
            # every error class in turn, sometimes with a second fault
            for bad in [options[trial % len(options)]] + rng.sample(options, rng.randint(0, 1)):
                if kind == "metis" and bad != "1.0":  # replace a vertex line
                    lines[rng.randint(1, len(lines) - 1)] = bad
                else:
                    lines.insert(rng.randint(kind in ("edge-list", "metis"), len(lines)), bad)
            if kind == "edge-list":  # the header's m is right, as the reference never checks it
                lines[0] = f"{g.n} {sum(line[0] == 'e' for line in lines[1:])}"
            with open(path, "w") as f:
                f.write(noisy(rng, lines, COMMENT[kind]))
            _, new_err = outcome(load_new, kind, path, g)
            _, old_err = outcome(load_reference, kind, path, g)
            assert old_err is not None and new_err == old_err, open(path).read()

    def test_errors_past_the_first_default_block(self, tmp_path):
        # files of a few default blocks: a repeat of an ID first seen in the
        # first block, or a bad line, near the end
        rng = random.Random(7)
        g = random_graph(rng, 3000, 0.002)
        path = str(tmp_path / "f.txt")
        for kind in KINDS:
            lines = valid_lines(kind, rng, g)
            if kind == "edge-list":
                lines.insert(1, "w 5 1.0")
            if kind == "relaxed" and len(lines[0].split()) == 1:
                lines = [f"{v} {x}" for v, x in enumerate(lines)]
            head = kind in ("edge-list", "metis")
            repeat = {"edge-list": "w 5 2.0", "relaxed": lines[0].split()[0] + " 0.5",
                      "solution": lines[0]}.get(kind)
            bad = {"edge-list": "e 0 q", "metis": "1.0 q", "relaxed": "0 q", "solution": "q"}[kind]
            lines[head + 1:head + 1] = [f"{COMMENT[kind]} padding {i}" for i in range(12000)]
            for extra in filter(None, (repeat, bad)):
                with open(path, "w") as f:
                    f.write("\n".join(lines[:-1] + [extra] if kind == "metis" else lines + [extra]))
                assert tmp_path.joinpath("f.txt").stat().st_size > 2 * formats._BLOCK
                _, new_err = outcome(load_new, kind, path, g)
                _, old_err = outcome(load_reference, kind, path, g)
                assert old_err is not None and new_err == old_err, (kind, extra)


def writer_graphs():
    """Graphs with an isolated node 0, and with no edges at all; the weights
    mix integers, fractions and extreme magnitudes."""
    rng = random.Random(5)
    weights = [0.0, 1.0, 0.1, 1e-300, 2.5e17, 1 / 3]
    for n, p in ((1, 0.0), (50, 0.0), (30, 0.1), (40, 0.5), (200, 0.05)):
        edges = [(u, v) for u in range(1, n) for v in range(u + 1, n) if rng.random() < p]
        yield build_graph(n, edges, [rng.choice(weights) * rng.randint(1, 9) for _ in range(n)])


class TestWriterMatchesReference:
    @pytest.mark.parametrize("batch", [1, 7, None], ids=lambda b: f"batch{b or 'default'}")
    @pytest.mark.parametrize("fmt", ["edge-list", "metis"])
    def test_same_bytes(self, tmp_path, monkeypatch, fmt, batch):
        if batch:
            monkeypatch.setattr(formats, "_SAVE_BATCH", batch)
        new, old = tmp_path / "new.g", tmp_path / "old.g"
        for g in writer_graphs():
            save_graph(g, str(new), fmt)
            ref.save_graph(g, str(old), fmt)
            assert new.read_bytes() == old.read_bytes()
            assert graphs_equal(load_graph(str(new), fmt), g)

    def test_unknown_format_writes_nothing(self, tmp_path):
        p = tmp_path / "g.txt"
        with pytest.raises(GraphFormatError):
            save_graph(graph_from(2, [(0, 1)]), str(p), "dimacs")
        assert not p.exists()


@pytest.mark.parametrize("kind", KINDS)
def test_crlf_files_load_like_lf_files(tmp_path, kind):
    rng = random.Random(3)
    g = random_graph(rng, 40, 0.1)
    text = noisy(rng, valid_lines(kind, rng, g), COMMENT[kind])
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert b"\r\n" in crlf.read_bytes()
    assert same_result(kind, load_new(kind, str(lf), g), load_new(kind, str(crlf), g))


@pytest.mark.parametrize("kind", KINDS)
def test_loading_does_not_import_numpy_ma(tmp_path, kind):
    # np.unique imports numpy.ma on first use, about 1 MB of resident memory
    rng = random.Random(4)
    g = random_graph(rng, 40, 0.1)
    save_graph(g, str(tmp_path / "g.txt"))
    (tmp_path / "f.txt").write_text(noisy(rng, valid_lines(kind, rng, g), COMMENT[kind]))
    code = f"""
import sys
from mwis.graph import load_graph
from mwis.lp_bias import load_relaxed
from mwis.solution import load_solution
g = load_graph({str(tmp_path / 'g.txt')!r})
assert "numpy.ma" not in sys.modules
path, kind = {str(tmp_path / 'f.txt')!r}, {kind!r}
if kind in ("edge-list", "metis"):
    load_graph(path, kind)
else:
    (load_relaxed if kind == "relaxed" else load_solution)(path, g)
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"
