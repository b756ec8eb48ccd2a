from __future__ import annotations

import random

import numpy as np
import pytest
from scipy import stats

from mwis.graph import GraphFormatError, build_graph
from mwis.lp_bias import load_relaxed, make_relaxed, sample_biased

from conftest import graph_from


class TestConstruction:
    def test_prefix_of_zeros(self):
        rs = make_relaxed([0.0, 0.0, 0.0], epsilon=0.005)
        assert rs.prefix.tolist() == pytest.approx([0.005, 0.010, 0.015], rel=1e-9)
        assert rs.total == pytest.approx(0.015, rel=1e-9)

    def test_out_of_range_clamped_with_warning(self):
        rs = make_relaxed([1.2, 0.5, -0.1], epsilon=0.005)
        assert rs.x.tolist() == [1.0, 0.5, 0.0]
        assert rs.clamp_warnings == 2

    def test_prefix_strictly_increasing(self):
        rng = random.Random(0)
        rs = make_relaxed([rng.random() for _ in range(200)])
        assert np.all(np.diff(rs.prefix) > 0)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            make_relaxed([0.5], epsilon=0.0)


class TestLoading:
    def test_bare_column(self, tmp_path, path3):
        p = tmp_path / "rs.txt"
        p.write_text("# relaxed\n0.5\n0.0\n0.5\n")
        rs = load_relaxed(str(p), path3)
        assert rs.x.tolist() == [0.5, 0.0, 0.5]

    def test_id_value_lines(self, tmp_path, path3):
        p = tmp_path / "rs.txt"
        p.write_text("2 0.25\n0 1.0\n1 0.0\n")
        rs = load_relaxed(str(p), path3)
        assert rs.x.tolist() == [1.0, 0.0, 0.25]

    def test_count_mismatch_is_hard_error(self, tmp_path, path3):
        p = tmp_path / "rs.txt"
        p.write_text("0.5\n0.5\n")
        with pytest.raises(GraphFormatError):
            load_relaxed(str(p), path3)

    def test_mixed_forms_rejected(self, tmp_path, path3):
        p = tmp_path / "rs.txt"
        p.write_text("0 0.5\n0.5\n0.5\n")
        with pytest.raises(GraphFormatError):
            load_relaxed(str(p), path3)

    def test_duplicate_id_rejected_with_line(self, tmp_path):
        g = graph_from(4, [(0, 1)])
        p = tmp_path / "rs.txt"
        p.write_text("0 0.1\n1 0.2\n2 0.3\n# repeat\n2 0.9\n3 0.4\n")
        with pytest.raises(GraphFormatError, match=r"rs\.txt:5: duplicate node 2$"):
            load_relaxed(str(p), g)

    def test_out_of_range_id_names_its_line(self, tmp_path):
        g = graph_from(4, [(0, 1)])
        p = tmp_path / "rs.txt"
        for bad in ("4", "-1"):
            p.write_text(f"0 0.1\n1 0.2\n{bad} 0.3\n3 0.4\n")
            with pytest.raises(GraphFormatError,
                               match=rf"rs\.txt:3: node {bad} out of range$"):
                load_relaxed(str(p), g)


class TestSampling:
    def test_single_node(self):
        rs = make_relaxed([0.7])
        rng = random.Random(0)
        assert all(sample_biased(rs, rng) == 0 for _ in range(50))

    def test_frequencies_match_closed_form(self):
        rs = make_relaxed([0.5, 0.0, 0.5], epsilon=0.005)
        rng = random.Random(42)
        counts = [0, 0, 0]
        n_draws = 100_000
        for _ in range(n_draws):
            counts[sample_biased(rs, rng)] += 1
        probs = (rs.x + rs.epsilon) / rs.total
        assert probs.tolist() == pytest.approx([0.49754, 0.00493, 0.49754], abs=1e-4)
        _, p_value = stats.chisquare(counts, [q * n_draws for q in probs])
        assert p_value > 0.001
        assert counts[1] >= 1  # x_v = 0 nodes remain reachable

    def test_all_zero_values_sample_uniformly(self):
        rs = make_relaxed([0.0] * 10)
        rng = random.Random(7)
        counts = [0] * 10
        n_draws = 50_000
        for _ in range(n_draws):
            counts[sample_biased(rs, rng)] += 1
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.001

    def test_sample_is_least_prefix_above_draw(self):
        class StubRng:  # sample_biased draws z = random() * total
            def __init__(self, us):
                self.us = iter(us)

            def random(self):
                return next(self.us)

        def draw(rs, us):
            rng = StubRng(us)
            return [sample_biased(rs, rng) for _ in us]

        rs = make_relaxed([random.Random(1).random() for _ in range(1000)])
        us = [random.Random(2).random() for _ in range(2000)]
        for u, i in zip(us, draw(rs, us)):
            z = u * rs.total
            assert rs.prefix[i] > z
            assert i == 0 or rs.prefix[i - 1] <= z

        # quarter-unit values over a total of 8: z hits every prefix exactly
        x = [0, 1, .5, .25, .75, 0, 0, .5, .25, .25, 0, 0, .5, 0, 0, 0]
        rs = make_relaxed(x, epsilon=0.25)
        assert rs.total == 8.0
        bounds = [p / 8.0 for p in rs.prefix.tolist()]
        assert [u * rs.total for u in bounds] == rs.prefix.tolist()
        # z == prefix[i] is still inside node i + 1; z == total is the last node
        assert draw(rs, [0.0] + bounds) == list(range(16)) + [15]
