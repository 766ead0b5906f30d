"""Bar-coloring randomized rounding."""

import numpy as np
import pytest

from cachenet.rounding import build_bar_map, sample_decision, slot_uniforms

from helpers import reference_bar_decision, reference_bar_intervals

FIG_Y = np.array([0.3, 0.5, 0.1, 0.8, 0.4, 0.3])


class TestBarMap:
    def test_empty_vector(self):
        m = build_bar_map(np.zeros(4))
        assert m.evaluate(0.0) == set()
        assert m.evaluate(0.7) == set()

    def test_full_bars_cover_everything(self):
        m = build_bar_map(np.array([1.0, 1.0]))
        for u in np.linspace(0, 1, 23):
            assert m.evaluate(float(u)) == {0, 1}

    def test_reference_layout_at_035(self):
        # items 2, 4 and 6 (1-based) cross position 0.35
        m = build_bar_map(FIG_Y)
        assert m.evaluate(0.35) == {1, 3, 5}

    def test_interval_measure_equals_y(self):
        m = build_bar_map(FIG_Y)
        for k, spans in enumerate(m.intervals):
            length = sum(end - start for _, start, end in spans)
            assert length == pytest.approx(FIG_Y[k], abs=1e-12)

    def test_wrapped_bar_split_in_two(self):
        # item 4 starts at offset 0.9 and wraps: [0.9, 1.0) + [0.0, 0.7)
        m = build_bar_map(FIG_Y)
        spans = m.intervals[3]
        assert len(spans) == 2
        (l1, s1, e1), (l2, s2, e2) = spans
        assert (l1, s1, e1) == (0, pytest.approx(0.9), pytest.approx(1.0))
        assert (l2, s2, e2) == (1, 0.0, pytest.approx(0.7))

    def test_cardinality_within_one_of_total(self):
        # |sum x - sum y| < 1 for every u over a 1e4-point sweep
        m = build_bar_map(FIG_Y)
        total = FIG_Y.sum()
        for u in np.linspace(0.0, 0.9999, 10_000):
            x = sample_decision(m, float(u))
            assert abs(x.sum() - total) < 1.0


class TestSampleDecision:
    def test_zero_vector_all_zero(self):
        m = build_bar_map(np.zeros(6))
        assert sample_decision(m, 0.42).sum() == 0

    def test_reference_sample(self):
        m = build_bar_map(FIG_Y)
        x = sample_decision(m, 0.35)
        assert list(np.nonzero(x)[0]) == [1, 3, 5]

    def test_monte_carlo_expectation(self):
        # E[x(k)] = y(k); check item 4 (y = 0.8) within 3 standard errors
        m = build_bar_map(FIG_Y)
        rng = np.random.default_rng(123)
        n = 100_000
        draws = rng.random(n)
        hits = np.zeros(6)
        for u in draws:
            hits += sample_decision(m, float(u))
        means = hits / n
        for k in range(6):
            se = np.sqrt(FIG_Y[k] * (1 - FIG_Y[k]) / n)
            assert abs(means[k] - FIG_Y[k]) <= 3 * se + 1e-12

    def test_slot_uniform_deterministic(self):
        # one generator per (seed, period, slot) gives every node's position
        a = slot_uniforms(42, period=7, slot=2, num_nodes=25)
        b = slot_uniforms(42, period=7, slot=2, num_nodes=25)
        c = slot_uniforms(42, period=7, slot=3, num_nodes=25)
        d = slot_uniforms(42, period=8, slot=2, num_nodes=25)
        e = slot_uniforms(43, period=7, slot=2, num_nodes=25)
        assert a.shape == (25,)
        assert np.array_equal(a, b)
        assert not np.isin(a, c).any() and not np.isin(a, d).any()
        assert not np.isin(a, e).any()
        assert ((0.0 <= a) & (a < 1.0)).all()
        assert len(np.unique(a)) == 25


def _random_caching(rng, shape):
    """Caching fractions in tenths, with plenty of exact zeros and ones."""
    y = rng.integers(0, 11, size=shape) / 10.0
    y[rng.random(shape) < 0.2] = 0.0
    y[rng.random(shape) < 0.1] = 1.0
    return y


class TestArrayRounding:
    """The cumulative-sum layout against the interval loop it replaced
    (``helpers.reference_bar_decision``)."""

    def test_decisions_match_interval_loop(self):
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(300):
            y = _random_caching(rng, int(rng.integers(1, 12)))
            m = build_bar_map(y)
            for u in (0.0, 1.0, *rng.random(5)):
                got = sample_decision(m, float(u))
                assert np.array_equal(got, reference_bar_decision(y, float(u)))
                checked += 1
        assert checked == 2100

    def test_intervals_match_interval_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            y = _random_caching(rng, int(rng.integers(1, 12)))
            assert build_bar_map(y).intervals == reference_bar_intervals(y)

    def test_node_columns_round_independently(self):
        # a (C, V) map with one position per node equals V one-node maps
        rng = np.random.default_rng(4)
        y = _random_caching(rng, (9, 7))
        m = build_bar_map(y)
        for u in (np.zeros(7), np.ones(7), rng.random(7)):
            x = sample_decision(m, u)
            assert x.shape == (9, 7) and x.dtype == np.int8
            for i in range(7):
                assert np.array_equal(x[:, i], reference_bar_decision(y[:, i], u[i]))

    def test_position_outside_unit_interval_rejected(self):
        m = build_bar_map(np.full((2, 3), 0.5))
        with pytest.raises(ValueError):
            sample_decision(m, [0.1, 1.2, 0.3])
