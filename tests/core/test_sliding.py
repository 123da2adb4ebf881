"""Sliding-window machinery: DGIM, the exponential histogram of summaries,
and the sliding-window estimators."""

from collections import Counter

import numpy as np
import pytest

from repro.core import (DgimCounter, DgimSum, QuantileSummary,
                        SlidingWindowFrequencies, SlidingWindowQuantiles,
                        StreamingQuantiles)
from repro.errors import InvariantViolation, QueryError, SummaryError
from repro.streams import zipf_stream

from ..conftest import rank_error


class TestDgimCounter:
    def test_all_ones(self):
        c = DgimCounter(window=64, eps=0.1)
        for _ in range(200):
            c.update(1)
        assert abs(c.estimate() - 64) <= 0.15 * 64

    def test_all_zeros(self):
        c = DgimCounter(window=64)
        for _ in range(100):
            c.update(0)
        assert c.estimate() == 0

    def test_relative_error_bound(self, rng):
        c = DgimCounter(window=2000, eps=0.1)
        bits = rng.random(10000) < 0.4
        for b in bits:
            c.update(bool(b))
        c.check_invariant()
        true = int(bits[-2000:].sum())
        assert abs(c.estimate() - true) <= 0.15 * true

    def test_upper_bound_is_certain(self, rng):
        c = DgimCounter(window=500, eps=0.2)
        bits = rng.random(3000) < 0.5
        for b in bits:
            c.update(bool(b))
        assert c.exact_upper_bound() >= int(bits[-500:].sum())

    def test_logarithmic_space(self, rng):
        c = DgimCounter(window=100_000, eps=0.1)
        for b in (rng.random(50000) < 0.5):
            c.update(bool(b))
        # O((1/eps) log^2 W) buckets, far below the window width
        assert len(c) < 500

    def test_expiry(self):
        c = DgimCounter(window=10)
        for _ in range(5):
            c.update(1)
        for _ in range(20):
            c.update(0)
        assert c.estimate() == 0

    def test_parameter_validation(self):
        with pytest.raises(SummaryError):
            DgimCounter(0)
        with pytest.raises(SummaryError):
            DgimCounter(10, eps=0)


class TestDgimSum:
    def test_sum_tracks_window(self, rng):
        s = DgimSum(window=500, max_value=10, eps=0.1)
        values = rng.integers(0, 11, 2000)
        for v in values:
            s.update(int(v))
        true = int(values[-500:].sum())
        assert abs(s.estimate() - true) <= 0.2 * true

    def test_value_range_enforced(self):
        s = DgimSum(window=10, max_value=5)
        with pytest.raises(QueryError):
            s.update(6)

    def test_invalid_max_value(self):
        with pytest.raises(SummaryError):
            DgimSum(10, max_value=0)


class TestStreamingQuantiles:
    def test_error_bound_over_history(self, rng):
        eps, n, window = 0.02, 40000, 1000
        sq = StreamingQuantiles(eps, window, stream_length_hint=n)
        data = rng.random(n).astype(np.float32)
        for start in range(0, n, window):
            sq.add_window(data[start:start + window])
        sq.check_invariant()
        reference = np.sort(data)
        for phi in np.linspace(0, 1, 21):
            target = max(1, int(np.ceil(phi * n)))
            assert rank_error(reference, sq.quantile(phi),
                              target) <= eps * n

    def test_logarithmic_buckets(self, rng):
        sq = StreamingQuantiles(0.05, 100, stream_length_hint=100000)
        for _ in range(64):  # 64 windows -> at most 7 buckets
            sq.add_window(rng.random(100).astype(np.float32))
        assert sq.num_buckets <= 7
        sq.check_invariant()

    def test_bucket_ids_unique(self, rng):
        sq = StreamingQuantiles(0.05, 50)
        for _ in range(11):
            sq.add_window(rng.random(50).astype(np.float32))
        assert sq.num_buckets == len(set(sq._buckets)) == 3  # 11 = 8+2+1

    def test_horizon_doubles_gracefully(self, rng):
        sq = StreamingQuantiles(0.1, 10, stream_length_hint=20)
        for _ in range(10):
            sq.add_window(rng.random(10).astype(np.float32))
        assert sq.count == 100
        assert sq.horizon >= 100

    def test_oversized_window_rejected(self, rng):
        sq = StreamingQuantiles(0.1, 10)
        with pytest.raises(SummaryError):
            sq.add_sorted_window(np.sort(rng.random(11)))

    def test_query_before_data_raises(self):
        with pytest.raises(QueryError):
            StreamingQuantiles(0.1, 10).quantile(0.5)

    def test_tampered_checkpoint_is_rejected(self, rng):
        sq = StreamingQuantiles(0.05, 100, stream_length_hint=1000)
        for _ in range(7):
            sq.add_window(rng.random(100).astype(np.float32))
        state = sq.to_state()
        bucket = state["buckets"]["3"]  # 4 windows, merged and pruned
        rmins, rmaxs = bucket["rmins"], bucket["rmaxs"]
        # Swap two rmins so that each still satisfies 1 <= rmin <= rmax:
        # only their order is wrong.
        i = next(i for i in range(len(rmins) - 1)
                 if rmins[i] < rmins[i + 1] <= rmaxs[i])
        rmins[i], rmins[i + 1] = rmins[i + 1], rmins[i]
        with pytest.raises(InvariantViolation, match="decrease"):
            StreamingQuantiles.from_state(state)

    def test_check_invariant_covers_each_bucket_summary(self, rng):
        sq = StreamingQuantiles(0.05, 100)
        for _ in range(3):
            sq.add_window(rng.random(100).astype(np.float32))
        summary = sq._buckets[2]
        sq._buckets[2] = QuantileSummary(summary.values[::-1], summary.rmins,
                                         summary.rmaxs, summary.count,
                                         summary.error)
        with pytest.raises(InvariantViolation, match="value order"):
            sq.check_invariant()


class TestSlidingWindowQuantiles:
    def test_window_accuracy(self, rng):
        eps, window = 0.05, 4000
        sw = SlidingWindowQuantiles(eps, window)
        data = rng.random(20000).astype(np.float32)
        sw.extend(data)
        reference = np.sort(data[-window:])
        for phi in np.linspace(0.05, 0.95, 10):
            target = max(1, int(np.ceil(phi * window)))
            assert rank_error(reference, sw.quantile(phi),
                              target) <= eps * window

    def test_variable_width(self, rng):
        sw = SlidingWindowQuantiles(0.05, 4000, variable=True)
        data = rng.random(20000).astype(np.float32)
        sw.extend(data)
        width = 1000
        reference = np.sort(data[-width:])
        est = sw.quantile(0.5, width=width)
        target = width // 2
        # error <= eps * width plus one boundary sub-window
        assert rank_error(reference, est, target) <= \
            0.05 * width + sw.subwindow

    def test_variable_requires_flag(self, rng):
        sw = SlidingWindowQuantiles(0.05, 4000)
        sw.extend(rng.random(8000).astype(np.float32))
        with pytest.raises(QueryError):
            sw.quantile(0.5, width=1000)

    def test_width_validation(self, rng):
        sw = SlidingWindowQuantiles(0.05, 1000, variable=True)
        sw.extend(rng.random(2000).astype(np.float32))
        with pytest.raises(QueryError):
            sw.quantile(0.5, width=0)
        with pytest.raises(QueryError):
            sw.quantile(0.5, width=2000)

    def test_old_data_expires(self, rng):
        sw = SlidingWindowQuantiles(0.05, 1000)
        sw.extend(np.zeros(5000, dtype=np.float32))
        sw.extend(np.ones(2000, dtype=np.float32))
        assert sw.quantile(0.5) == 1.0

    def test_bounded_space(self, rng):
        sw = SlidingWindowQuantiles(0.05, 10000)
        sw.extend(rng.random(100000).astype(np.float32))
        capacity = -(-sw.window // sw.subwindow) + 1
        assert sw.num_subwindows <= capacity

    def test_query_before_data(self):
        with pytest.raises(QueryError):
            SlidingWindowQuantiles(0.1, 100).quantile(0.5)

    def test_exact_subwindow_ingest(self, rng):
        sw = SlidingWindowQuantiles(0.1, 1000)
        with pytest.raises(SummaryError):
            sw.add_sorted_subwindow(np.sort(rng.random(sw.subwindow + 1)))


class TestSlidingWindowFrequencies:
    def test_no_false_negatives_in_window(self):
        eps, support, window = 0.01, 0.05, 10000
        data = zipf_stream(40000, alpha=1.4, universe=500, seed=13)
        sf = SlidingWindowFrequencies(eps, window)
        sf.extend(data)
        true = Counter(data[-window:].tolist())
        heavy = {v for v, c in true.items() if c >= support * window}
        reported = {v for v, _ in sf.frequent_items(support)}
        assert heavy <= reported

    def test_estimate_error_bounded(self):
        eps, window = 0.01, 10000
        data = zipf_stream(40000, alpha=1.4, universe=500, seed=14)
        sf = SlidingWindowFrequencies(eps, window)
        sf.extend(data)
        true = Counter(data[-window:].tolist())
        for value, count in true.items():
            if count >= 0.02 * window:
                err = abs(sf.estimate(value) - count)
                assert err <= eps * window + sf.subwindow

    def test_old_items_expire(self):
        sf = SlidingWindowFrequencies(0.1, 1000)
        sf.extend(np.full(5000, 7.0, dtype=np.float32))
        sf.extend(np.full(2000, 9.0, dtype=np.float32))
        items = dict(sf.frequent_items(0.5))
        assert 9.0 in items and 7.0 not in items

    def test_support_validation(self):
        sf = SlidingWindowFrequencies(0.1, 100)
        sf.extend(np.ones(200, dtype=np.float32))
        with pytest.raises(QueryError):
            sf.frequent_items(0.05)

    def test_variable_width_queries(self):
        sf = SlidingWindowFrequencies(0.05, 2000, variable=True)
        sf.extend(np.full(1000, 1.0, dtype=np.float32))
        sf.extend(np.full(1000, 2.0, dtype=np.float32))
        recent = dict(sf.frequent_items(0.5, width=900))
        assert 2.0 in recent and 1.0 not in recent
