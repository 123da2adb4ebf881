"""The array-native GK04 window summary is exactly the list-based one.

``QuantileSummary`` keeps its entries as three parallel arrays, merges
them with whole-array passes and prunes all ``B + 1`` target ranks in one
vectorized lookup.  The reference below is the list-of-entries
implementation it replaced: ``merge`` by searchsorted + lexsort over
per-entry tuples and ``prune`` by one scalar ``argmin`` per target rank.
Every test compares tuple for tuple -- value bits (so ``-0.0`` and
``0.0`` differ), rmin, rmax, error and count.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QuantileSummary
from repro.core.sliding import StreamingQuantiles
from repro.errors import InvariantViolation


class Ref(NamedTuple):
    entries: list[tuple[float, int, int]]
    count: int
    error: float


def ref_from_sorted(arr: np.ndarray, error: float) -> Ref:
    n = int(arr.size)
    if n == 0:
        return Ref([], 0, 0.0)
    step = max(1, math.floor(2.0 * error * n))
    ranks = list(range(1, n + 1, step))
    if ranks[-1] != n:
        ranks.append(n)
    return Ref([(float(arr[r - 1]), r, r) for r in ranks], n, float(error))


def _columns(ref: Ref):
    return (np.array([e[0] for e in ref.entries], dtype=np.float64),
            np.array([e[1] for e in ref.entries], dtype=np.int64),
            np.array([e[2] for e in ref.entries], dtype=np.int64))


def ref_merge(a: Ref, b: Ref) -> Ref:
    if a.count == 0:
        return b
    if b.count == 0:
        return a
    pieces_v, pieces_lo, pieces_hi = [], [], []
    for source, against, side in ((a, b, "left"), (b, a, "right")):
        sv, s_rmin, s_rmax = _columns(source)
        av, a_rmin, a_rmax = _columns(against)
        idx = np.searchsorted(av, sv, side=side)
        rmin = s_rmin.copy()
        has_pred = idx > 0
        rmin[has_pred] += a_rmin[idx[has_pred] - 1]
        rmax = s_rmax.copy()
        has_succ = idx < av.size
        rmax[has_succ] += a_rmax[idx[has_succ]] - 1
        rmax[~has_succ] += a_rmax[-1]
        pieces_v.append(sv)
        pieces_lo.append(rmin)
        pieces_hi.append(np.maximum(rmin, rmax))
    all_v = np.concatenate(pieces_v)
    all_lo = np.concatenate(pieces_lo)
    all_hi = np.concatenate(pieces_hi)
    order = np.lexsort((all_lo, all_v))
    return Ref([(float(v), int(lo), int(hi)) for v, lo, hi in
                zip(all_v[order], all_lo[order], all_hi[order])],
               a.count + b.count, max(a.error, b.error))


def ref_merge_all(parts: list[Ref]) -> Ref:
    level = [p for p in parts if p.count] or [Ref([], 0, 0.0)]
    while len(level) > 1:
        merged = [ref_merge(level[i], level[i + 1])
                  for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]


def ref_lookup(ref: Ref, rank: int) -> int:
    _, rmins, rmaxs = _columns(ref)
    return int(np.argmin(np.maximum(rank - rmins, rmaxs - rank)))


def ref_prune(ref: Ref, budget: int) -> Ref:
    error = ref.error + 1.0 / (2.0 * budget)
    if len(ref.entries) <= budget + 1:
        return Ref(list(ref.entries), ref.count, error)
    kept: list[int] = []
    for i in range(budget + 1):
        rank = max(1, min(ref.count, math.ceil(i * ref.count / budget)))
        index = ref_lookup(ref, rank)
        if not kept or index != kept[-1]:
            kept.append(index)
    return Ref([ref.entries[i] for i in kept], ref.count, error)


def ref_of(summary: QuantileSummary) -> Ref:
    return Ref([(e.value, e.rmin, e.rmax) for e in summary.entries],
               summary.count, summary.error)


def bit_tuples(ref: Ref):
    return ([(np.float64(v).tobytes(), lo, hi) for v, lo, hi in ref.entries],
            ref.count, ref.error)


def assert_same(got: QuantileSummary, want: Ref) -> None:
    assert bit_tuples(ref_of(got)) == bit_tuples(want)
    assert got.values.dtype == np.float64
    assert got.rmins.dtype == got.rmaxs.dtype == np.int64
    got.check_invariant()


# Few distinct values force heavy duplication inside and across
# summaries -- the hard case for the tie-break and the rank lookup.
values = st.one_of(st.sampled_from([-0.0, 0.0]),
                   st.integers(min_value=-6, max_value=6).map(float))
windows = st.one_of(
    st.lists(values, min_size=1, max_size=60),
    st.builds(lambda v, n: [v] * n, values,
              st.integers(min_value=1, max_value=60)),
    st.integers(min_value=1, max_value=60).map(
        lambda n: [float(x) for x in range(n, 0, -1)]))
errors = st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.25])


def ascending(window) -> np.ndarray:
    # A stable sort keeps -0.0/0.0 in arrival order on every numpy.
    return np.sort(np.asarray(window, dtype=np.float32), kind="stable")


def pruned_pair(window, error, budget):
    """A summary and its reference, merged and pruned into a general
    state (rmin < rmax) rather than fresh from a sorted window."""
    arr = ascending(window)
    half = arr.size // 2
    got = QuantileSummary.from_sorted(arr[:half], error).merge(
        QuantileSummary.from_sorted(arr[half:], error)).prune(budget)
    want = ref_prune(ref_merge(ref_from_sorted(arr[:half], error),
                               ref_from_sorted(arr[half:], error)), budget)
    return got, want


def twin_histogram(stream, eps, window, hint):
    """Feed ``stream`` window by window into a StreamingQuantiles and
    into the reference, comparing every bucket after every window."""
    sq = StreamingQuantiles(eps, window, hint)
    want: dict[int, Ref] = {}
    for values_ in stream:
        arr = ascending(values_)
        sq.add_sorted_window(arr)
        summary = ref_from_sorted(arr, eps / 2.0)
        bucket_id = 1
        while bucket_id in want:
            summary = ref_prune(ref_merge(summary, want.pop(bucket_id)),
                                sq._prune_budget())
            bucket_id += 1
        want[bucket_id] = summary
        assert set(sq._buckets) == set(want)
        for b, ref in want.items():
            assert_same(sq._buckets[b], ref)
    return sq, want


class TestTwinProperty:
    @settings(max_examples=150, deadline=None)
    @given(window=st.lists(values, max_size=80), error=errors)
    def test_from_sorted(self, window, error):
        arr = ascending(window)
        assert_same(QuantileSummary.from_sorted(arr, error),
                    ref_from_sorted(arr, error))

    @settings(max_examples=150, deadline=None)
    @given(a=windows, b=windows, ea=errors, eb=errors,
           budget=st.integers(min_value=1, max_value=40))
    def test_merge(self, a, b, ea, eb, budget):
        left, want_left = pruned_pair(a, ea, budget)
        right, want_right = pruned_pair(b, eb, budget)
        assert_same(left, want_left)
        assert_same(right, want_right)
        assert_same(left.merge(right), ref_merge(want_left, want_right))
        assert_same(right.merge(left), ref_merge(want_right, want_left))

    @settings(max_examples=100, deadline=None)
    @given(parts=st.lists(windows, min_size=0, max_size=7), error=errors)
    def test_merge_all(self, parts, error):
        arrays = [ascending(p) for p in parts]
        got = QuantileSummary.merge_all(
            [QuantileSummary.from_sorted(a, error) for a in arrays])
        assert_same(got, ref_merge_all(
            [ref_from_sorted(a, error) for a in arrays]))

    @settings(max_examples=200, deadline=None)
    @given(window=windows, other=windows, error=errors,
           budget=st.integers(min_value=1, max_value=140))
    def test_prune_cutting_and_no_op_budgets(self, window, other, error,
                                             budget):
        a, b = ascending(window), ascending(other)
        got = QuantileSummary.from_sorted(a, error).merge(
            QuantileSummary.from_sorted(b, error))
        want = ref_merge(ref_from_sorted(a, error), ref_from_sorted(b, error))
        assert_same(got.prune(budget), ref_prune(want, budget))
        twice = got.prune(budget).prune(max(1, budget // 2))
        assert_same(twice, ref_prune(ref_prune(want, budget),
                                     max(1, budget // 2)))

    @settings(max_examples=60, deadline=None)
    @given(stream=st.lists(windows, min_size=1, max_size=24),
           other=st.lists(windows, min_size=0, max_size=10),
           eps=st.sampled_from([0.05, 0.1, 0.2]),
           hint=st.sampled_from([200, 2000, 100_000_000]))
    def test_streaming_quantiles_bucket_by_bucket(self, stream, other, eps,
                                                  hint):
        window = 60
        got, want = twin_histogram(stream, eps, window, hint)
        got_other, want_other = twin_histogram(other, eps, window, hint)
        # merge of two histograms: one lossless merge_all and one prune
        merged = got.merge(got_other)
        parts = list(want.items()) + list(want_other.items())
        if parts:
            summary = ref_merge_all([s for _, s in parts])
            bucket_id = max(b for b, _ in parts)
            if len(parts) > 1:
                summary = ref_prune(summary, merged._prune_budget())
                bucket_id += 1
            assert set(merged._buckets) == {bucket_id}
            assert_same(merged._buckets[bucket_id], summary)
            assert merged.quantile(0.5) == \
                merged._buckets[bucket_id].quantile(0.5)


class TestFixedCases:
    def test_reversed_stream_sorted_per_window(self):
        stream = np.arange(5000, dtype=np.float32)[::-1]
        sq, want = twin_histogram(
            [stream[lo:lo + 100] for lo in range(0, stream.size, 100)],
            0.01, 100, 100_000_000)
        combined = ref_merge_all(list(want.values()))
        for phi in np.linspace(0.0, 1.0, 11):
            rank = max(1, math.ceil(phi * combined.count))
            assert sq.quantile(phi) == \
                combined.entries[ref_lookup(combined, rank)][0]

    def test_all_equal_windows_prune_to_one_entry(self):
        parts = [QuantileSummary.from_sorted(np.full(50, 7.0), 0.0)
                 for _ in range(4)]
        refs = [ref_from_sorted(np.full(50, 7.0), 0.0) for _ in range(4)]
        merged = QuantileSummary.merge_all(parts)
        assert_same(merged, ref_merge_all(refs))
        assert_same(merged.prune(3), ref_prune(ref_merge_all(refs), 3))

    def test_signed_zeros_keep_their_bits(self):
        a = QuantileSummary.from_sorted(np.array([-0.0, 0.0, 0.0]), 0.0)
        b = QuantileSummary.from_sorted(np.array([0.0, -0.0]), 0.0)
        want = ref_merge(ref_from_sorted(np.array([-0.0, 0.0, 0.0]), 0.0),
                         ref_from_sorted(np.array([0.0, -0.0]), 0.0))
        assert_same(a.merge(b), want)
        assert np.signbit(a.merge(b).values).tolist() == \
            [True, False, False, False, True]

    def test_prune_falls_back_when_rank_bounds_are_not_monotone(self):
        # Not reachable through from_sorted/merge/prune, so built by hand:
        # rmax dips, which the searchsorted lookup may not assume.
        summary = QuantileSummary(np.arange(6.0), [1, 2, 3, 4, 5, 6],
                                  [3, 6, 4, 6, 6, 6], 6, 0.0)
        ref = Ref([(float(v), lo, hi) for v, lo, hi in
                   zip(range(6), [1, 2, 3, 4, 5, 6], [3, 6, 4, 6, 6, 6])],
                  6, 0.0)
        for budget in (1, 2, 3, 4):
            assert bit_tuples(ref_of(summary.prune(budget))) == \
                bit_tuples(ref_prune(ref, budget))
        with pytest.raises(InvariantViolation, match="decrease"):
            summary.check_invariant()

    def test_entries_is_a_derived_read_only_view(self):
        summary = QuantileSummary.from_sorted(np.arange(10.0), 0.1)
        entries = summary.entries
        assert isinstance(entries, tuple)
        assert [e.value for e in entries] == summary.values.tolist()
        with pytest.raises(AttributeError):
            summary.entries = ()

    def test_from_sorted_does_not_alias_the_window(self):
        window = np.arange(20.0)
        summary = QuantileSummary.from_sorted(window, 0.1)
        window[:] = -1.0
        assert summary.values.min() == 0.0
