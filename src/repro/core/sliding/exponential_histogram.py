"""The paper's exponential histogram of quantile summaries (Section 5.2).

"We extend the sensor network model in [21] to a stream model by
maintaining the summary structure as an exponential histogram.  The
exponential histogram has log N buckets and each bucket is associated
with a bucket id. ... If the bucket id is b, the error is set to
``eps/2 + eps*b / (2 (log N + 1))``.  Initially, we set all the buckets
as empty.  Next, we compute an eps/2-approximate summary for each new
window of elements and assign it a bucket id of one and add it to the
exponential histogram.  If there are two buckets with same bucket id, we
combine the two into one larger bucket and increment their bucket id by
one.  The combine operation involves a merge and prune operation
performed using an error parameter for (bucket id + 1).  These
operations are repeatedly performed ... till there are no two buckets
with the same bucket id."

A bucket of id ``b`` covers ``2^(b-1)`` windows, so after ``N`` elements
at most ``log(N/W) + 1`` buckets exist and every bucket's error is at
most ``eps/2 + eps/2 = eps``.  Querying merges all buckets losslessly
(error = max), so the answer is eps-approximate over the entire history.
"""

from __future__ import annotations

import math

import numpy as np

from ...errors import InvariantViolation, QueryError, SummaryError
from ..estimators import EstimatorCapabilities, register_estimator
from ..quantiles.window import QuantileSummary


class StreamingQuantiles:
    """Entire-past-history eps-approximate quantiles via window summaries.

    Parameters
    ----------
    eps:
        Target rank error over the whole stream.
    window_size:
        Elements per window (each window is sorted — on the GPU in the
        engine — and summarised before entering the histogram).
    stream_length_hint:
        The paper's algorithm assumes "a large data stream of size N,
        where N is known a priori"; the hint sizes the per-combine error
        schedule.  If the stream outgrows the hint the schedule is
        re-derived for the doubled horizon (standard doubling trick) —
        summaries already combined keep their recorded error, so the
        overall guarantee degrades gracefully rather than breaking.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.sliding import StreamingQuantiles
    >>> sq = StreamingQuantiles(eps=0.05, window_size=100)
    >>> sq.add_sorted_window(np.sort(np.arange(100, dtype=np.float32)))
    >>> sq.quantile(0.5)
    50.0
    """

    def __init__(self, eps: float, window_size: int,
                 stream_length_hint: int = 100_000_000):
        if not 0.0 < eps < 1.0:
            raise SummaryError(f"eps must be in (0, 1), got {eps}")
        if window_size <= 0:
            raise SummaryError(
                f"window_size must be positive, got {window_size}")
        self.eps = float(eps)
        self.window_size = int(window_size)
        self.horizon = max(int(stream_length_hint), window_size)
        self.count = 0
        #: bucket id -> summary (at most one per id).
        self._buckets: dict[int, QuantileSummary] = {}

    # ------------------------------------------------------------------
    # error schedule
    # ------------------------------------------------------------------
    @property
    def _levels(self) -> int:
        """log N + 1 in the paper's error formula."""
        return max(1, math.ceil(math.log2(self.horizon / self.window_size))
                   + 1)

    def bucket_error(self, bucket_id: int) -> float:
        """The error budget of bucket ``b``: eps/2 + eps*b / (2(logN+1))."""
        return self.eps / 2.0 + self.eps * bucket_id / (2.0 * self._levels)

    def _prune_budget(self) -> int:
        """Prune budget B with 1/(2B) = eps / (2 (log N + 1))."""
        return max(1, math.ceil(self._levels / self.eps))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_sorted_window(self, sorted_window: np.ndarray) -> None:
        """Insert one ascending window (pre-sorted, e.g. on the GPU)."""
        arr = np.asarray(sorted_window).ravel()
        if arr.size == 0:
            return
        if arr.size > self.window_size:
            raise SummaryError(
                f"window of {arr.size} exceeds window_size {self.window_size}")
        self.count += int(arr.size)
        while self.count > self.horizon:
            self.horizon *= 2
        summary = QuantileSummary.from_sorted(arr, self.eps / 2.0)
        bucket_id = 1
        while bucket_id in self._buckets:
            other = self._buckets.pop(bucket_id)
            summary = summary.merge(other).prune(self._prune_budget())
            bucket_id += 1
        self._buckets[bucket_id] = summary

    def add_window(self, window: np.ndarray) -> None:
        """Convenience wrapper: sorts on the CPU then inserts."""
        self.add_sorted_window(np.sort(np.asarray(window).ravel()))

    def merge(self, other: "StreamingQuantiles") -> "StreamingQuantiles":
        """A new histogram answering for both streams' entire histories.

        Bucket summaries are immutable, so the merge is pure: every
        bucket from both sides joins one lossless
        :meth:`QuantileSummary.merge_all` (error = max of parts, each
        at most its bucket budget) followed by a single prune.  The
        result lands one bucket id above the deepest part, whose budget
        ``eps/2 + eps*(b+1)/(2L)`` covers the parts' budgets plus the
        prune's ``eps/(2L)``, so the merged rank guarantee stays
        ``eps * (N1 + N2)``.  Requires equal ``eps`` and window size
        (the error schedule is parameterized by both).
        """
        if not isinstance(other, StreamingQuantiles):
            raise SummaryError(
                f"cannot merge StreamingQuantiles with "
                f"{type(other).__name__}")
        if other.eps != self.eps or other.window_size != self.window_size:
            raise SummaryError(
                f"merge needs matching schedules: eps {self.eps} vs "
                f"{other.eps}, window {self.window_size} vs "
                f"{other.window_size}")
        merged = StreamingQuantiles(
            self.eps, self.window_size,
            max(self.horizon, other.horizon))
        merged.count = self.count + other.count
        while merged.count > merged.horizon:
            merged.horizon *= 2
        parts = list(self._buckets.items()) + list(other._buckets.items())
        if parts:
            summary = QuantileSummary.merge_all([s for _, s in parts])
            bucket_id = max(bucket for bucket, _ in parts)
            if len(parts) > 1:
                summary = summary.prune(merged._prune_budget())
                bucket_id += 1
            merged._buckets = {bucket_id: summary}
        return merged

    # ------------------------------------------------------------------
    # the uniform Estimator protocol
    # ------------------------------------------------------------------
    def update_batch(self, sorted_window: np.ndarray,
                     histogram=None) -> None:
        """Protocol entry point: absorb one ascending window."""
        self.add_sorted_window(sorted_window)

    def query(self, phi: float) -> float:
        """Protocol query: the phi-quantile over the whole history."""
        return self.quantile(phi)

    def error_bound(self) -> float:
        """Deterministic rank-error fraction over the whole stream."""
        return self.eps

    @property
    def processed(self) -> int:
        """Elements fully absorbed into the histogram."""
        return self.count

    # ------------------------------------------------------------------
    # serialization (checkpoint/restore)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Versioned JSON-serializable snapshot of the whole histogram.

        Captures the error schedule (eps, window size, current horizon)
        and every live bucket, so :meth:`from_state` reproduces an
        estimator that answers every query identically and continues
        ingesting with the same combine schedule.
        """
        return {
            "version": 1,
            "kind": "streaming-quantiles",
            "eps": self.eps,
            "window_size": self.window_size,
            "horizon": self.horizon,
            "count": self.count,
            "buckets": {str(bucket_id): summary.to_state()
                        for bucket_id, summary in self._buckets.items()},
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamingQuantiles":
        """Rebuild an estimator from :meth:`to_state` output."""
        if state.get("kind") != "streaming-quantiles" or \
                state.get("version") != 1:
            raise SummaryError(
                f"not a v1 streaming-quantiles state: {state.get('kind')!r} "
                f"v{state.get('version')!r}")
        estimator = cls(float(state["eps"]), int(state["window_size"]),
                        int(state["horizon"]))
        estimator.horizon = int(state["horizon"])
        estimator.count = int(state["count"])
        estimator._buckets = {
            int(bucket_id): QuantileSummary.from_state(summary_state)
            for bucket_id, summary_state in state["buckets"].items()}
        estimator.check_invariant()
        return estimator

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _combined(self) -> QuantileSummary:
        if not self._buckets:
            raise QueryError("no data ingested yet")
        return QuantileSummary.merge_all(list(self._buckets.values()))

    def summaries(self) -> list[QuantileSummary]:
        """The live bucket summaries (each with error at most ``eps``).

        Summaries are immutable, so callers — notably the sharded
        service's merge-on-query layer — may combine them freely with
        :meth:`QuantileSummary.merge_all` without copying.
        """
        return list(self._buckets.values())

    def quantile(self, phi: float) -> float:
        """The phi-quantile of the entire history, within ``eps * N``."""
        return self._combined().quantile(phi)

    def query_rank(self, rank: int) -> float:
        """Value whose true rank is within ``eps * N`` of ``rank``."""
        return self._combined().query_rank(rank)

    @property
    def num_buckets(self) -> int:
        """Live buckets (at most ``log2(N / W) + 1``)."""
        return len(self._buckets)

    def space(self) -> int:
        """Total summary entries held across all buckets."""
        return sum(len(s) for s in self._buckets.values())

    def check_invariant(self) -> None:
        """Validate bucket ids, per-bucket error budgets and every bucket
        summary's own invariant (:meth:`QuantileSummary.check_invariant`),
        so :meth:`from_state` rejects a corrupt checkpoint."""
        for bucket_id, summary in self._buckets.items():
            if bucket_id < 1:
                raise InvariantViolation(f"invalid bucket id {bucket_id}")
            summary.check_invariant()
            budget = self.bucket_error(bucket_id) + 1e-9
            if summary.error > budget:
                raise InvariantViolation(
                    f"bucket {bucket_id}: error {summary.error:.6f} exceeds "
                    f"budget {budget:.6f}")
        total = sum(s.count for s in self._buckets.values())
        if total != self.count:
            raise InvariantViolation(
                f"bucket populations sum to {total}, expected {self.count}")


def _build_streaming_quantiles(eps, window_size, stream_length_hint):
    window = int(window_size) if window_size else max(
        1, math.ceil(1.0 / eps))
    hint = int(stream_length_hint) if stream_length_hint else 100_000_000
    return StreamingQuantiles(eps, window, hint)


register_estimator(
    "streaming-quantiles", StreamingQuantiles,
    # The GK-04 history-mode quantile cascade: window summaries merge
    # up the exponential histogram (merge per element) and prune back
    # to ~1/eps entries per level (compress).
    capabilities=EstimatorCapabilities(
        statistic="quantile", metrics=("quantile",), driver="quantile",
        merge_cycles=40.0, compress_cycles=10.0,
        entries_per_inverse_eps=2.0, bound_type="rank"),
    builder=_build_streaming_quantiles)
