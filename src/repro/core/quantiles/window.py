"""Window-based quantile summaries (Greenwald-Khanna 2004, Section 5.2).

The paper lifts the sensor-network summaries of Greenwald and Khanna [21]
to the stream setting: each window is **sorted** (on the GPU), an
eps-approximate summary is extracted by **sampling** the sorted sequence,
and summaries are combined with a lossless **merge** followed by a lossy
**prune** that caps the memory footprint.

A summary here is three parallel arrays -- ``values`` (ascending
float64) and ``rmins``/``rmaxs`` (non-decreasing int64) -- whose rows are
the entries ``(value, rmin, rmax)`` over a population of ``count``
elements, with the guarantee that for every target rank ``r`` some entry
satisfies both ``r - rmin <= error * count`` and ``rmax - r <= error *
count``.  :class:`RankedValue` is the public form of one row.

The three operations and their error arithmetic (all from GK04):

========  ==========================================================
sample    from a sorted window: error ``e`` using ``floor(2 e n)``-
          spaced ranks (both extremes included)
merge     ``error = max(error_a, error_b)`` (lossless)
prune     to ``B + 1`` entries: ``error += 1 / (2 B)``
========  ==========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...errors import InvariantViolation, QueryError, SummaryError


@dataclass(frozen=True)
class RankedValue:
    """One summary entry: a value and bounds on its rank in the population."""

    value: float
    rmin: int
    rmax: int

    def __post_init__(self) -> None:
        if not 1 <= self.rmin <= self.rmax:
            raise SummaryError(
                f"invalid rank bounds rmin={self.rmin}, rmax={self.rmax}")


class QuantileSummary:
    """An epsilon-approximate quantile summary with explicit rank bounds.

    The entries live in three parallel arrays: ``values`` (float64,
    ascending), ``rmins`` and ``rmaxs`` (int64, each non-decreasing,
    ``1 <= rmin <= rmax <= count``).  Every operation is a whole-array
    pass over them.  Instances are immutable in spirit: :meth:`merge`
    and :meth:`prune` return new summaries, which may share arrays with
    their inputs.  Build one with :meth:`from_sorted`.
    """

    def __init__(self, values: np.ndarray, rmins: np.ndarray,
                 rmaxs: np.ndarray, count: int, error: float):
        if count < 0:
            raise SummaryError(f"count must be non-negative, got {count}")
        if error < 0:
            raise SummaryError(f"error must be non-negative, got {error}")
        self.values = np.asarray(values, dtype=np.float64)
        self.rmins = np.asarray(rmins, dtype=np.int64)
        self.rmaxs = np.asarray(rmaxs, dtype=np.int64)
        if not self.values.shape == self.rmins.shape == self.rmaxs.shape \
                or self.values.ndim != 1:
            raise SummaryError(
                "values, rmins and rmaxs must be 1-d arrays of one length")
        if count > 0 and not self.values.size:
            raise SummaryError("a non-empty population needs entries")
        self.count = int(count)
        self.error = float(error)

    @property
    def entries(self) -> tuple[RankedValue, ...]:
        """The summary's rows as :class:`RankedValue` objects (a copy)."""
        return tuple(map(RankedValue, self.values.tolist(),
                         self.rmins.tolist(), self.rmaxs.tolist()))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "QuantileSummary":
        """A summary of zero elements."""
        return cls([], [], [], 0, 0.0)

    @classmethod
    def from_sorted(cls, sorted_values: np.ndarray,
                    error: float) -> "QuantileSummary":
        """Sample an ascending window into an ``error``-approximate summary.

        Takes the elements of rank ``1, s+1, 2s+1, ..., n`` with spacing
        ``s = max(1, floor(2 * error * n))``; the nearest kept rank is
        then within ``floor(s / 2) <= error * n`` of any target rank, so
        answering a rank query with the nearest kept element honours the
        recorded ``error`` exactly.  (``ceil`` would be one rank too
        coarse on duplicate-heavy inputs: a spacing of ``ceil(2 e n)``
        can leave a mid-gap rank ``ceil(s / 2) > e n`` away from every
        kept element.)  Ranks are exact (``rmin == rmax``) because the
        window was fully sorted.
        """
        arr = np.asarray(sorted_values).ravel()
        n = int(arr.size)
        if n == 0:
            return cls.empty()
        if np.any(arr[1:] < arr[:-1]):
            raise SummaryError("from_sorted requires ascending input")
        if error < 0:
            raise SummaryError(f"error must be non-negative, got {error}")
        step = max(1, math.floor(2.0 * error * n))
        ranks = np.arange(1, n + 1, step, dtype=np.int64)
        values = arr[::step]
        if ranks[-1] != n:
            ranks = np.append(ranks, n)
            values = np.append(values, arr[-1])
        # astype copies, so the summary never aliases the caller's window;
        # rmin == rmax, so the one (never written) rank array serves both.
        return cls(values.astype(np.float64), ranks, ranks, n, error)

    # ------------------------------------------------------------------
    # serialization (checkpoint/restore)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """A versioned, JSON-serializable snapshot of this summary.

        Values are stored as Python floats (float32 stream values are
        exactly representable in a double, so the round trip is
        lossless) and rank bounds as ints; :meth:`from_state` rebuilds
        an identical summary.
        """
        return {
            "version": 1,
            "kind": "quantile-summary",
            "count": self.count,
            "error": self.error,
            "values": self.values.tolist(),
            "rmins": self.rmins.tolist(),
            "rmaxs": self.rmaxs.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "QuantileSummary":
        """Rebuild a summary from :meth:`to_state` output.

        The rebuilt summary must pass :meth:`check_invariant`, so a
        corrupt checkpoint is rejected here rather than answering
        outside its bound later.
        """
        if state.get("kind") != "quantile-summary" or \
                state.get("version") != 1:
            raise SummaryError(
                f"not a v1 quantile-summary state: {state.get('kind')!r} "
                f"v{state.get('version')!r}")
        summary = cls(np.array(state["values"], dtype=np.float64),
                      np.array(state["rmins"], dtype=np.int64),
                      np.array(state["rmaxs"], dtype=np.int64),
                      int(state["count"]), float(state["error"]))
        summary.check_invariant()
        return summary

    # ------------------------------------------------------------------
    # combination
    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSummary") -> "QuantileSummary":
        """Lossless merge (GK04): combined error is the max of the inputs.

        For an entry ``x`` drawn from summary A, with ``pred``/``succ``
        its neighbours among B's entries:

        * ``rmin' = rmin_A(x) + rmin_B(pred)``  (0 if no predecessor)
        * ``rmax' = rmax_A(x) + rmax_B(succ) - 1``
          (``rmax_A(x) + rmax_B(last)`` if no successor)
        """
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        # Ties are broken consistently: equal values of `self` precede
        # equal values of `other`, so an entry of `self` has only the
        # strictly smaller entries of `other` before it, and an entry of
        # `other` has the equal entries of `self` before it too.  Without
        # a consistent tie-break, duplicated values across the inputs
        # widen the rank bounds past the guarantee.  One stable sort of
        # both value arrays yields that order, which is also the merged
        # entries' (value, rmin) order since both sources' rank bounds
        # are non-decreasing.  An entry's merged position minus its
        # position in its own source counts the other source's entries
        # before it.
        both = np.concatenate((self.values, other.values))
        order = np.argsort(both, kind="stable")
        position = np.empty(order.size, dtype=np.intp)
        position[order] = np.arange(order.size)
        values = both[order]
        rmins = np.empty(order.size, dtype=np.int64)
        rmaxs = np.empty(order.size, dtype=np.int64)
        split = self.values.size
        for source, against, at in ((self, other, position[:split]),
                                    (other, self, position[split:])):
            idx = at - np.arange(at.size)
            # Padded neighbour bounds: index idx of `pred_rmin` is the
            # predecessor's rmin (0 when idx == 0); index idx of
            # `succ_rmax` is the successor's rmax - 1, or the last rmax
            # when idx runs off the end.
            pred_rmin = np.concatenate(([0], against.rmins))
            succ_rmax = np.concatenate((against.rmaxs - 1,
                                        against.rmaxs[-1:]))
            rmin = source.rmins + pred_rmin[idx]
            rmins[at] = rmin
            rmaxs[at] = np.maximum(rmin, source.rmaxs + succ_rmax[idx])
        return QuantileSummary(values, rmins, rmaxs,
                               self.count + other.count,
                               max(self.error, other.error))

    @staticmethod
    def merge_all(summaries: list["QuantileSummary"]) -> "QuantileSummary":
        """Merge many summaries with a balanced binary reduction.

        Equivalent to folding :meth:`merge` left-to-right (the operation
        is associative in its guarantees) but each entry participates in
        ``log k`` merges instead of ``O(k)``, which matters when a
        sliding window holds hundreds of sub-window summaries.
        """
        level = [s for s in summaries if s.count] or [QuantileSummary.empty()]
        while len(level) > 1:
            merged = []
            for i in range(0, len(level) - 1, 2):
                merged.append(level[i].merge(level[i + 1]))
            if len(level) % 2:
                merged.append(level[-1])
            level = merged
        return level[0]

    def prune(self, budget: int) -> "QuantileSummary":
        """Keep ``budget + 1`` entries; error grows by ``1 / (2 * budget)``.

        Queries the summary at the ranks ``i * n / budget`` for
        ``i = 0..budget`` and keeps the answering entries with their
        original rank bounds (GK04's prune).
        """
        if budget < 1:
            raise SummaryError(f"prune budget must be >= 1, got {budget}")
        error = self.error + 1.0 / (2.0 * budget)
        if self.values.size <= budget + 1:
            return QuantileSummary(self.values, self.rmins, self.rmaxs,
                                   self.count, error)
        ranks = np.ceil(np.arange(budget + 1) * self.count / budget
                        ).astype(np.int64)
        ranks[0] = 1  # the only target outside [1, count]
        picked = self._lookup(ranks)
        # Consecutive targets answered by the same entry keep it once.
        keep = picked[np.concatenate(([True], picked[1:] != picked[:-1]))]
        return QuantileSummary(self.values[keep], self.rmins[keep],
                               self.rmaxs[keep], self.count, error)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _bounds_ascend(self) -> bool:
        """Whether ``rmin`` and ``rmax`` are each non-decreasing."""
        rmins, rmaxs = self.rmins, self.rmaxs
        return not (np.any(rmins[1:] < rmins[:-1])
                    or np.any(rmaxs[1:] < rmaxs[:-1]))

    def _closest(self, rank: int) -> int:
        """The first entry minimising ``max(rank - rmin, rmax - rank)``."""
        return int(np.argmin(np.maximum(rank - self.rmins,
                                        self.rmaxs - rank)))

    def _lookup(self, ranks: np.ndarray) -> np.ndarray:
        """:meth:`_closest` for every target rank in one pass.

        With ``rmin`` and ``rmax`` non-decreasing the score is
        ``rank - rmin`` (non-increasing) on the prefix of entries with
        ``rmin + rmax <= 2 rank`` and ``rmax - rank`` (non-decreasing)
        on the rest, so the minimum is at the prefix's last entry --
        moved back to the first entry sharing its ``rmin`` -- or at the
        rest's first entry, the earlier one on a tie.  Without that
        order each target takes its own :meth:`_closest`.
        """
        if not self._bounds_ascend():
            return np.array([self._closest(rank) for rank in ranks.tolist()],
                            dtype=np.intp)
        rmins, rmaxs = self.rmins, self.rmaxs
        split = np.searchsorted(rmins + rmaxs, 2 * ranks, side="right")
        below = np.maximum(split - 1, 0)
        above = np.minimum(split, rmins.size - 1)
        take_below = (split > 0) & (
            (split == rmins.size)
            | (ranks - rmins[below] <= rmaxs[above] - ranks))
        first_below = np.searchsorted(rmins, rmins[below], side="left")
        return np.where(take_below, first_below, above)

    def query_rank(self, rank: int) -> float:
        """Value whose true rank is within ``error * count`` of ``rank``."""
        if self.count == 0:
            raise QueryError("query on an empty summary")
        if not 1 <= rank <= self.count:
            raise QueryError(f"rank must be in [1, {self.count}], got {rank}")
        return float(self.values[self._closest(rank)])

    def quantile(self, phi: float) -> float:
        """The phi-quantile within ``error * count`` rank error."""
        if not 0.0 <= phi <= 1.0:
            raise QueryError(f"phi must be in [0, 1], got {phi}")
        if self.count == 0:
            raise QueryError("quantile of an empty summary")
        return self.query_rank(max(1, math.ceil(phi * self.count)))

    def __len__(self) -> int:
        return int(self.values.size)

    def check_invariant(self) -> None:
        """Validate ordering and rank-bound sanity; raise on violation.

        Values ascend, ``1 <= rmin <= rmax <= count`` on every entry, and
        ``rmin`` and ``rmax`` are each non-decreasing -- the order
        :meth:`merge` and the fast path of :meth:`prune` rely on.
        """
        values, rmins, rmaxs = self.values, self.rmins, self.rmaxs
        if not values.size:
            return
        if np.any(values[1:] < values[:-1]):
            raise InvariantViolation("summary entries out of value order")
        if not self._bounds_ascend():
            raise InvariantViolation("rank bounds decrease along the summary")
        # Both bounds are non-decreasing, so the ends bound every entry.
        if rmins[0] < 1 or np.any(rmins > rmaxs):
            raise InvariantViolation("an entry has rmin < 1 or rmin > rmax")
        if rmaxs[-1] > self.count:
            raise InvariantViolation(
                f"rmax {rmaxs[-1]} exceeds population {self.count}")
        if rmins[0] > max(1, math.ceil(2 * self.error * self.count)):
            raise InvariantViolation("first entry's rmin too large")
