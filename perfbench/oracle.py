"""Exact answers for the generated streams, and the bound checks.

Every read is checked against the elements the system had actually
summarised when it answered.  A single miner summarises a prefix of its
stream.  A sharded pool summarises a prefix of each shard's substream;
:class:`StreamOracle` rebuilds that set from the per-shard processed
counts the pool reports and the routing its partitioner applies.

The checks follow the repository's conformance suite
(``tests/conformance/bounds.py``): rank error against
``ceil(phi * n)`` (or relative value error for relative-bound kinds),
one-sided count errors, and randomized distinct counts at three times
their reported bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Tally:
    """Operations attempted and failed, and the worst error/bound ratio."""

    attempted: int = 0
    failed: int = 0
    checked: int = 0
    error_to_bound_max: float = 0.0

    def op(self, ok: bool = True) -> None:
        """Count one ingest call or read; ``ok=False`` if it raised."""
        self.attempted += 1
        if not ok:
            self.failed += 1

    def verdict(self, ok: bool, ratio: float) -> None:
        """Fold one checked answer into the tally.

        A broken bound turns the read, already counted by :meth:`op`,
        into a failure.
        """
        self.checked += 1
        self.error_to_bound_max = max(self.error_to_bound_max, ratio)
        if not ok:
            self.failed += 1


class StreamOracle:
    """Exact processed sets of one generated stream.

    ``shard_of_element`` routes each element to a shard (all zeros for a
    single miner); ``processed`` then names, per shard, how many of its
    elements the system has summarised.
    """

    def __init__(self, stream: np.ndarray, shard_of_element: np.ndarray,
                 num_shards: int):
        self.stream = stream
        self.shard = shard_of_element.astype(np.int8)
        self.num_shards = int(num_shards)
        # Index of every element within its own shard's substream.
        self.pos = np.empty(stream.size, dtype=np.int32)
        for shard in range(self.num_shards):
            mine = self.shard == shard
            self.pos[mine] = np.arange(int(mine.sum()))

    def processed_values(self, processed: list[int]) -> np.ndarray:
        """The elements summarised, given per-shard processed counts."""
        limit = np.asarray(processed, dtype=np.int64)[self.shard]
        return self.stream[self.pos < limit]


def shard_routing(stream: np.ndarray, partitioner) -> np.ndarray:
    """Shard id of every element under ``partitioner``'s routing.

    Round-robin routes element ``j`` to ``j % n`` (its cursor starts at
    zero).  Value-hash routing is stateless, so splitting the distinct
    values once tells every value's home shard.
    """
    if partitioner.to_state()["kind"] == "round-robin":
        return np.arange(stream.size) % partitioner.num_shards
    values, inverse = np.unique(stream, return_inverse=True)
    homes = np.empty(values.size, dtype=np.int8)
    for shard, part in enumerate(partitioner.split(values)):
        homes[np.searchsorted(values, part)] = shard
    return homes[inverse]


# ----------------------------------------------------------------------
# bound checks: each returns (ok, error / claimed bound)
# ----------------------------------------------------------------------
def check_quantile(ordered: np.ndarray, phi: float, answer: float,
                   eps: float) -> tuple[bool, float]:
    """Rank of ``answer`` within ``eps * n`` of ``ceil(phi * n)``.

    ``ordered`` is the processed set, sorted.
    """
    n = ordered.size
    budget = max(1.0, eps * n)
    target = max(1, int(math.ceil(phi * n)))
    lo = int(np.searchsorted(ordered, answer, "left")) + 1
    hi = int(np.searchsorted(ordered, answer, "right"))
    err = max(lo - target, target - hi, 0)
    return err <= budget, err / budget


def check_quantile_value(ordered: np.ndarray, phi: float, answer: float,
                         alpha: float) -> tuple[bool, float]:
    """Value within relative ``alpha`` of the exact ``ceil(phi * n)``-th.

    The guarantee of relative-bound kinds (DDSketch); ``ordered`` is the
    processed set, sorted.
    """
    target = max(1, int(math.ceil(phi * ordered.size)))
    exact = float(ordered[target - 1])
    err = abs(float(answer) - exact)
    budget = alpha * abs(exact)
    ok = err <= budget * (1.0 + 1e-9) + 1e-9
    return ok, err / budget if budget else (0.0 if ok else math.inf)


def check_counts_under(counts: np.ndarray, n: int, eps: float,
                       items) -> tuple[bool, float]:
    """Never-overcounting estimates: ``true - eps*n <= est <= true``."""
    budget = max(1.0, eps * n)
    ok, ratio = True, 0.0
    for value, estimate in items:
        true = _count_of(counts, value)
        ok &= estimate <= true and true - estimate <= budget
        ratio = max(ratio, (true - estimate) / budget)
    return ok, ratio


def check_counts_over(counts: np.ndarray, n: int, eps: float,
                      items) -> tuple[bool, float]:
    """Never-undercounting estimates: ``true <= est <= true + eps*n``."""
    budget = max(1.0, eps * n)
    ok, ratio = True, 0.0
    for value, estimate in items:
        true = _count_of(counts, value)
        ok &= true <= estimate <= true + budget
        ratio = max(ratio, (estimate - true) / budget)
    return ok, ratio


def check_frequent(counts: np.ndarray, n: int, support: float, eps: float,
                   answer) -> tuple[bool, float]:
    """Heavy hitters: no false negative, and counts within the bound."""
    ok, ratio = check_counts_under(counts, n, eps, answer)
    reported = {float(value) for value, _ in answer}
    must = np.flatnonzero(counts >= support * n)
    ok &= all(float(value) in reported for value in must)
    return ok, ratio


def check_distinct(values: np.ndarray, answer: float,
                   bound: float) -> tuple[bool, float]:
    """Randomized distinct count within three times its relative bound."""
    exact = float(np.unique(values).size)
    err = abs(float(answer) - exact)
    scale = max(1.0, bound * exact)
    return err <= 3.0 * bound * exact + 2.0, err / scale


def _count_of(counts: np.ndarray, value: float) -> int:
    key = float(value)
    if key != int(key) or not 0 <= key < counts.size:
        return 0
    return int(counts[int(key)])
