"""Checkpoints written before the array-native summary still restore.

``fixtures/streaming_quantiles_v1.json`` is a ``streaming-quantiles``
v1 state written by the list-of-``RankedValue`` implementation of
:class:`QuantileSummary`, together with the answers that implementation
gave — on the restored stream and after ingesting more windows into it.
The array-native summary must restore it, answer bit-identically, and
serialize the same stream to the very same JSON.

To rebuild the fixture (only ever from a commit whose answers are
known good)::

    PYTHONPATH=src python -m tests.core.test_quantile_checkpoint_compat
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.sliding import StreamingQuantiles

FIXTURE = Path(__file__).parent / "fixtures" / "streaming_quantiles_v1.json"

EPS = 0.05
WINDOW = 20
# A small horizon makes the prune budget (140 entries) bite on this
# short stream, and the stream outgrows it, so the horizon doubles.
HINT = 1000
PHIS = [i / 20 for i in range(21)]


def stream(start: int, n: int) -> np.ndarray:
    """Deterministic duplicate-heavy float32 values with both zeros."""
    i = np.arange(start, start + n)
    values = (((i * 7919) % 211) - 105) / 8.0
    values[i % 13 == 0] = -0.0
    return values.astype(np.float32)


def ingest(estimator: StreamingQuantiles, values: np.ndarray) -> None:
    for lo in range(0, values.size, WINDOW):
        # A stable sort keeps -0.0/0.0 in arrival order on every numpy.
        estimator.add_sorted_window(
            np.sort(values[lo:lo + WINDOW], kind="stable"))


def answers(estimator: StreamingQuantiles) -> list[float]:
    return [estimator.quantile(phi) for phi in PHIS]


def record() -> dict:
    estimator = StreamingQuantiles(EPS, WINDOW, HINT)
    ingest(estimator, stream(0, 1310))
    state = estimator.to_state()
    before = answers(estimator)
    ingest(estimator, stream(1310, 400))
    return {"state": state, "answers": before,
            "answers_after_more": answers(estimator),
            "state_after_more": estimator.to_state()}


def bits(values: list[float]) -> list[bytes]:
    return [np.float64(v).tobytes() for v in values]


class TestPreArrayCheckpoint:
    def setup_method(self):
        self.fixture = json.loads(FIXTURE.read_text())

    def test_restores_and_answers_bit_identically(self):
        restored = StreamingQuantiles.from_state(self.fixture["state"])
        assert bits(answers(restored)) == bits(self.fixture["answers"])

    def test_keeps_ingesting_identically_after_restore(self):
        restored = StreamingQuantiles.from_state(self.fixture["state"])
        ingest(restored, stream(1310, 400))
        assert bits(answers(restored)) == \
            bits(self.fixture["answers_after_more"])
        assert json.dumps(restored.to_state()) == \
            json.dumps(self.fixture["state_after_more"])

    def test_same_stream_serializes_to_identical_json(self):
        fresh = record()
        for key in ("state", "state_after_more"):
            assert json.dumps(fresh[key]) == json.dumps(self.fixture[key])
        assert bits(fresh["answers"]) == bits(self.fixture["answers"])

    def test_fixture_exercises_prune_and_both_zeros(self):
        buckets = self.fixture["state"]["buckets"]
        assert len(buckets) > 1
        assert self.fixture["state"]["horizon"] > HINT
        values = [v for b in buckets.values() for v in b["values"]]
        signs = {np.signbit(v) for v in values if v == 0.0}
        assert signs == {True, False}


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(record(), indent=1) + "\n")
