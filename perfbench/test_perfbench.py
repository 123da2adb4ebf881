"""Fast checks of the benchmark's own machinery.

Run with ``python -m pytest perfbench -q`` from the repository root;
the tier-1 suite (``testpaths = ["tests"]``) does not collect them.
"""

from __future__ import annotations

import asyncio
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, install_layer_shims  # noqa: E402
from workloads import FrequencyGpu, QuantileHistory, QueryStanding  # noqa: E402


class TinyQuantile(QuantileHistory):
    elements = 4_000
    read_every = 2
    min_rounds = 1
    setup_repeats = 2


class TinyFrequency(FrequencyGpu):
    elements = 16_000


class TinyQuery(QueryStanding):
    elements = 4_000


@pytest.mark.parametrize("cls", [TinyQuantile, TinyFrequency, TinyQuery])
def test_round_answers_hold_their_bounds_and_canary_fails(cls):
    workload = cls(seed=3)
    tally = oracle.Tally()
    result = asyncio.run(run.run_round(workload, tally))
    assert tally.failed == 0
    assert tally.checked == workload.reads_per_round()
    assert len(result["setup_s"]) == workload.setup_repeats
    assert run.canary_caught(workload, result["last_observation"])


@pytest.mark.parametrize("cls", [TinyQuantile, TinyFrequency, TinyQuery])
def test_layer_spans_cover_the_single_process_workloads(cls):
    workload = cls(seed=4)
    tracer = Tracer()
    install_layer_shims(tracer)
    try:
        result = asyncio.run(run.run_round(workload, oracle.Tally(),
                                           tracer=tracer))
    finally:
        tracer.uninstall()
    assert run.layer_metrics(result)["trace.coverage"] >= 0.95


def test_quantile_check_is_exact_on_ties():
    values = np.sort(np.array([1, 2, 2, 2, 3], dtype=np.float32))
    # target rank ceil(0.5 * 5) = 3 lies inside the run of 2s (ranks 2-4)
    assert oracle.check_quantile(values, 0.5, 2.0, eps=0.0) == (True, 0.0)
    ok, ratio = oracle.check_quantile(values, 0.5, 3.0, eps=0.0)
    assert not ok and ratio == 2.0


def test_frequent_check_flags_false_negatives_and_overcounts():
    counts = np.array([50, 30, 20])
    assert oracle.check_frequent(counts, 100, 0.25, 0.01,
                                 [(0.0, 50), (1.0, 30)])[0]
    assert not oracle.check_frequent(counts, 100, 0.25, 0.01, [(0.0, 50)])[0]
    assert not oracle.check_frequent(counts, 100, 0.25, 0.01,
                                     [(0.0, 51), (1.0, 30)])[0]


def test_standing_quantile_checks_follow_the_answering_kinds_bound():
    from repro.query import Answer, QuerySpec
    from workloads import check_answer
    ordered = np.arange(1, 1001, dtype=np.float64)  # exact median: 500
    spec = QuerySpec("quantile", key="k", eps=0.01, phi=0.5)

    def answer(kind, value):
        return Answer("q", "quantile", value, 0.01, kind, True, False, "t")

    # 508 is 8 ranks (under eps * n = 10) but 1.6% (over 1%) off 500.
    assert check_answer(spec, answer("streaming-quantiles", 508.0),
                        ordered, None)[0]
    assert not check_answer(spec, answer("ddsketch", 508.0), ordered,
                            None)[0]
    # Packed values: 1001 is 0.05% but 500 ranks off the median.
    packed = 1000.0 + ordered / 1000.0
    assert check_answer(spec, answer("ddsketch", 1001.0), packed, None)[0]
    assert not check_answer(spec, answer("streaming-quantiles", 1001.0),
                            packed, None)[0]


def test_standing_mix_is_the_query_layer_benchmarks():
    specs = QueryStanding.query_specs()  # puts benchmarks/ on the path
    from bench_query_layer import query_specs
    assert len(specs) == 1_000 and specs == query_specs()


def test_pool_processed_set_follows_per_shard_prefixes():
    from repro.service import ShardedMiner
    stream = np.arange(10, dtype=np.float32)
    rr = ShardedMiner("quantile", eps=0.1, num_shards=2).partitioner
    view = oracle.StreamOracle(stream, oracle.shard_routing(stream, rr), 2)
    assert view.processed_values([2, 1]).tolist() == [0.0, 1.0, 2.0]
    hashed = ShardedMiner("frequency", eps=0.1, num_shards=2).partitioner
    homes = oracle.shard_routing(stream, hashed)
    for value, home in zip(stream, homes):
        assert home == hashed.shard_of(float(value))


def test_self_time_subtracts_direct_children():
    tracer = Tracer()

    def leaf():
        return 1

    def outer():
        return traced_leaf() + traced_leaf()

    traced_leaf = tracer._wrap(leaf, "inner", "leaf")
    tracer._wrap(outer, "outer", "call")()
    spans = {s[0]: s for s in tracer.spans}
    rows = tracer.self_times()
    root = next(r for r in rows if r[0] == "outer")
    (root_id,) = [i for i, s in spans.items() if s[2] == "outer"]
    children = sum(s[6] - s[5] for s in spans.values() if s[1] == root_id)
    duration = spans[root_id][6] - spans[root_id][5]
    assert root[3] == pytest.approx(duration - children)
    assert tracer.top_level_seconds() == pytest.approx(duration)


def test_shims_uninstall_to_the_originals():
    from repro.core.pipeline import Windower
    from repro.query import QueryFrontEnd
    before = (Windower.push, QueryFrontEnd.answer)
    tracer = Tracer()
    install_layer_shims(tracer)
    assert Windower.push is not before[0]
    tracer.uninstall()
    assert (Windower.push, QueryFrontEnd.answer) == before


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail_quantile(40) == 0.75
    assert run.tail_quantile(100) == 0.9
    assert run.tail_quantile(15) == 0.5


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "frequency-gpu",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


_FAILING_POOL_ROUND = """
import asyncio, multiprocessing, sys
sys.path[:0] = sys.argv[1:3]
import run
from multiprocessing import resource_tracker
from oracle import Tally
from workloads import FrequencyMp

class Failing(FrequencyMp):
    elements = 8_000
    def round_stats(self, pool):
        raise RuntimeError("round fails after ingest")

try:
    asyncio.run(run.run_round(Failing(1), Tally()))
except RuntimeError:
    pass
print(len(multiprocessing.active_children()))
run.stop_children()
print(resource_tracker._resource_tracker._pid)
"""


def test_no_process_outlives_a_failed_pool_round():
    """The round closes its pool on the way out of a failure, and
    ``stop_children`` reaps the shared-memory resource tracker."""
    done = subprocess.run(
        [sys.executable, "-c", _FAILING_POOL_ROUND,
         str(HERE.parent / "src"), str(HERE)],
        capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["0", "None"]


def test_benchmark_json_names_every_emitted_metric():
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    empty_round = {"trace": {"loop": {}, "setup": {}, "covered": 0.0,
                             "wall": 1.0},
                   "stats": {}}
    emitted = list(run.layer_metrics(empty_round)) + ["trace.overhead"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.layer_unit(name) for name in emitted}
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
