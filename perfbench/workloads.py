"""The four closed-loop workloads.

One client calls the public API and waits for every call to return.
Each workload builds its whole input from the seed before anything is
timed, then runs *rounds*: build the system (timed as set-up), ingest
the stream chunk by chunk with periodic reads, flush or drain, read the
final answers, and shut the system down.  Every read is checked against
the exact answer for the elements the system had summarised
(:mod:`oracle`) after the round, outside the timed region.

Why these four (each stresses a different layer):

* ``quantile-history`` — the paper's quantile path (GK04 merge/prune
  under the exponential histogram); the ``estimators`` layer does the
  work, sorting is a rounding error.
* ``frequency-gpu`` — the paper's co-processor path (PBSN on the
  simulated GPU, then lossy counting); ``sorting`` and ``gpu`` do the
  work, the GK path is bypassed.
* ``frequency-mp`` — one worker process per core behind the shm-ring
  transport; the ``service`` layer (transport, acks, drain,
  merge-on-query) is on the critical path.
* ``query-standing`` — 1,000 standing queries on 4 shared sketches;
  the ``query`` layer (planner, sketch cache, memoized merges) and
  the ingest fan-out to several estimator families.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from oracle import (StreamOracle, Tally, check_counts_over,
                    check_counts_under, check_distinct, check_frequent,
                    check_quantile, check_quantile_value, shard_routing)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def zipf_keys(rng: np.random.Generator, n: int, domain: int) -> np.ndarray:
    """Zipf(1.2) ranks folded into ``[0, domain)``; key 0 is the heaviest."""
    return ((rng.zipf(1.2, n) - 1) % domain).astype(np.float32)


def reset_peak_rss() -> None:
    """Restart this process's peak RSS (VmHWM) from its current RSS.

    Called before each round's set-up, so the peak a round reports is
    its own: the generator's temporaries, the oracle's checks and
    earlier rounds or workloads stay outside it.  A kernel that refuses
    the reset leaves the lifetime peak.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb(pid="self") -> float:
    """Peak RSS (VmHWM) of one process in MB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def worker_peak_rss_mb() -> float:
    """Summed peak RSS of this process's live child processes."""
    return sum(peak_rss_mb(child.pid)
               for child in multiprocessing.active_children())


# A fresh interpreter that imports the package and builds one
# workload's system; argv is (workload name, src dir, perfbench dir).
_COLD_SETUP = """
import asyncio, sys, time
sys.path[:0] = sys.argv[2:4]
began = time.perf_counter()
from workloads import WORKLOADS
cls = WORKLOADS[sys.argv[1]]
asyncio.run(cls.__new__(cls).setup())
print(time.perf_counter() - began)
"""


def cold_setup_seconds(name: str) -> float:
    """Seconds from ``import`` to a built system in a new interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _COLD_SETUP, name, str(ROOT / "src"),
         str(HERE)], cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True)
    return float(done.stdout.split()[-1])


def entries(estimator) -> int:
    """Summary entries an estimator holds (``space()`` or its length)."""
    if hasattr(estimator, "space"):
        return int(estimator.space())
    return len(estimator)


class Workload:
    """One closed-loop workload; subclasses fill in the system calls."""

    name = ""
    elements = 0
    chunk = 0
    #: ingest calls between two reads.
    read_every = 0
    #: ingest calls before the first read.
    quiet_calls = 0
    #: rounds every measured phase runs at least.
    min_rounds = 3
    #: systems built per round; set-up time is the median over all.
    setup_repeats = 1

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.stream = self.generate(np.random.default_rng(self.seed))
        self._oracles: dict = {}

    # -- the schedule ---------------------------------------------------
    def schedule(self, elements: int | None = None):
        """``("ingest", lo, hi)`` and ``("read", params)`` in order."""
        n = self.elements if elements is None else elements
        reads = self.read_params()
        calls = list(range(0, n, self.chunk))
        done = 0
        for i, lo in enumerate(calls):
            yield ("ingest", lo, min(lo + self.chunk, n))
            if (i + 1 > self.quiet_calls and (i + 1) % self.read_every == 0
                    and i + 1 < len(calls)):
                yield ("read", reads[done % len(reads)])
                done += 1

    def reads_per_round(self) -> int:
        return (sum(op[0] == "read" for op in self.schedule())
                + len(self.final_params()))

    def ingests_per_round(self) -> int:
        """Ingest calls plus the closing flush."""
        return sum(op[0] == "ingest" for op in self.schedule()) + 1

    def final_params(self) -> list:
        return self.read_params()

    def oracle(self, key, routing) -> StreamOracle:
        """Cached exact view of the stream under one shard routing."""
        if key not in self._oracles:
            shards, n = routing()
            self._oracles[key] = StreamOracle(self.stream, shards, n)
        return self._oracles[key]

    def _single(self) -> StreamOracle:
        """The stream as one shard: a single miner summarises a prefix."""
        return self.oracle("single", lambda: (
            np.zeros(self.stream.size, dtype=np.int8), 1))

    async def timed_setup(self):
        """Build the system; returns it and the seconds set-up took."""
        began = time.perf_counter()
        system = await self.setup()
        return system, time.perf_counter() - began

    # -- hooks: the system calls each workload makes --------------------
    def generate(self, rng) -> np.ndarray:
        raise NotImplementedError

    def read_params(self) -> list:
        raise NotImplementedError

    async def setup(self):
        raise NotImplementedError

    async def ingest(self, system, chunk) -> None:
        raise NotImplementedError

    async def read(self, system, params):
        raise NotImplementedError

    async def flush(self, system) -> None:
        raise NotImplementedError

    async def close(self, system) -> None:
        raise NotImplementedError

    def observe(self, system, params, answer):
        """What the checker needs to know about the state a read saw."""
        raise NotImplementedError

    def check(self, observation, tally: Tally) -> None:
        raise NotImplementedError

    def round_stats(self, system) -> dict:
        """Per-round counters read from the system before it closes."""
        return {"peak_rss_mb": peak_rss_mb()}


# ----------------------------------------------------------------------
# single-miner workloads
# ----------------------------------------------------------------------
class _MinerWorkload(Workload):
    """A single :class:`StreamMiner`: it summarises a stream prefix."""

    async def timed_setup(self):
        """Set-up as a fresh process pays it: import, then build.

        Building a miner in a warm process is ~10 us of pure Python; a
        batch of such builds spans milliseconds and reads up to 2x apart
        from one run to the next as the host's speed moves, so it
        compares across nothing.  The cold path takes ~0.3 s and still
        shows work moved into import or construction.  The system the
        round drives is built here, in this process.
        """
        seconds = cold_setup_seconds(self.name)
        return await self.setup(), seconds

    async def ingest(self, miner, chunk):
        miner.update(chunk)

    async def flush(self, miner):
        miner.flush()

    async def close(self, miner):
        return None

    def observe(self, miner, params, answer):
        return (params, answer, [int(miner.estimator.processed)],
                float(miner.estimator.error_bound()), None)

    def round_stats(self, miner) -> dict:
        return {"peak_rss_mb": peak_rss_mb(),
                "entries": entries(miner.estimator),
                "modelled": miner.report.modelled_shares()}


class QuantileHistory(_MinerWorkload):
    name = "quantile-history"
    elements = 60_000
    chunk = 500
    read_every = 3
    why = ("the paper's quantile path: GK04 merge/prune under the "
           "exponential histogram, where the estimators layer does ~99% "
           "of the work and sorting ~0.2%")

    def generate(self, rng):
        return rng.random(self.elements, dtype=np.float32)

    def read_params(self):
        return [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]

    async def setup(self):
        from repro.core import StreamMiner
        return StreamMiner("quantile", eps=0.01, backend="cpu")

    async def read(self, miner, phi):
        return miner.quantile(phi)

    def check(self, observation, tally):
        phi, answer, processed, eps, _ = observation
        values = np.sort(self._single().processed_values(processed))
        tally.verdict(*check_quantile(values, phi, answer, eps))

    def perturb(self, observation):
        phi, _answer, *rest = observation
        return (phi, np.inf if phi < 0.5 else -np.inf, *rest)


class _Frequencies:
    """Zipf keys, heavy-hitter reads and their checks."""

    DOMAIN = 1 << 16

    def generate(self, rng):
        return zipf_keys(rng, self.elements, self.DOMAIN)

    def read_params(self):
        return [0.01, 0.005, 0.002]

    def final_params(self):
        # The lowest support reports a superset of the others' answers.
        return [0.002]

    def check(self, observation, tally):
        support, answer, processed, eps, routing = observation
        if routing is None:
            oracle = self._single()
        else:
            oracle = self.oracle("pool", lambda: (
                shard_routing(self.stream, routing), routing.num_shards))
        values = oracle.processed_values(processed)
        counts = np.bincount(values.astype(np.int64),
                             minlength=self.DOMAIN)
        tally.verdict(*check_frequent(counts, values.size, support, eps,
                                      answer))

    def perturb(self, observation):
        """Overcount the heaviest reported item by one."""
        support, answer, *rest = observation
        value, count = answer[0] if answer else (0.0, 0)
        return (support, [(value, count + 1)] + list(answer[1:]), *rest)


class FrequencyGpu(_Frequencies, _MinerWorkload):
    name = "frequency-gpu"
    elements = 200_000
    chunk = 4_000          # one 4-window texture batch at eps = 1e-3
    read_every = 1
    why = ("the paper's co-processor path and the CLI default: PBSN on "
           "the simulated GPU then lossy counting; sorting and gpu do "
           "~96% of the work, the GK path is bypassed")

    async def setup(self):
        from repro.core import StreamMiner
        from repro.gpu.device import GpuDevice
        self.device = GpuDevice()
        return StreamMiner("frequency", eps=1e-3, backend="gpu",
                           device=self.device)

    async def read(self, miner, support):
        return miner.frequent_items(support)

    def round_stats(self, miner) -> dict:
        stats = super().round_stats(miner)
        counters = self.device.counters
        stats["gpu"] = {
            "passes": counters.passes,
            "fragments": counters.fragments,
            "blend_ops": counters.blend_ops,
            "bus_bytes": counters.bytes_uploaded + counters.bytes_readback,
        }
        return stats


# ----------------------------------------------------------------------
# pooled workloads
# ----------------------------------------------------------------------
def shard_elements(pool) -> list[int]:
    """Per-shard counts of summarised elements (the pool's reports)."""
    return [int(report.elements) for report in pool.shard_reports()]


def pool_workers() -> int:
    """One worker per core this process may run on, at least 2, at most 8."""
    return min(8, max(2, len(os.sched_getaffinity(0))))


class FrequencyMp(_Frequencies, Workload):
    name = "frequency-mp"
    elements = 2_000_000
    # Ingest calls are bimodal: most return once the batch is framed,
    # a few percent wait for a worker to drain its ring.  1,500 calls a
    # run put the tail (p99) inside the slow mode, not across both.
    chunk = 4_000
    read_every = 10
    why = ("an mp pool with one worker process per core; shm-ring and "
           "pipe transport, acks and drain in the service layer, lossy "
           "counting inside the workers")

    async def setup(self):
        from repro.service import MpShardedMiner
        return MpShardedMiner("frequency", eps=1e-3,
                              num_shards=pool_workers(), backend="cpu")

    async def ingest(self, pool, chunk):
        pool.ingest(chunk)

    async def read(self, pool, support):
        return pool.frequent_items(support)

    async def flush(self, pool):
        pool.drain()

    async def close(self, pool):
        pool.close()

    def observe(self, pool, support, answer):
        return (support, answer, shard_elements(pool), float(pool.eps),
                pool.partitioner)

    def round_stats(self, pool) -> dict:
        metrics = pool.metrics
        elements = [shard.elements for shard in metrics.shards]
        mean = sum(elements) / len(elements)
        return {
            "peak_rss_mb": peak_rss_mb() + worker_peak_rss_mb(),
            "service": {
                "worker_busy_s": sum(s.update_seconds
                                     for s in metrics.shards),
                "transport_s": metrics.transport_seconds,
                "shm_batches": sum(s.shm_batches for s in metrics.shards),
                "pickle_batches": sum(s.pickle_batches
                                      for s in metrics.shards),
                "replayed_batches": metrics.replayed_batches,
                "restarts": sum(s.restarts for s in metrics.shards),
                "shard_skew": max(elements) / mean if mean else 1.0,
            },
        }


class QueryStanding(Workload):
    name = "query-standing"
    elements = 22_000
    chunk = 500
    read_every = 1
    # Until each quantile shard has summarised a 4-window batch there
    # is nothing to answer.
    quiet_calls = 4
    setup_repeats = 20
    KEY = "bench"
    #: 256 keys keep both KMV sketches (k = 402 and 2502) below k
    #: distinct values, where their answers are exact.
    DOMAIN = 256
    why = ("1,000 standing queries on 4 shared sketches behind the "
           "inline front-end; non-fresh answer_all sweeps run beside "
           "chunked ingest, stressing planner, sketch cache and memoized "
           "merge-on-query")

    def generate(self, rng):
        return zipf_keys(rng, self.elements, self.DOMAIN)

    def read_params(self):
        return [None]

    @staticmethod
    def query_specs():
        """The 1,000-query mix of ``benchmarks/bench_query_layer.py``.

        Imported from that module, so the two cannot drift apart.
        """
        bench = str(ROOT / "benchmarks")
        if bench not in sys.path:
            sys.path.append(bench)
        from bench_query_layer import KEY, query_specs
        assert KEY == QueryStanding.KEY
        return query_specs()

    async def setup(self):
        from repro.query import QueryFrontEnd
        frontend = QueryFrontEnd(executor="inline", num_shards=2)
        for spec in self.query_specs():
            await frontend.register(spec)
        return frontend

    async def ingest(self, frontend, chunk):
        await frontend.ingest(chunk, self.KEY)

    async def read(self, frontend, _params):
        return await frontend.answer_all()

    async def flush(self, frontend):
        await frontend.drain()

    async def close(self, frontend):
        await frontend.close()

    def observe(self, frontend, _params, answers):
        sketches = {}
        for handle in frontend.cache.handles():
            pool = handle.service.miner
            sketches[id(handle)] = (pool, shard_elements(pool))
        queries = [(frontend.get(qid).spec, id(frontend.get(qid).handle),
                    answer) for qid, answer in answers.items()]
        return sketches, queries

    def check(self, observation, tally):
        sketches, queries = observation
        views = {}
        for sketch_id, (pool, processed) in sketches.items():
            routing = pool.partitioner
            oracle = self.oracle(
                repr(sorted(routing.to_state().items())),
                lambda r=routing: (shard_routing(self.stream, r),
                                   r.num_shards))
            values = oracle.processed_values(processed)
            views[sketch_id] = (np.sort(values), np.bincount(
                values.astype(np.int64), minlength=self.DOMAIN))
        ok, ratio = True, 0.0
        for spec, sketch_id, answer in queries:
            verdict = check_answer(spec, answer, *views[sketch_id])
            ok &= verdict[0]
            ratio = max(ratio, verdict[1])
        tally.verdict(ok, ratio)

    def perturb(self, observation):
        """Move the first quantile answer past the end of the stream."""
        sketches, queries = observation
        broken = list(queries)
        for i, (spec, sketch_id, answer) in enumerate(broken):
            if spec.metric == "quantile":
                broken[i] = (spec, sketch_id,
                             dataclasses.replace(answer, value=np.inf))
                break
        return sketches, broken

    def round_stats(self, frontend) -> dict:
        metrics = frontend.metrics
        return {
            "peak_rss_mb": peak_rss_mb(),
            "query": {
                "physical_sketches": metrics.physical_sketches,
                "shared_ratio": metrics.shared_ratio,
                "ingest_fanout": (metrics.fanout_ingests
                                  / max(1, metrics.ingested_chunks)),
            },
            "entries": sum(_pool_entries(h.service.miner)
                           for h in frontend.cache.handles()),
            "answers": metrics.answers,
        }


def check_answer(spec, answer, ordered: np.ndarray,
                 counts: np.ndarray) -> tuple[bool, float]:
    """One front-end ``Answer`` against its own ``error_bound``.

    The guarantee checked is the one the answering kind registers
    (``bound_type``), as in ``tests/conformance/bounds.py``: the planner
    may serve a spec with any capable kind.  ``ordered`` is the sorted
    processed set of the answering sketch and ``counts`` its key counts.
    """
    from repro.core.estimators import estimator_capabilities
    n, eps = ordered.size, answer.error_bound
    bound_type = estimator_capabilities(answer.kind).bound_type
    if spec.metric == "quantile":
        quantile_check = (check_quantile_value if bound_type == "relative"
                          else check_quantile)
        return quantile_check(ordered, spec.phi, answer.value, eps)
    counts_check = (check_counts_over if bound_type == "count-over"
                    else check_counts_under)
    if spec.metric == "heavy_hitters":
        return check_frequent(counts, n, spec.support, eps, answer.value)
    if spec.metric == "top_k":
        return counts_check(counts, n, eps, answer.value)
    if spec.metric == "estimate":
        return counts_check(counts, n, eps, [(spec.value, answer.value)])
    return check_distinct(ordered, answer.value, eps)


def _pool_entries(pool) -> int:
    """Summary entries across an inline pool's shards.

    The pool exposes no per-shard estimator, so this reads its private
    shard list; a pool without one counts as empty.
    """
    return sum(entries(miner.estimator)
               for miner in getattr(pool, "_miners", ()))


WORKLOADS = {cls.name: cls for cls in
             (QuantileHistory, FrequencyGpu, FrequencyMp, QueryStanding)}
