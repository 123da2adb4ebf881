"""The repository benchmark: four closed-loop workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload quantile-history --seed 1 \\
        --seconds 20 --trace 0 [--out DIR]

``--workload all`` runs the four workloads one after another.  The
untraced run (``--trace 0``) prints every end-to-end metric; the traced
run (``--trace 1``) installs the layer shims of :mod:`tracing` and
prints the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
command exits 1 when any answer breaks its bound and 2 when the package
under ``src/`` cannot be imported.  Nothing is written to disk unless
``--out`` names a directory.

A run builds its inputs from ``--seed``, warms up on a short prefix,
then repeats whole rounds (set-up, ingest with reads, flush, final
reads, shut-down) for ``--seconds`` and at least ``min_rounds`` times.
Throughput and set-up are medians over rounds, latencies percentiles
over every call (see :func:`end_to_end`); per-layer figures are medians
over the traced rounds.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Percentiles a tail may be reported at; the highest one that leaves at
#: least ten samples beyond it in the shortest run is used.
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.98, 0.99, 0.999)

END_TO_END_UNITS = {
    "ingest_eps": "1/s",
    "ingest_call_p50_ms": "ms",
    "ingest_call_tail_ms": "ms",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def tail_quantile(min_samples: int) -> float:
    """Highest ladder percentile with >= 10 samples beyond it."""
    usable = [q for q in TAIL_LADDER
              if round(min_samples * (1.0 - q), 6) >= 10]
    return usable[-1] if usable else TAIL_LADDER[0]


def percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


# ----------------------------------------------------------------------
# one round
# ----------------------------------------------------------------------
async def run_round(workload, tally, *, elements=None, tracer=None):
    """Set up, drive the closed loop, check every answer, shut down."""
    from workloads import reset_peak_rss
    perf = time.perf_counter
    setup_s = []
    reset_peak_rss()
    system = None
    try:
        for repeat in range(workload.setup_repeats):
            if repeat:
                await workload.close(system)
                system = None
            if tracer:
                tracer.reset()  # the setup spans are the last set-up's
            system, seconds = await workload.timed_setup()
            setup_s.append(seconds)
        setup_layers = tracer.layer_totals() if tracer else {}
        if tracer:
            tracer.reset()

        ingest_ms, read_ms, observations = [], [], []
        untimed = 0.0

        async def timed(call, samples):
            """Await one system call; a call that raises counts as failed."""
            t = perf()
            try:
                result, ok = await call, True
            except Exception:  # noqa: BLE001 - any raising call fails
                result, ok = None, False
                traceback.print_exc(file=sys.stderr)
            samples.append((perf() - t) * 1e3)
            tally.op(ok)
            return ok, result

        async def read(params):
            nonlocal untimed
            ok, answer = await timed(workload.read(system, params), read_ms)
            if ok:
                t = perf()
                observations.append(workload.observe(system, params, answer))
                untimed += perf() - t

        loop_start = perf()
        for op in workload.schedule(elements):
            if op[0] == "read":
                await read(op[1])
            else:
                await timed(workload.ingest(system,
                                            workload.stream[op[1]:op[2]]),
                            ingest_ms)
        await timed(workload.flush(system), ingest_ms)
        loop_wall = perf() - loop_start - untimed
        untimed = 0.0
        finals_start = perf()
        for params in workload.final_params():
            await read(params)
        finals_wall = perf() - finals_start - untimed

        trace = None
        if tracer:
            trace = {"setup": setup_layers, "loop": tracer.layer_totals(),
                     "labels": tracer.label_totals("estimators"),
                     "covered": tracer.top_level_seconds(),
                     "wall": loop_wall + finals_wall,
                     "spans": list(tracer.spans)}
        stats = workload.round_stats(system)
    finally:
        # Shut the system down on every path out of the round, so no
        # worker process outlives it.
        if system is not None:
            await workload.close(system)
    for observation in observations:
        workload.check(observation, tally)
    n = elements if elements is not None else workload.elements
    return {"setup_s": setup_s, "ingest_eps": n / loop_wall,
            "ingest_ms": ingest_ms, "read_ms": read_ms,
            "stats": stats, "trace": trace,
            "last_observation": observations[-1] if observations else None}


def run_phase(workload, tally, seconds: float, min_rounds: int,
              tracer=None) -> list[dict]:
    """Rounds until ``seconds`` have passed and ``min_rounds`` are done.

    With a ``tracer``, every second round runs with the layer shims
    installed, so traced and untraced rounds see the same drift in
    machine speed and their difference is the tracing overhead.
    """
    from tracing import install_layer_shims
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        if tracer is None or len(rounds) % 2 == 0:
            rounds.append(asyncio.run(run_round(workload, tally)))
            continue
        tracer.reset()
        install_layer_shims(tracer)
        try:
            rounds.append(asyncio.run(run_round(workload, tally,
                                                tracer=tracer)))
        finally:
            tracer.uninstall()
    return rounds


def canary_caught(workload, observation) -> bool:
    """A deliberately broken answer must count as a failed read."""
    from oracle import Tally
    canary = Tally()
    canary.op(True)
    workload.check(workload.perturb(observation), canary)
    return canary.failed == 1


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(workload, rounds) -> dict:
    """Throughput, set-up and memory as medians over rounds; latencies
    as percentiles of every call of the run.

    The tail percentile is fixed per workload: the highest one that
    leaves ten samples beyond it in a run of ``min_rounds`` rounds, so
    a longer run reports the same percentile.
    """
    ingest = [ms for r in rounds for ms in r["ingest_ms"]]
    reads = [ms for r in rounds for ms in r["read_ms"]]
    q_ingest = tail_quantile(workload.min_rounds
                             * workload.ingests_per_round())
    q_read = tail_quantile(workload.min_rounds * workload.reads_per_round())
    metrics = {
        "ingest_eps": statistics.median(r["ingest_eps"] for r in rounds),
        "ingest_call_p50_ms": percentile(ingest, 0.5),
        "ingest_call_tail_ms": percentile(ingest, q_ingest),
        "query_p50_ms": percentile(reads, 0.5),
        "query_tail_ms": percentile(reads, q_read),
        "setup_s": statistics.median(s for r in rounds
                                     for s in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["stats"]["peak_rss_mb"]
                                         for r in rounds),
    }
    notes = {
        "ingest_eps": f"{workload.elements} elements, median of "
                      f"{len(rounds)} rounds",
        "ingest_call_tail_ms": f"p{q_ingest * 100:g}, n={len(ingest)}",
        "query_tail_ms": f"p{q_read * 100:g}, n={len(reads)}",
        "setup_s": f"median of {workload.setup_repeats * len(rounds)} "
                   "set-ups",
    }
    return metrics, notes


def per_layer(rounds, untraced_eps: float) -> dict:
    """Per-layer metrics: medians over traced rounds."""
    per_round = [layer_metrics(r) for r in rounds]
    metrics = {name: statistics.median(m[name] for m in per_round)
               for name in per_round[0]}
    traced_eps = statistics.median(r["ingest_eps"] for r in rounds)
    metrics["trace.overhead"] = 1.0 - traced_eps / untraced_eps
    return metrics


def layer_metrics(round_result) -> dict:
    trace = round_result["trace"]
    loop, setup = trace["loop"], trace["setup"]
    stats = round_result["stats"]

    def total(layer, op, field="self_s", where=loop):
        return where.get((layer, op), {}).get(field, 0)

    service = stats.get("service", {})
    query = stats.get("query", {})
    gpu = stats.get("gpu", {})
    answers = stats.get("answers", 0)
    merges = total("service", "memo", "count")
    return {
        "pipeline.windower.calls": total("pipeline.windower", "push",
                                         "calls"),
        "pipeline.windower.self_s": total("pipeline.windower", "push"),
        "pipeline.windower.windows": total("pipeline.windower", "push",
                                           "count"),
        "sorting.calls": total("sorting", "sort_batch", "calls"),
        "sorting.self_s": total("sorting", "sort_batch"),
        "sorting.elements": total("sorting", "sort_batch", "count"),
        "gpu.passes": gpu.get("passes", 0),
        "gpu.fragments": gpu.get("fragments", 0),
        "gpu.blend_ops": gpu.get("blend_ops", 0),
        "gpu.bus_bytes": gpu.get("bus_bytes", 0),
        "histograms.calls": total("histograms", "histogram_from_sorted",
                                  "calls"),
        "histograms.self_s": total("histograms", "histogram_from_sorted"),
        "estimators.update_calls": total("estimators", "update", "calls"),
        "estimators.update_self_s": total("estimators", "update"),
        "estimators.space_self_s": total("estimators", "space"),
        "estimators.query_self_s": total("estimators", "query"),
        "estimators.entries": stats.get("entries", 0),
        "service.ingest_self_s": total("service", "ingest"),
        "service.drain_wait_s": total("service", "drain"),
        "service.query_self_s": (total("service", "query")
                                 + total("service", "memo")),
        "service.worker_busy_s": service.get("worker_busy_s", 0.0),
        "service.transport_s": service.get("transport_s", 0.0),
        "service.shm_batches": service.get("shm_batches", 0),
        "service.pickle_batches": service.get("pickle_batches", 0),
        "service.replayed_batches": service.get("replayed_batches", 0),
        "service.restarts": service.get("restarts", 0),
        "service.shard_skew": service.get("shard_skew", 0.0),
        "query.plan_self_s": total("query", "plan", where=setup),
        "query.register_self_s": total("query", "register", where=setup),
        "query.answer_self_s": total("query", "answer"),
        "query.ingest_fanout": query.get("ingest_fanout", 0.0),
        "query.physical_sketches": query.get("physical_sketches", 0),
        "query.shared_ratio": query.get("shared_ratio", 0.0),
        "query.merges_per_sweep": 1_000 * merges / answers if answers else 0,
        "trace.coverage": trace["covered"] / trace["wall"],
    }


def measured_vs_modelled(rounds) -> list[str]:
    """Traced shares of sort/histogram/merge next to the cost model's."""
    loop = rounds[-1]["trace"]["loop"]
    modelled = rounds[-1]["stats"].get("modelled")
    if not modelled:
        return []
    sort = loop.get(("sorting", "sort_batch"), {}).get("self_s", 0.0)
    hist = loop.get(("histograms", "histogram_from_sorted"),
                    {}).get("self_s", 0.0)
    merge = sum(loop.get(("estimators", op), {}).get("self_s", 0.0)
                for op in ("update", "space"))
    measured_total = (sort + hist + merge) or 1.0
    shares = {
        "sort": (sort / measured_total,
                 modelled["sort"] + modelled["transfer"]),
        "histogram": (hist / measured_total, modelled["histogram"]),
        "merge": (merge / measured_total,
                  modelled["merge"] + modelled["compress"]),
    }
    lines = ["stage       measured  modelled (2005 hardware model)"]
    for stage, (measured, model) in shares.items():
        lines.append(f"{stage:<10} {measured:>9.1%} {model:>9.1%}")
    return lines


# ----------------------------------------------------------------------
# provenance and output
# ----------------------------------------------------------------------
def provenance(workload_name: str, seed: int, seconds: int,
               trace: bool) -> dict:
    import numpy
    sha, dirty = None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            check=True).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": trace, "git_sha": sha, "git_dirty": dirty,
        "host": platform.node(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "repro_compiled_env": os.environ.get("REPRO_COMPILED"),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 out: Path | None) -> dict:
    from oracle import Tally
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    print(f"== {name}: {workload.why}")
    print("provenance " + json.dumps(provenance(name, seed, seconds, trace)))

    warm = Tally()
    asyncio.run(run_round(workload, warm, elements=max(
        workload.chunk * workload.read_every * 2, workload.elements // 10)))

    tally = Tally()
    tracer = Tracer() if trace else None
    rounds = run_phase(workload, tally, seconds,
                       4 if trace else workload.min_rounds, tracer)
    observation = next((r["last_observation"] for r in reversed(rounds)
                        if r["last_observation"] is not None), None)
    canary_ok = observation is not None and canary_caught(workload,
                                                          observation)
    result = {"workload": name, "tally": tally, "canary_ok": canary_ok}

    if not trace:
        metrics, notes = end_to_end(workload, rounds)
        units = END_TO_END_UNITS
    else:
        untraced, traced = rounds[0::2], rounds[1::2]
        untraced_eps = statistics.median(r["ingest_eps"] for r in untraced)
        metrics, notes = per_layer(traced, untraced_eps), {}
        units = {m: layer_unit(m) for m in metrics}
        for line in measured_vs_modelled(traced):
            print(line)
        labels = traced[-1]["trace"]["labels"]
        for (label, op), seconds_ in sorted(labels.items()):
            print(f"estimators[{label}].{op}_self_s {seconds_:.6f} s "
                  "(last traced round)")
        if out is not None:
            write_spans(out / f"spans-{name}-{seed}.jsonl", name, seed,
                        traced)
    op_fail_frac = tally.failed / max(1, tally.attempted)
    for metric, value in metrics.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{metric} {value:.6g} {units[metric]}{note}")
    # Correctness figures are printed but kept out of the JSON metrics:
    # op_fail_frac is 0 on a correct run and error_to_bound_max is fixed
    # by the seed's data, so neither is a repeatable measurement; the
    # "correct" and "failed" fields carry the gate.
    print(f"op_fail_frac {op_fail_frac:.6g} ratio  "
          f"({tally.failed} of {tally.attempted} operations; "
          f"{tally.checked} answers checked; canary "
          f"{'caught' if canary_ok else 'MISSED'})")
    print(f"error_to_bound_max {tally.error_to_bound_max:.6g} ratio")
    result["metrics"] = {m: {"value": v, "unit": units[m]}
                         for m, v in metrics.items()}
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        samples = [{"setup_s": r["setup_s"], "ingest_eps": r["ingest_eps"],
                    "ingest_ms": r["ingest_ms"], "read_ms": r["read_ms"]}
                   for r in rounds]
        (out / f"result-{name}-{seed}-trace{int(trace)}.json").write_text(
            json.dumps({"provenance": provenance(name, seed, seconds, trace),
                        "op_fail_frac": op_fail_frac,
                        "error_to_bound_max": tally.error_to_bound_max,
                        "metrics": result["metrics"],
                        "rounds": samples}, indent=2))
    return result


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric in ("trace.coverage", "trace.overhead", "query.shared_ratio",
                  "service.shard_skew", "query.ingest_fanout"):
        return "ratio"
    if metric == "gpu.bus_bytes":
        return "bytes"
    return "count"


def write_spans(path: Path, workload: str, seed: int, rounds) -> None:
    """One JSON line per span, tagged with its workload and round."""
    from tracing import SPAN_FIELDS
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for index, round_result in enumerate(rounds):
            run_id = f"{workload}:{seed}:{index}"
            for span in round_result["trace"]["spans"]:
                record = dict(zip(SPAN_FIELDS, span))
                record.update(workload=workload, run_id=run_id)
                handle.write(json.dumps(record) + "\n")


def stop_children() -> None:
    """Stop and reap every process this run started.

    Pools close their workers at the end of each round; this catches
    any a failed round left behind, and multiprocessing's resource
    tracker, which the shared-memory rings start and which otherwise
    lingers until after this process has exited.  ``_stop`` is the
    tracker's own shut-down: it closes the tracker's pipe and waits for
    it to exit.
    """
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result and span files")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"known: {', '.join(WORKLOADS)}")

    # A terminated run still leaves through ``finally`` below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        results = [run_workload(name, args.seed, args.seconds,
                                bool(args.trace), args.out)
                   for name in names]
    finally:
        stop_children()
    attempted = sum(r["tally"].attempted for r in results)
    failed = sum(r["tally"].failed for r in results)
    correct = failed == 0 and all(r["canary_ok"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results
                   for m, v in r["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
