"""The workloads: set-up, measured phase and answer checks.

Every workload is a closed loop from this one process.  Each returns an
:class:`Outcome`; :mod:`perfbench.run` turns it into the report and the
result line.  In a traced run (``trace=True``) a workload measures its
untraced end-to-end numbers first, then repeats the work with the layer
shims installed, so the difference is the tracing overhead.
"""

from __future__ import annotations

from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy

from repro.core.pipeline import (
    CNProbaseBuilder,
    PipelineConfig,
    PreviousBuild,
    ResourceCache,
)
from repro.errors import ReproError
from repro.eval.metrics import make_oracle, relation_precision
from repro.serving import build_cluster

from perfbench import layers
from perfbench.inputs import (
    API_METHODS,
    REFRESH_ENTITIES,
    REFRESH_WORLD_SEED,
    SERVE_ENTITIES,
    SERVE_WORLD_SEED,
    NightlyEdits,
    check_pins,
    delta_chain,
    make_world,
    observed_inputs,
    serve_inputs,
)
from perfbench.measure import (
    host_ref_ms,
    median,
    peak_rss_mb,
    tail,
)
from perfbench.tracing import Tracer, layer_shims

#: End-to-end metrics and their units; every workload reports all of them.
#: The wall times of the measured phase (refresh_s, call latency,
#: calls_per_s, publish_ms) are printed in the report, not reported here:
#: on a shared host whose speed drifts by up to 1.6x in phases of 30-90 s,
#: even within one process on unchanged inputs, they spread across ten
#: runs by more than the largest bound a result metric may carry.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "isa_precision": "ratio",
}

#: Complete set-ups per run (the last one's state is measured); ``setup_s``
#: is their median.
SETUP_REPEATS = 3
#: serve_inproc publishes the next delta of its chain every this many requests.
PUBLISH_EVERY = 2_000
#: Traced runs: every this many requests of the traced loop gets a span.
SPAN_EVERY = 100
#: Untraced refresh runs measure at least this many nights; traced ones run
#: one untraced night, then this many traced nights.
MIN_NIGHTS = 3
TRACED_NIGHTS = 2


@dataclass
class Outcome:
    """What one run measured: set-up times, end-to-end and per-layer
    values, operations attempted and failed, host probes, report lines."""

    setup: list[float] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=layers.empty_layers)
    attempted: int = 0
    failed: int = 0
    host: list[float] = field(default_factory=list)
    report: list[str] = field(default_factory=list)
    tracer: Tracer | None = None


def _timed(function, *args):
    started = perf_counter()
    value = function(*args)
    return value, perf_counter() - started


def _precision(world, taxonomy) -> float:
    return relation_precision(taxonomy.relations(), make_oracle(world)).precision


def _latency_report(out: Outcome, seconds) -> None:
    """Print the median and the tail of per-operation times (seconds)."""
    label, slowest, beyond = tail(seconds)
    out.report.append(
        f"latency over {len(seconds)} operations: p50 = {median(seconds) * 1000.0:.4f} ms,"
        f" {label} = {slowest * 1000.0:.4f} ms ({beyond} samples beyond it;"
        " see perfbench.measure.tail)"
    )


def _overhead(out: Outcome, untraced: list[float], traced: list[float]) -> None:
    base, with_shims = median(untraced), median(traced)
    out.layers["trace.overhead_p50_ms"] = (with_shims - base) * 1000.0
    out.layers["trace.overhead_ratio"] = with_shims / base


# -- refresh_nightly ------------------------------------------------------------------


def refresh_nightly(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """A warm builder on a fixed ~600-entity world: each night edits a
    fresh, seeded 1.5% of the pages, rebuilds incrementally and publishes
    the delta to an in-process 2×2 cluster."""
    out = Outcome()
    world_s = []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        (world, base), took = _timed(make_world, REFRESH_WORLD_SEED, REFRESH_ENTITIES)
        world_s.append(took)
        edits = NightlyEdits(base, seed)
        dump = edits.dump_for(0)
        builder = CNProbaseBuilder(PipelineConfig(), resource_cache=ResourceCache())
        result = builder.build(dump)
        cluster = build_cluster(result.taxonomy, shards=2, replicas=2)
        out.setup.append(perf_counter() - started)
    check_pins("refresh_nightly", seed, observed_inputs(base, edits))
    tracer = out.tracer = Tracer(f"refresh_nightly:{seed}") if trace else None
    previous = PreviousBuild.from_result(dump, result)

    out.host.append(host_ref_ms())
    times: list[float] = []
    traced_results = []
    rebuilt: list[int] = []
    measured = perf_counter()

    def more_nights() -> bool:
        if len(times) + 1 >= edits.max_nights:
            return False
        if trace:
            return len(times) < 1 + TRACED_NIGHTS
        return len(times) < MIN_NIGHTS or perf_counter() - measured < seconds

    while more_nights():
        night = len(times) + 1
        dump = edits.dump_for(night)
        shimmed = trace and night > 1
        before = cluster.shard_versions()
        with tracer.installed(layer_shims()) if shimmed else nullcontext():
            started = perf_counter()
            result = builder.build_incremental(dump, previous)
            cluster.publish_delta(result.delta)
            times.append(perf_counter() - started)
        if shimmed:
            traced_results.append(result)
            rebuilt.append(sum(a != b for a, b in zip(before, cluster.shard_versions())))
        _check_night(out, previous, result, cluster)
        previous = PreviousBuild.from_result(dump, result)
    out.host.append(host_ref_ms())

    if trace:
        out.layers.update(layers.build_layers(traced_results, tracer, len(dump)))
        out.layers["serving.router_publish_ms"] = (
            tracer.seconds["serving.router_publish"] / TRACED_NIGHTS * 1000.0)
        out.layers["serving.store_publish_ms"] = (
            tracer.seconds["serving.store_publish"] / TRACED_NIGHTS * 1000.0)
        out.layers["serving.shards_rebuilt"] = sum(rebuilt) / len(rebuilt)
        _overhead(out, times[:1], times[1:])
        times = times[:1]
    out.layers["encyclopedia.world_s"] = median(world_s)
    _latency_report(out, times)
    out.metrics["isa_precision"] = _precision(world, result.taxonomy)
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    out.report.append(
        f"refresh_s = {median(times):.3f} s (median over {len(times)} nights);"
        f" {result.diff.n_touched} pages touched per night,"
        f" resources {result.resource_mode}"
    )
    return out


def _check_night(out: Outcome, previous: PreviousBuild, result, cluster) -> None:
    """The delta reproduces the night's bytes, and every touched key is
    served as the new taxonomy answers it."""
    out.attempted += 1
    new_hash = result.taxonomy.content_hash()
    replayed = previous.taxonomy.copy().apply_delta(result.delta).content_hash()
    if replayed != new_hash or cluster.content_hash != new_hash:
        out.failed += 1
        out.report.append(f"night delta does not reproduce {new_hash}")
    view = result.taxonomy.freeze()
    for key in sorted(set(result.delta.touched_serving_keys())):
        for single, _ in API_METHODS.values():
            out.attempted += 1
            if getattr(cluster, single)(key) != getattr(view, single)(key):
                out.failed += 1


# -- serving ----------------------------------------------------------------------------


def _call(call, argument):
    """One request and its latency in ns; a raised error answers ``None``."""
    started = perf_counter_ns()
    try:
        answer = call(argument)
    except (ReproError, OSError):
        answer = None
    return answer, perf_counter_ns() - started


def serve_loop(front, stream, seconds: float, view, steps=(), tracer=None) -> dict:
    """Closed loop over *stream* (cycled) for *seconds*, one thread.

    Every answer is checked against the frozen view of the version it was
    served at; when *steps* is given, the next delta of the chain is
    published every :data:`PUBLISH_EVERY` requests.  Latencies are per
    request (a single call or a whole batch).
    """
    singles = {api: getattr(front, names[0]) for api, names in API_METHODS.items()}
    batches = {api: getattr(front, names[1]) for api, names in API_METHODS.items()}

    def expected(on):
        return {api: getattr(on, names[0]) for api, names in API_METHODS.items()}

    expect = expected(view)
    latencies = array("q")  # ns per request; compact, so memory does not grow with speed
    publishes: list[int] = []
    failed = step = keys = 0
    n = len(stream)
    deadline = perf_counter() + seconds
    index = 0
    while True:
        request = stream[index % n]
        call = batches[request.api] if request.batch else singles[request.api]
        argument = request.keys if request.batch else request.keys[0]
        if tracer is not None and index % SPAN_EVERY == 0:
            tracer.request_id = str(index)
            with tracer.span("request", api=request.api, keys=len(request.keys)):
                answer, took = _call(call, argument)
        else:
            answer, took = _call(call, argument)
        latencies.append(took)
        look = expect[request.api]
        if request.batch:
            wrong = answer != [look(key) for key in request.keys]
        else:
            wrong = answer != look(argument)
        failed += wrong
        keys += len(request.keys)
        index += 1
        if steps and index % PUBLISH_EVERY == 0:
            chained = steps[step % len(steps)]
            step += 1
            started = perf_counter_ns()
            try:
                front.publish_delta(chained.delta)
            except ReproError:
                failed += 1
            else:
                expect = expected(chained.view)
            publishes.append(perf_counter_ns() - started)
        if index % 256 == 0 and perf_counter() >= deadline:
            break
    if tracer is not None:
        tracer.request_id = None
    return {
        "latencies_s": numpy.frombuffer(latencies, dtype=numpy.int64) / 1e9,
        "publishes_ms": [ns / 1e6 for ns in publishes],
        "keys": keys,
        "requests": index,
        "failed": failed,
    }


def _serve_metrics(out: Outcome, loop: dict) -> None:
    out.attempted += loop["requests"] + len(loop["publishes_ms"])
    out.failed += loop["failed"]
    latencies = loop["latencies_s"]
    _latency_report(out, latencies)
    out.report.append(
        f"calls_per_s = {loop['keys'] / latencies.sum():.1f} keys per second of call time;"
        f" latency_p50_us = {median(latencies) * 1e6:.2f}"
        f" over {loop['requests']} requests, {loop['keys']} keys"
    )
    if loop["publishes_ms"]:
        out.report.append(
            f"publish_ms = {median(loop['publishes_ms']):.3f} ms"
            f" (median of {len(loop['publishes_ms'])} publishes)"
        )


def serve_inproc(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    """The ``cn-probase serve`` stack (2 shards × 2 replicas) called in
    process with the Table-II stream, publishing a delta every
    :data:`PUBLISH_EVERY` requests."""
    out = Outcome()
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        world, dump, taxonomy, view, stream = serve_inputs(seed)
        steps = delta_chain(taxonomy, seed)
        cluster = build_cluster(taxonomy, shards=2, replicas=2)
        out.setup.append(perf_counter() - started)
    check_pins("serve_inproc", seed, observed_inputs(dump, stream=stream))
    out.host.append(host_ref_ms())
    share = seconds / 2 if trace else seconds
    loop = serve_loop(cluster, stream, share, view, steps)
    if trace:
        tracer = out.tracer = Tracer(f"serve_inproc:{seed}")
        # continue from the published version the first loop left behind
        at = (len(loop["publishes_ms"]) - 1) % len(steps)
        current = steps[at].view if loop["publishes_ms"] else view
        rest = steps[at + 1:] + steps[:at + 1] if loop["publishes_ms"] else steps
        with tracer.installed(layer_shims()):
            traced = serve_loop(cluster, stream, share, current, rest, tracer)
        out.attempted += traced["requests"] + len(traced["publishes_ms"])
        out.failed += traced["failed"]
        _overhead(out, loop["latencies_s"], traced["latencies_s"])
        out.layers["encyclopedia.world_s"] = _timed(
            make_world, SERVE_WORLD_SEED, SERVE_ENTITIES)[1]
        out.layers.update(layers.single_layers(taxonomy, stream))
        out.layers.update(layers.publish_layers(taxonomy, steps))
        out.layers.update(layers.counted_layers(taxonomy, stream, tracer))
        out.layers.update(layers.http_layers(taxonomy, stream, workdir))
        out.layers["taxonomy.delta_records"] = (
            sum(step.delta.n_records for step in steps) / len(steps))
    out.host.append(host_ref_ms())
    _serve_metrics(out, loop)
    out.metrics["isa_precision"] = _precision(world, taxonomy)
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    return out


WORKLOADS = {
    "refresh_nightly": refresh_nightly,
    "serve_inproc": serve_inproc,
}
