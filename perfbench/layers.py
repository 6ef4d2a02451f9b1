"""Per-layer metrics: their names and units, and the serving-layer replays.

Build and refresh layers are read from the traced run's shims and from
the build result's public ``StageTrace``.  A serving layer's cost per
call comes from replaying the same request stream directly against that
layer — index, shard, store, router, facade — so the layers can be
subtracted from one another (a layer's self time is its cost minus the
cost of the layer below it).

A metric of a layer that does no work in a workload reads 0.
"""

from __future__ import annotations

import statistics
import tempfile
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, perf_counter_ns

from repro.obs import trace_context
from repro.serving import TaxonomyClient, build_cluster
from repro.serving.sharding import ShardedSnapshotStore
from repro.taxonomy import TaxonomyService
from repro.taxonomy.service import ServiceMetrics
from repro.workloads.runner import serve_subprocess

from perfbench.inputs import API_METHODS
from perfbench.tracing import Tracer, layer_shims

#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    "neural.dataset_s": "s",
    "neural.train_s": "s",
    "neural.decode_s": "s",
    "neural.tensors_created": "count",
    "neural.decode_steps": "count",
    "neural.train_examples": "count",
    "neural.decode_pages": "count",
    "neural.yield_ratio": "ratio",
    "nlp.resources_s": "s",
    "nlp.segment_calls": "count",
    "nlp.segment_s": "s",
    "core.sources_s": "s",
    "core.verify_s": "s",
    "core.assemble_s": "s",
    "core.overhead_s": "s",
    "core.candidates": "count",
    "core.kept_ratio": "ratio",
    "core.pages_regenerated": "count",
    "core.replay_ratio": "ratio",
    "core.resource_fast_nights": "count",
    "encyclopedia.world_s": "s",
    "encyclopedia.diff_s": "s",
    "encyclopedia.pages_touched": "count",
    "taxonomy.delta_s": "s",
    "taxonomy.delta_records": "count",
    "taxonomy.hash_calls": "count",
    "taxonomy.hash_s": "s",
    "taxonomy.index_call_us": "us",
    "taxonomy.facade_call_us": "us",
    "taxonomy.facade_publish_ms": "ms",
    "serving.shard_call_us": "us",
    "serving.store_call_us": "us",
    "serving.router_call_us": "us",
    "serving.router_batch_key_us": "us",
    "serving.store_publish_ms": "ms",
    "serving.router_publish_ms": "ms",
    "serving.shards_rebuilt": "count",
    "serving.router_attempts_per_call": "ratio",
    "serving.http_call_us": "us",
    "serving.http_hop_us": "us",
    "obs.observes_per_request": "ratio",
    "obs.observe_us": "us",
    "obs.spans_per_request": "ratio",
    "host.ref_ms": "ms",
    "trace.overhead_p50_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

#: Source and verifier stages, as the default registry names them.
SOURCE_STAGES = ("bracket", "infobox", "tag")
VERIFY_STAGES = ("syntax", "ner", "incompatible")
ASSEMBLY_STAGES = ("merge", "assemble")

#: Single requests replayed per serving layer, batches replayed on the
#: router, requests replayed for the per-request counts, and how often
#: each timed replay repeats (the median repeat is reported).
REPLAY_SINGLES = 20_000
REPLAY_BATCHES = 1_000
REPLAY_COUNTED = 2_000
REPLAY_REPEATS = 3
#: Single requests replayed over HTTP (each costs about a millisecond).
REPLAY_HTTP = 2_000
SERVER_START_TIMEOUT_S = 60.0


def empty_layers() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER_UNITS}


def _stage_seconds(trace, names) -> float:
    total = 0.0
    for name in names:
        record = trace.get(name)
        if record is not None:
            total += record.seconds
    return total


def build_layers(results, tracer: Tracer, n_pages: int) -> dict[str, float]:
    """Per-night means over the traced nights.

    *results* are the traced nights' incremental build results; the
    tracer holds what the shims counted during them.
    """
    n = len(results)
    calls, seconds = tracer.calls, tracer.seconds
    regenerated = replayed = touched = 0.0
    resources = sources = verify = assemble = overhead = diff = 0.0
    candidates = kept = 0.0
    fast_nights = 0
    for result in results:
        trace = result.stage_trace
        resources += _stage_seconds(trace, ("resources",))
        sources += _stage_seconds(trace, SOURCE_STAGES)
        verify += _stage_seconds(trace, VERIFY_STAGES)
        assemble += _stage_seconds(trace, ASSEMBLY_STAGES)
        overhead += trace.overhead_seconds
        diff += _stage_seconds(trace, ("diff",))
        candidates += result.pool_stats.added
        kept += len(result.taxonomy) / result.pool_stats.unique
        dump_diff = result.diff
        touched += dump_diff.n_touched
        n_regenerated = len(dump_diff.regenerate_ids())
        regenerated += n_regenerated
        if any(record.cache_hit for record in trace.ran("source")):
            replayed += (n_pages - n_regenerated) / n_pages
        fast_nights += result.resource_mode == "incremental"
    decoded = calls["neural.decode_pages"]
    return {
        "neural.dataset_s": seconds["neural.dataset"] / n,
        "neural.train_s": seconds["neural.train"] / n,
        "neural.decode_s": seconds["neural.decode"] / n,
        "neural.tensors_created": calls["neural.tensors_created"] / n,
        "neural.decode_steps": calls["neural.decode_steps"] / n,
        "neural.train_examples": calls["neural.train_examples"] / n,
        "neural.decode_pages": decoded / n,
        "neural.yield_ratio": (
            calls["neural.relations_emitted"] / decoded if decoded else 0.0),
        "nlp.resources_s": resources / n,
        "nlp.segment_calls": calls["nlp.segment"] / n,
        "nlp.segment_s": seconds["nlp.segment"] / n,
        "core.sources_s": sources / n,
        "core.verify_s": verify / n,
        "core.assemble_s": assemble / n,
        "core.overhead_s": overhead / n,
        "core.candidates": candidates / n,
        "core.kept_ratio": kept / n,
        "core.pages_regenerated": regenerated / n,
        "core.replay_ratio": replayed / n,
        "core.resource_fast_nights": float(fast_nights),
        "encyclopedia.diff_s": diff / n,
        "encyclopedia.pages_touched": touched / n,
        "taxonomy.delta_s": seconds["taxonomy.delta"] / n,
        "taxonomy.delta_records": calls["taxonomy.delta_records"] / n,
        "taxonomy.hash_calls": calls["taxonomy.hash"] / n,
        "taxonomy.hash_s": seconds["taxonomy.hash"] / n,
    }


# -- serving replays ---------------------------------------------------------------


def _per_call_us(run, n_calls: int) -> float:
    """Median over :data:`REPLAY_REPEATS` of one replay's mean µs per call."""
    costs = []
    for _ in range(REPLAY_REPEATS):
        started = perf_counter_ns()
        run()
        costs.append((perf_counter_ns() - started) / 1000.0 / n_calls)
    return statistics.median(costs)


def _single_replay(front, singles):
    bound = [(getattr(front, API_METHODS[api][0]), key) for api, key in singles]

    def run():
        for call, key in bound:
            call(key)
    return run


def single_layers(taxonomy, stream) -> dict[str, float]:
    """µs per single call on the index, shard, store, router and facade."""
    singles = [
        (request.api, request.keys[0]) for request in stream if not request.batch
    ][:REPLAY_SINGLES]
    n = len(singles)
    store = ShardedSnapshotStore(taxonomy, n_shards=2)
    router = build_cluster(taxonomy, shards=2, replicas=2)
    shard_set = store.shard_set
    shard_calls = [
        (shard_set.shard_of(key).lookup, api, key) for api, key in singles
    ]

    def shards():
        for lookup, api, key in shard_calls:
            lookup(api, key)

    batches = [request for request in stream if request.batch][:REPLAY_BATCHES]
    batch_calls = [
        (getattr(router, API_METHODS[request.api][1]), request.keys)
        for request in batches
    ]

    def router_batches():
        for call, keys in batch_calls:
            call(keys)

    n_batch_keys = sum(len(request.keys) for request in batches)
    return {
        "taxonomy.index_call_us": _per_call_us(
            _single_replay(taxonomy.freeze(), singles), n),
        "serving.shard_call_us": _per_call_us(shards, n),
        "serving.store_call_us": _per_call_us(_single_replay(store, singles), n),
        "serving.router_call_us": _per_call_us(_single_replay(router, singles), n),
        "serving.router_batch_key_us": _per_call_us(router_batches, n_batch_keys),
        "taxonomy.facade_call_us": _per_call_us(
            _single_replay(TaxonomyService(taxonomy), singles), n),
    }


def _publish_ms(front, steps) -> tuple[float, float]:
    """Median ms per publish of *steps* on *front*, and mean shards rebuilt."""
    times, rebuilt = [], []
    for step in steps:
        before = front.shard_versions() if hasattr(front, "shard_versions") else None
        started = perf_counter()
        front.publish_delta(step.delta)
        times.append((perf_counter() - started) * 1000.0)
        if before is not None:
            after = front.shard_versions()
            rebuilt.append(sum(old != new for old, new in zip(before, after)))
    return statistics.median(times), (statistics.fmean(rebuilt) if rebuilt else 0.0)


def publish_layers(taxonomy, steps) -> dict[str, float]:
    """ms per ``publish_delta`` on a fresh store, router and facade."""
    store_ms, rebuilt = _publish_ms(ShardedSnapshotStore(taxonomy, n_shards=2), steps)
    router_ms, _ = _publish_ms(build_cluster(taxonomy, shards=2, replicas=2), steps)
    facade_ms, _ = _publish_ms(TaxonomyService(taxonomy), steps)
    return {
        "serving.store_publish_ms": store_ms,
        "serving.router_publish_ms": router_ms,
        "serving.shards_rebuilt": rebuilt,
        "taxonomy.facade_publish_ms": facade_ms,
    }


def counted_layers(taxonomy, stream, tracer: Tracer) -> dict[str, float]:
    """Exact per-request counts on the router over a fixed stream prefix:
    ledger observes, routing attempts, and the spans the program records
    when its own tracing is on for every request."""
    requests = stream[:REPLAY_COUNTED]
    router = build_cluster(taxonomy, shards=2, replicas=2)
    calls = [
        (getattr(router, API_METHODS[r.api][1 if r.batch else 0]),
         r.keys if r.batch else r.keys[0])
        for r in requests
    ]
    attempts_before = router.stats.attempts
    observes_before = tracer.calls["obs.observe"]
    with tracer.installed(layer_shims()):
        for call, argument in calls:
            call(argument)
        observes = tracer.calls["obs.observe"] - observes_before
        spans_before = tracer.calls["obs.record_span"]
        for index, (call, argument) in enumerate(calls):
            with trace_context(f"perfbench-{index}"):
                call(argument)
        spans = tracer.calls["obs.record_span"] - spans_before
    attempts = router.stats.attempts - attempts_before
    ledger = ServiceMetrics()

    def observe():
        for _ in range(REPLAY_SINGLES):
            ledger.observe("men2ent", 1e-6, True)

    return {
        "obs.observes_per_request": observes / len(calls),
        "obs.spans_per_request": spans / len(calls),
        # both passes go through the router
        "serving.router_attempts_per_call": attempts / (2 * len(calls)),
        "obs.observe_us": _per_call_us(observe, REPLAY_SINGLES),
    }


# -- the HTTP hop ---------------------------------------------------------------------------


@contextmanager
def _temp_files_under(workdir: Path):
    """Point ``tempfile`` at *workdir*, so the server's ready file stays
    inside the benchmark's own directory."""
    saved = tempfile.tempdir
    tempfile.tempdir = str(workdir)
    try:
        yield
    finally:
        tempfile.tempdir = saved


def http_layers(taxonomy, stream, workdir: Path) -> dict[str, float]:
    """µs per single call through ``cn-probase serve --shards 2
    --replicas 2`` and a ``TaxonomyClient`` (server, wire and client),
    and the hop: that cost minus the same calls on an in-process router."""
    singles = [
        (request.api, request.keys[0]) for request in stream if not request.batch
    ][:REPLAY_HTTP]
    path = workdir / "taxonomy.jsonl"
    taxonomy.save(path)
    with _temp_files_under(workdir), serve_subprocess(
        path, shards=2, replicas=2, timeout=SERVER_START_TIMEOUT_S
    ) as (url, _):
        client = TaxonomyClient(url, retries=0)
        http_us = _per_call_us(_single_replay(client, singles), len(singles))
    router = build_cluster(taxonomy, shards=2, replicas=2)
    router_us = _per_call_us(_single_replay(router, singles), len(singles))
    return {
        "serving.http_call_us": http_us,
        "serving.http_hop_us": http_us - router_us,
    }
