"""Serial build: wall time, per-stage seconds, rebuild identity.

Builds two fixed worlds through :class:`CNProbaseBuilder`:

- ``symbolic`` — a 1,200-entity world with the neural abstract source
  off (bracket / infobox / tag sources only);
- ``default`` — a 600-entity world with the default
  :class:`PipelineConfig` (abstract source on), the configuration a
  real build runs and where almost all of the time goes.

Each world is built twice by one builder and the bench asserts

- the first build derives the shared resources and the second replays
  them from the resource cache (``cache_hit`` on ``resources``),
- both builds save byte-identical taxonomies.

Both rows, with per-stage seconds, land in the ``build`` section of
``benchmarks/out/BENCH_parallel.json`` (the perf trajectory every
bench here appends to — :func:`merge_bench_json` is the shared
writer).

Run:  PYTHONPATH=src python -m pytest -q benchmarks/bench_build.py
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

from repro.core.pipeline import CNProbaseBuilder, PipelineConfig, ResourceCache
from repro.encyclopedia import SyntheticWorld
from repro.eval.report import render_table
from repro.workloads.report import merge_bench_entry

WORLD_SEED = 9
ROWS = {
    "symbolic": (1_200, PipelineConfig(enable_abstract=False)),
    "default": (600, PipelineConfig()),
}
OUT_DIR = Path(__file__).parent / "out"
BENCH_JSON = OUT_DIR / "BENCH_parallel.json"


def merge_bench_json(key: str, payload: dict) -> None:
    """Merge one bench's section into BENCH_parallel.json.

    Delegates to :func:`repro.workloads.report.merge_bench_entry`:
    the parent directory is created if missing and the update is
    atomic (temp file + ``os.replace``), so a crashed bench can never
    leave a truncated perf trajectory behind.
    """
    merge_bench_entry(BENCH_JSON, key, payload)


def _timed(builder: CNProbaseBuilder, dump):
    started = perf_counter()
    result = builder.build(dump)
    return result, perf_counter() - started


def _build_row(name: str, n_entities: int, config: PipelineConfig,
               tmp_path: Path) -> dict:
    dump = SyntheticWorld.generate(
        seed=WORLD_SEED, n_entities=n_entities
    ).dump()
    builder = CNProbaseBuilder(config, resource_cache=ResourceCache())
    first, seconds = _timed(builder, dump)
    rebuilt, rebuild_seconds = _timed(builder, dump)

    assert not first.stage_trace.get("resources").cache_hit
    assert rebuilt.stage_trace.get("resources").cache_hit
    paths = [tmp_path / f"{name}-{i}.jsonl" for i in (1, 2)]
    first.taxonomy.save(paths[0])
    rebuilt.taxonomy.save(paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes(), (
        f"{name}: rebuild on the same dump diverged"
    )
    if config.enable_abstract:
        assert first.stage_trace.get("abstract").ran

    return {
        "n_entities": n_entities,
        "n_pages": len(dump),
        "seconds": seconds,
        "cached_rebuild_seconds": rebuild_seconds,
        "stage_seconds": {
            record.name: record.seconds
            for record in first.stage_trace.ran()
        },
        "relations": len(first.taxonomy),
        "content_hash": first.taxonomy.content_hash(),
        "identical_rebuild": True,
    }


def test_build_benchmark(record, tmp_path):
    rows = {
        name: _build_row(name, n_entities, config, tmp_path)
        for name, (n_entities, config) in ROWS.items()
    }

    stage_names = list(rows["default"]["stage_seconds"])
    table = [
        [stage] + [
            f"{row['stage_seconds'].get(stage, 0.0):.3f}"
            for row in rows.values()
        ]
        for stage in stage_names
    ]
    table.append(
        ["total"] + [f"{row['seconds']:.3f}" for row in rows.values()]
    )
    table.append(["cached rebuild"] + [
        f"{row['cached_rebuild_seconds']:.3f}" for row in rows.values()
    ])
    record(render_table(
        ["stage"] + [
            f"{name} ({row['n_entities']:,} entities), s"
            for name, row in rows.items()
        ],
        table,
        title=f"Serial build — world seed {WORLD_SEED}, "
              "byte-identical rebuild",
    ))
    merge_bench_json("build", {"world_seed": WORLD_SEED, **rows})
