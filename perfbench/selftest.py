"""Self-test of the benchmark, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

It checks that every workload emits every metric of ``BENCHMARK.json``
with its unit, that a seed always makes the same inputs, that a wrong
answer is counted as failed, and that a traced run leaves no shim behind.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, run, workloads  # noqa: E402
from perfbench.layers import PER_LAYER_UNITS  # noqa: E402
from perfbench.tracing import Tracer, is_shimmed, layer_shims  # noqa: E402

#: A seed other than the pinned default, so tiny worlds skip the pin check.
TINY_SEED = 5
TINY_SIZES = {"REFRESH_ENTITIES": 150, "SERVE_ENTITIES": 300}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY_SIZES.items():
        monkeypatch.setattr(inputs, name, value)
        monkeypatch.setattr(workloads, name, value, raising=False)
    monkeypatch.setattr(inputs, "STREAM_REQUESTS", 2_000)


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(capsys, workload, trace):
    code = run.main([
        "--workload", workload, "--seed", str(TINY_SEED),
        "--seconds", "0.3", "--trace", str(trace),
    ])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = _benchmark()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_emits_every_metric_with_its_unit(tiny, capsys, workload):
    result = _run(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == workloads.E2E_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_emits_layers_and_removes_its_shims(tiny, capsys, workload):
    originals = {(s.owner, s.attr): s.owner.__dict__[s.attr] for s in layer_shims()}
    result = _run(capsys, workload, trace=1)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == PER_LAYER_UNITS
    assert result["metrics"]["host.ref_ms"]["value"] > 0
    for (owner, attr), original in originals.items():
        assert not is_shimmed(owner, attr)
        assert owner.__dict__[attr] is original
    spans = json.loads(
        (run.OUT / f"spans-{workload}-seed{TINY_SEED}.json").read_text(encoding="utf-8")
    )
    assert spans["spans"] and {"name", "start", "end", "parent", "run", "request"} <= set(
        spans["spans"][0]
    )


def test_shims_are_removed_when_the_traced_code_raises():
    shims = layer_shims()
    tracer = Tracer("raising")
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(shims):
            assert all(is_shimmed(s.owner, s.attr) for s in shims)
            1 / 0
    assert not any(is_shimmed(s.owner, s.attr) for s in shims)


def test_same_seed_same_inputs(tiny):
    _, dump = inputs.make_world(TINY_SEED, 150)
    _, again = inputs.make_world(TINY_SEED, 150)
    first = inputs.observed_inputs(dump, inputs.NightlyEdits(dump, TINY_SEED))
    assert first == inputs.observed_inputs(again, inputs.NightlyEdits(again, TINY_SEED))
    view = inputs.serve_inputs(TINY_SEED)[3]
    digest = inputs.stream_digest(inputs.request_stream(view, TINY_SEED))
    assert digest == inputs.stream_digest(inputs.request_stream(view, TINY_SEED))
    assert digest != inputs.stream_digest(inputs.request_stream(view, TINY_SEED + 1))


def test_nights_edit_fresh_fixed_size_sets():
    _, dump = inputs.make_world(TINY_SEED, 300)
    edits = inputs.NightlyEdits(dump, TINY_SEED)
    sets = [set(edits.edit_set(night)) for night in range(3)]
    assert all(len(s) == edits.set_size for s in sets)
    assert not (sets[0] & sets[1]) and not (sets[1] & sets[2])
    night1, night2 = edits.dump_for(1), edits.dump_for(2)
    changed = set(night1.diff(night2).changed)
    assert changed == sets[1] | sets[2]
    for page_id in sets[2]:  # text replaced, surfaces kept
        old, new = dump.get(page_id), night2.get(page_id)
        assert new.abstract != old.abstract
        assert (new.title, new.tags, new.infobox) == (old.title, old.tags, old.infobox)


def test_moved_inputs_refuse_to_measure():
    with pytest.raises(inputs.InputPinError):
        inputs.check_pins("refresh_nightly", inputs.DEFAULT_SEED, {"dump_fingerprint": "moved"})


class _OneWrongAnswer:
    """A serving front that answers the first men2ent call wrongly."""

    def __init__(self, front):
        self._front = front
        self._wrong = True

    def __getattr__(self, name):
        return getattr(self._front, name)

    def men2ent(self, mention):
        if self._wrong:
            self._wrong = False
            return ["不存在的实体"]
        return self._front.men2ent(mention)


def test_a_wrong_answer_counts_as_failed(tiny):
    from repro.serving import build_cluster

    _, _, taxonomy, view, stream = inputs.serve_inputs(TINY_SEED)
    front = _OneWrongAnswer(build_cluster(taxonomy, shards=2, replicas=2))
    loop = workloads.serve_loop(front, stream, 0.1, view)
    assert loop["failed"] == 1 and loop["requests"] > 1
