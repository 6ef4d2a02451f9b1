"""Span recording and the shims a traced run wraps around layer entry points.

A traced run installs :class:`Shim` wrappers on public entry points of
the program's layers for the duration of a ``with tracer.installed(...)``
block and restores the original attributes when the block ends — the
program's files are never touched.  Each wrapper counts calls, adds up
wall time and (unless it is a hot, count-only shim) records a span.

Spans are kept in memory and written to one JSON file when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Callable

from repro.core.generation.neural_gen import NeuralGenerator
from repro.core.pipeline import CNProbaseBuilder
from repro.neural.autograd import Tensor
from repro.neural.model import CopyNetSeq2Seq
from repro.nlp.segmentation import Segmenter
from repro.obs import TelemetryHub
from repro.serving.router import ReplicatedRouter
from repro.serving.sharding import ShardedSnapshotStore
from repro.taxonomy.delta import TaxonomyDelta
from repro.taxonomy.service import ServiceMetrics
from repro.taxonomy.store import Taxonomy

#: Marker attribute set on every installed wrapper (the self-test checks
#: that none is left behind).
SHIM_MARKER = "__perfbench_shim__"
#: Spans kept per run; later spans are counted but not stored.
MAX_SPANS = 20_000


@dataclass(frozen=True)
class Shim:
    """Wrap ``owner.attr``; ``name`` is the layer metric key it feeds."""

    owner: type
    attr: str
    name: str
    span: bool = True  # False: count (and time) only, for hot entry points
    timed: bool = True
    #: ``(args, result) -> {counter: n}``: sizes to add up per call
    items: Callable[[tuple, object], dict[str, int]] | None = None


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.calls: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.spans: list[dict] = []
        self.dropped_spans = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._origin = perf_counter()
        self.request_id: str | None = None
        self._installed: list[tuple[type, str, object]] = []

    # -- spans -----------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        started = perf_counter()
        try:
            yield
        finally:
            ended = perf_counter()
            self._stack.pop()
            if len(self.spans) < MAX_SPANS:
                self.spans.append({
                    "id": span_id,
                    "name": name,
                    "start": started - self._origin,
                    "end": ended - self._origin,
                    "parent": parent,
                    "run": self.run_id,
                    "request": self.request_id,
                    **attrs,
                })
            else:
                self.dropped_spans += 1

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run": self.run_id,
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
        }
        path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")

    # -- shims -----------------------------------------------------------------

    def _wrapper(self, shim: Shim, function):
        calls, seconds = self.calls, self.seconds
        name = shim.name
        if not shim.timed:
            @wraps(function)
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return counted
        if not shim.span:
            @wraps(function)
            def timed(*args, **kwargs):
                calls[name] += 1
                started = perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    seconds[name] += perf_counter() - started
            return timed

        items = shim.items

        @wraps(function)
        def spanned(*args, **kwargs):
            calls[name] += 1
            started = perf_counter()
            try:
                with self.span(name):
                    result = function(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - started
            if items is not None:
                calls.update(items(args, result))
            return result
        return spanned

    def install(self, shims) -> None:
        for shim in shims:
            original = shim.owner.__dict__[shim.attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrapper(shim, original.__func__))
                setattr(wrapper.__func__, SHIM_MARKER, True)
            elif isinstance(original, staticmethod):
                wrapper = staticmethod(self._wrapper(shim, original.__func__))
                setattr(wrapper.__func__, SHIM_MARKER, True)
            else:
                wrapper = self._wrapper(shim, original)
                setattr(wrapper, SHIM_MARKER, True)
            self._installed.append((shim.owner, shim.attr, original))
            setattr(shim.owner, shim.attr, wrapper)

    def remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, shims):
        self.install(shims)
        try:
            yield self
        finally:
            self.remove()


def is_shimmed(owner: type, attr: str) -> bool:
    value = owner.__dict__.get(attr)
    function = getattr(value, "__func__", value)
    return bool(getattr(function, SHIM_MARKER, False))


def layer_shims() -> list[Shim]:
    """The entry points a traced run wraps, one list for every workload."""
    return [
        Shim(CNProbaseBuilder, "build", "core.build"),
        Shim(CNProbaseBuilder, "build_incremental", "core.build_incremental"),
        Shim(NeuralGenerator, "build_dataset", "neural.dataset",
             items=lambda args, result: {"neural.train_examples": len(result)}),
        Shim(NeuralGenerator, "train", "neural.train"),
        Shim(NeuralGenerator, "extract", "neural.decode",
             items=lambda args, result: {
                 "neural.decode_pages": len(args[1]),
                 "neural.relations_emitted": len(result),
             }),
        Shim(Tensor, "__init__", "neural.tensors_created", span=False, timed=False),
        Shim(CopyNetSeq2Seq, "decode_step", "neural.decode_steps", span=False, timed=False),
        Shim(Segmenter, "segment", "nlp.segment", span=False),
        Shim(TaxonomyDelta, "compute", "taxonomy.delta",
             items=lambda args, result: {"taxonomy.delta_records": result.n_records}),
        Shim(Taxonomy, "content_hash", "taxonomy.hash"),
        Shim(ShardedSnapshotStore, "publish_delta", "serving.store_publish"),
        Shim(ReplicatedRouter, "publish_delta", "serving.router_publish"),
        Shim(ServiceMetrics, "observe", "obs.observe", span=False, timed=False),
        Shim(TelemetryHub, "record_span", "obs.record_span", span=False, timed=False),
    ]
