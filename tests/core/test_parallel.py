"""Tests for the build-context resource cache and the dump fingerprint
that keys it."""

import pytest

from repro.core.pipeline import (
    CNProbaseBuilder,
    PipelineConfig,
    ResourceCache,
)
from repro.encyclopedia import SyntheticWorld
from repro.errors import PipelineError
from repro.nlp.lexicon import Lexicon


def fast_config(**kwargs) -> PipelineConfig:
    kwargs.setdefault("enable_abstract", False)
    return PipelineConfig(**kwargs)


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld.generate(seed=17, n_entities=250)


class TestResourceCache:
    def test_rebuild_hits_cache(self, world):
        cache = ResourceCache()
        builder = CNProbaseBuilder(fast_config(), resource_cache=cache)
        first = builder.build(world.dump())
        second = builder.build(world.dump())
        assert not first.stage_trace.get("resources").cache_hit
        assert second.stage_trace.get("resources").cache_hit
        assert cache.hits == 1 and cache.misses == 1
        assert [r.key for r in first.taxonomy.relations()] == \
            [r.key for r in second.taxonomy.relations()]

    def test_cache_shared_across_builders(self, world):
        cache = ResourceCache()
        CNProbaseBuilder(fast_config(), resource_cache=cache).build(world.dump())
        other = CNProbaseBuilder(fast_config(), resource_cache=cache)
        assert other.build(world.dump()).stage_trace.get("resources").cache_hit

    def test_changed_dump_misses(self, world):
        cache = ResourceCache()
        builder = CNProbaseBuilder(fast_config(), resource_cache=cache)
        builder.build(world.dump())
        other_dump = SyntheticWorld.generate(seed=23, n_entities=120).dump()
        result = builder.build(other_dump)
        assert not result.stage_trace.get("resources").cache_hit

    def test_resource_config_keys_cache(self, world):
        cache = ResourceCache()
        CNProbaseBuilder(
            fast_config(), resource_cache=cache
        ).build(world.dump())
        result = CNProbaseBuilder(
            fast_config(harvest_lexicon=False), resource_cache=cache
        ).build(world.dump())
        assert not result.stage_trace.get("resources").cache_hit

    def test_opt_out_flag(self, world):
        cache = ResourceCache()
        builder = CNProbaseBuilder(
            fast_config(resource_cache=False), resource_cache=cache
        )
        builder.build(world.dump())
        second = builder.build(world.dump())
        assert not second.stage_trace.get("resources").cache_hit
        assert len(cache) == 0

    def test_external_lexicon_not_cached(self, world):
        cache = ResourceCache()
        builder = CNProbaseBuilder(
            fast_config(), lexicon=Lexicon.base(), resource_cache=cache
        )
        builder.build(world.dump())
        assert len(cache) == 0

    def test_bounded_lru_evicts_oldest(self):
        cache = ResourceCache(maxsize=2)
        cache.put(("a",), "A")
        cache.put(("b",), "B")
        assert cache.get(("a",)) == "A"  # refresh a
        cache.put(("c",), "C")  # evicts b
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == "A" and cache.get(("c",)) == "C"

    def test_invalid_maxsize(self):
        with pytest.raises(PipelineError):
            ResourceCache(maxsize=0)


class TestDumpFingerprint:
    def test_stable_and_order_sensitive(self, world):
        dump = world.dump()
        assert dump.fingerprint() == dump.fingerprint()
        assert dump.fingerprint() == world.dump().fingerprint()

    def test_changes_on_add(self, world):
        from repro.encyclopedia.model import EncyclopediaPage

        dump = world.dump()
        before = dump.fingerprint()
        dump.add(EncyclopediaPage(page_id="新页#0", title="新页"))
        assert dump.fingerprint() != before
