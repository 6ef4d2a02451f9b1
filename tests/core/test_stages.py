"""Tests for the pluggable stage architecture (repro.core.stages)."""

import pytest

from repro.core.pipeline import (
    CNProbaseBuilder,
    PipelineConfig,
    build_cn_probase,
)
from repro.core.stages import (
    GenerationSource,
    StageRegistry,
    Verifier,
    default_registry,
)
from repro.core.verification.incompatible import FilterDecision
from repro.encyclopedia import SyntheticWorld
from repro.errors import PipelineError
from repro.taxonomy.model import IsARelation

DEMO_CONCEPT = "演示概念"


def fast_config() -> PipelineConfig:
    return PipelineConfig(enable_abstract=False)


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld.generate(seed=11, n_entities=250)


class DemoSource:
    """Third-party generation stage: first pages isA 演示概念."""

    name = "demo"

    def generate(self, context):
        pages = list(context.dump)[:3]
        return [
            IsARelation(page.page_id, DEMO_CONCEPT, source="demo")
            for page in pages
        ]


class DemoVerifier:
    """Third-party verifier: vetoes every demo-concept candidate."""

    name = "demo-veto"

    def verify(self, context, relations):
        removed = [r for r in relations if r.hypernym == DEMO_CONCEPT]
        kept = [r for r in relations if r.hypernym != DEMO_CONCEPT]
        return FilterDecision(kept=kept, removed=removed)


class TestProtocols:
    def test_builtin_and_custom_stages_satisfy_protocols(self):
        registry = default_registry()
        for entry in registry.sources():
            assert isinstance(entry.factory(), GenerationSource)
        for entry in registry.verifiers():
            assert isinstance(entry.factory(), Verifier)
        assert isinstance(DemoSource(), GenerationSource)
        assert isinstance(DemoVerifier(), Verifier)


class TestRegistry:
    def test_default_order_matches_figure2(self):
        registry = default_registry()
        assert [e.name for e in registry.sources()] == [
            "bracket", "abstract", "infobox", "tag",
        ]
        assert [e.name for e in registry.verifiers()] == [
            "syntax", "ner", "incompatible",
        ]

    def test_registration_order_preserved(self):
        registry = StageRegistry()
        registry.register_source("a", DemoSource)
        registry.register_source("b", DemoSource)
        registry.register_source("front", DemoSource, index=0)
        assert [e.name for e in registry.sources()] == ["front", "a", "b"]

    def test_duplicate_name_rejected(self):
        registry = default_registry()
        with pytest.raises(PipelineError, match="already registered"):
            registry.register_source("bracket", DemoSource)
        with pytest.raises(PipelineError, match="already registered"):
            registry.register_verifier("bracket", DemoVerifier)

    def test_unknown_stage_rejected(self):
        registry = default_registry()
        with pytest.raises(PipelineError, match="unknown stage"):
            registry.disable("bogus")

    def test_origin_recorded(self):
        registry = default_registry()
        assert registry.get("bracket").origin == "builtin"
        entry = registry.register_source("demo3p", DemoSource)
        assert entry.origin == __name__

    def test_default_registries_are_independent(self):
        one, two = default_registry(), default_registry()
        one.disable("ner")
        assert not one.is_enabled("ner")
        assert two.is_enabled("ner")

    def test_copy_is_independent(self):
        registry = default_registry()
        duplicate = registry.copy()
        duplicate.disable("tag")
        assert registry.is_enabled("tag")
        assert [e.name for e in duplicate.entries()] == [
            e.name for e in registry.entries()
        ]


class TestCustomStages:
    def test_custom_source_flows_into_taxonomy(self, world):
        registry = default_registry()
        registry.register_source("demo", DemoSource)
        result = build_cn_probase(
            world.dump(), fast_config(), registry=registry
        )
        assert len(result.per_source_relations["demo"]) == 3
        assert result.taxonomy.get_entities(DEMO_CONCEPT)
        record = result.stage_trace.get("demo")
        assert record is not None and record.ran and record.count == 3

    def test_custom_verifier_vetoes(self, world):
        registry = default_registry()
        registry.register_source("demo", DemoSource)
        registry.register_verifier("demo-veto", DemoVerifier)
        result = build_cn_probase(
            world.dump(), fast_config(), registry=registry
        )
        assert len(result.removed_by["demo-veto"]) == 3
        assert not result.taxonomy.get_entities(DEMO_CONCEPT)
        assert result.stage_trace.get("demo-veto").count == 3

    def test_registry_disable_of_custom_stage(self, world):
        registry = default_registry()
        registry.register_source("demo", DemoSource)
        registry.disable("demo")
        result = build_cn_probase(
            world.dump(), fast_config(), registry=registry
        )
        assert "demo" not in result.per_source_relations
        assert result.stage_trace.get("demo").ran is False


class TestSourceOrder:
    """Sources run in registration order, so a source sees the output
    of every source registered before it."""

    def test_sources_merge_in_registration_order(self, world):
        result = build_cn_probase(world.dump(), fast_config())
        assert list(result.per_source_relations) == [
            "bracket", "infobox", "tag",
        ]

    def test_later_source_sees_earlier_output(self, world):
        class TagReader:
            name = "tag-reader"

            def generate(self, context):
                if not context.relations_from("tag"):
                    return []
                return [IsARelation(
                    "阅读概念", "人物", source="tag-reader",
                    hyponym_kind="concept",
                )]

        registry = default_registry()
        registry.register_source("tag-reader", TagReader)
        result = build_cn_probase(
            world.dump(), fast_config(), registry=registry
        )
        assert result.stage_trace.get("tag-reader").count == 1


class TestConfigRegistryEquivalence:
    @pytest.mark.parametrize("stage,flag", [
        ("infobox", "enable_infobox"),
        ("tag", "enable_tag"),
        ("ner", "enable_ner"),
        ("syntax", "enable_syntax"),
    ])
    def test_flag_equals_registry_disable(self, world, stage, flag):
        by_flag = build_cn_probase(
            world.dump(), PipelineConfig(enable_abstract=False, **{flag: False})
        )
        registry = default_registry()
        registry.disable(stage)
        by_registry = build_cn_probase(
            world.dump(), fast_config(), registry=registry
        )
        flag_keys = {r.key for r in by_flag.taxonomy.relations()}
        registry_keys = {r.key for r in by_registry.taxonomy.relations()}
        assert flag_keys == registry_keys
        assert set(by_flag.per_source_relations) == set(
            by_registry.per_source_relations
        )


class TestStageTrace:
    @pytest.fixture(scope="class")
    def result(self, world):
        return build_cn_probase(world.dump(), fast_config())

    def test_all_enabled_stages_traced(self, result):
        for name in ("bracket", "infobox", "tag",
                     "syntax", "ner", "incompatible"):
            record = result.stage_trace.get(name)
            assert record is not None and record.ran, name
            assert record.seconds >= 0.0

    def test_disabled_stage_traced_as_skipped(self, result):
        record = result.stage_trace.get("abstract")
        assert record is not None and record.ran is False

    def test_counts_match_result(self, result):
        for name, relations in result.per_source_relations.items():
            assert result.stage_trace.get(name).count == len(relations)
        for name, removed in result.removed_by.items():
            assert result.stage_trace.get(name).count == len(removed)

    def test_driver_steps_traced(self, result):
        for name in ("resources", "merge", "assemble"):
            record = result.stage_trace.get(name)
            assert record is not None and record.kind == "driver"

    def test_total_covers_stages(self, result):
        trace = result.stage_trace
        assert trace.total_seconds > 0.0
        assert trace.stage_seconds <= trace.total_seconds + 1e-6

    def test_builder_registry_is_per_instance(self, world):
        builder = CNProbaseBuilder(fast_config())
        builder.registry.disable("tag")
        result = builder.build(world.dump())
        assert "tag" not in result.per_source_relations
        other = CNProbaseBuilder(fast_config())
        assert other.registry.is_enabled("tag")
