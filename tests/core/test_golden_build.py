"""Golden content hashes: the build output must not move.

Pins ``Taxonomy.content_hash()`` of a small fixed world built with the
symbolic sources only and with the default config (neural abstract
source on).  A change that alters any relation, entity, alias or the
save order of a build shows up here as a hash mismatch.  The default
config runs float training, so its hash also assumes the numpy build
the pin was taken with; if it alone moves on another platform, compare
the saved taxonomies before re-pinning.
"""

import pytest

from repro.core.pipeline import CNProbaseBuilder, PipelineConfig, ResourceCache
from repro.encyclopedia import SyntheticWorld

WORLD_SEED = 5
N_ENTITIES = 150

GOLDEN = {
    "symbolic":
        "0ac2521ee21b14de06d9d5e6e172c804934c864264d861ae1c8099228d203b67",
    "default":
        "486a9d5a40c5654a2b6f4492f98e91f1dfd890f7a864fb062b80772e063da801",
}


@pytest.fixture(scope="module")
def dump():
    world = SyntheticWorld.generate(seed=WORLD_SEED, n_entities=N_ENTITIES)
    return world.dump()


@pytest.mark.parametrize("name,config", [
    ("symbolic", PipelineConfig(enable_abstract=False)),
    ("default", PipelineConfig()),
], ids=["symbolic", "default"])
def test_build_content_hash_is_pinned(dump, name, config):
    builder = CNProbaseBuilder(config, resource_cache=ResourceCache())
    result = builder.build(dump)
    if name == "default":
        assert result.stage_trace.get("abstract").ran
    assert result.taxonomy.content_hash() == GOLDEN[name]
