"""Every input the benchmark feeds the program, derived from the run's seed.

The Table-II mix, the zipf key sampler, the batch mix and the nightly edit
generator live here as constants and small seeded functions.  They do not
use ``repro.workloads``: that package is a layer a later change may
rewrite, and the benchmark's inputs must not move with it.

``pins.json`` records, for :data:`DEFAULT_SEED`, the fingerprint of each
workload's dumps and the digest of its request stream.  A run on the
default seed refuses to measure when either differs, so a change to
``SyntheticWorld`` shows up as an input change, never as a perf change.
After a deliberate input change, re-pin from the root of a checkout::

    PYTHONPATH=src python3 -m perfbench.inputs > perfbench/pins.json
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path
from random import Random

from repro.core.pipeline import CNProbaseBuilder, PipelineConfig, ResourceCache
from repro.encyclopedia import EncyclopediaDump, SyntheticWorld
from repro.taxonomy import Taxonomy, TaxonomyDelta
from repro.taxonomy.model import HYPONYM_ENTITY

DEFAULT_SEED = 1
PINS_PATH = Path(__file__).with_name("pins.json")

#: World sizes (entities requested from ``SyntheticWorld.generate``).
REFRESH_ENTITIES = 600
SERVE_ENTITIES = 6000
#: refresh_nightly and serve_inproc each run on one fixed world and take
#: their nightly edits, request draws and deltas from the run's seed: at
#: 600 entities the neural training set of a seeded world varies by ~10%
#: from seed to seed, and with it the cost of every night, and the key pools
#: (and so the answer sizes) of a seeded serving world move its cost per
#: request; either would hide a change to the measured path itself.
REFRESH_WORLD_SEED = DEFAULT_SEED
SERVE_WORLD_SEED = DEFAULT_SEED

#: Table II of the paper: share of API calls over six months.
TABLE_II_MIX = (("men2ent", 0.52), ("getEntity", 0.31), ("getConcept", 0.17))
#: Key popularity: the key at rank r has weight r**-s.
ZIPF_EXPONENT = 1.1
#: Share of requests that are batches, and the batch size range (inclusive).
BATCH_SHARE = 0.20
BATCH_SIZES = (8, 32)
#: Share of keys that are not in the taxonomy.
UNKNOWN_SHARE = 0.03
UNKNOWN_PREFIX = "未收录词"
#: Requests in one generated block; a run cycles through its block.
STREAM_REQUESTS = 40_000

#: Nightly edit: this share of the dump's pages, a fresh set of pages with an
#: abstract each night, get their abstract replaced (titles, tags and infobox
#: untouched, so the harvested lexicon stays stable).
EDIT_SHARE = 0.015
EDIT_TEMPLATES = (
    "{title}是一种{tag}，本条目资料已于近期修订。",
    "{title}，{tag}，相关内容依据新版资料改写。",
    "{title}属于{tag}，条目正文经编辑重新整理。",
)

#: Serving delta chain: each step withdraws this share of the entity
#: relations of the served taxonomy, the next step restores them.
DELTA_SHARE = 0.005
DELTA_VARIANTS = 2

#: API wire name → (single method, batch method) on every serving front.
API_METHODS = {
    "men2ent": ("men2ent", "men2ent_batch"),
    "getConcept": ("get_concepts", "get_concepts_batch"),
    "getEntity": ("get_entities", "get_entities_batch"),
}


def make_world(seed: int, n_entities: int) -> tuple[SyntheticWorld, EncyclopediaDump]:
    world = SyntheticWorld.generate(seed=seed, n_entities=n_entities)
    return world, world.dump()


def serve_inputs(seed: int):
    """The served taxonomy — a symbolic-source build (abstract source
    off) of the fixed ~6,000-entity world — its frozen view and the
    seed's request stream."""
    world, dump = make_world(SERVE_WORLD_SEED, SERVE_ENTITIES)
    builder = CNProbaseBuilder(
        PipelineConfig(enable_abstract=False), resource_cache=ResourceCache()
    )
    taxonomy = builder.build(dump).taxonomy
    view = taxonomy.freeze()
    return world, dump, taxonomy, view, request_stream(view, seed)


# -- nightly edits ----------------------------------------------------------------


class NightlyEdits:
    """Night *k*'s dump: the base dump with edit set *k* applied.

    Edit sets are disjoint slices of one seeded permutation of the pages
    that have an abstract, all of the same size, and each edit replaces
    the base text (it never appends to an earlier night's edit).  Night
    *k* therefore differs from night *k - 1* in exactly two fixed-size
    sets (set *k - 1* reverts, set *k* is edited), so the work of a night
    does not depend on *k*.
    """

    def __init__(self, base: EncyclopediaDump, seed: int) -> None:
        self.base = base
        self._seed = seed
        candidates = [page.page_id for page in base if page.has_abstract]
        Random(f"perfbench-edits:{seed}").shuffle(candidates)
        self.set_size = max(1, round(EDIT_SHARE * len(base)))
        self._order = candidates

    @property
    def max_nights(self) -> int:
        return len(self._order) // self.set_size

    def edit_set(self, night: int) -> tuple[str, ...]:
        if not 0 <= night < self.max_nights:
            raise IndexError(f"night {night} out of range")
        start = night * self.set_size
        return tuple(self._order[start:start + self.set_size])

    def dump_for(self, night: int) -> EncyclopediaDump:
        edited = set(self.edit_set(night))
        rng = Random(f"perfbench-edit-text:{self._seed}:{night}")
        pages = []
        for page in self.base:
            if page.page_id in edited:
                template = EDIT_TEMPLATES[rng.randrange(len(EDIT_TEMPLATES))]
                tag = page.tags[0] if page.tags else (page.bracket or "条目")
                page = replace(
                    page, abstract=template.format(title=page.title, tag=tag)
                )
            pages.append(page)
        return EncyclopediaDump(pages)


# -- the Table-II request stream ----------------------------------------------------


@dataclass(frozen=True)
class Request:
    api: str
    keys: tuple[str, ...]
    batch: bool


class ZipfSampler:
    """Draws keys of one pool with zipf popularity over a fixed ranking.

    The ranking is a shuffle of the pool from a fixed seed, not the run's:
    popularity is assumed independent of answer size, and every run ranks
    the same keys hottest, so the cost at each rank does not move with the
    seed.  The run's seed decides only which ranks are drawn.
    """

    def __init__(self, keys, ranking: str) -> None:
        self._keys = sorted(keys)
        Random(f"perfbench-popularity:{ranking}").shuffle(self._keys)
        self._cumulative = list(
            accumulate(rank ** -ZIPF_EXPONENT for rank in range(1, len(self._keys) + 1))
        )

    def draw(self, rng: Random) -> str:
        point = rng.random() * self._cumulative[-1]
        return self._keys[bisect.bisect_left(self._cumulative, point)]


def request_stream(view, seed: int, n_requests: int | None = None) -> list[Request]:
    """The seeded Table-II stream over a frozen taxonomy's key pools.

    ~80% single calls and ~20% batches of 8–32 keys; every API draws its
    keys with zipf popularity from its own pool (mentions, entity ids,
    concepts) and :data:`UNKNOWN_SHARE` of keys are unknown strings.
    """
    mentions, entity_hypernyms, concept_entities = view.as_indexes()
    pools = {
        "men2ent": mentions,
        "getConcept": entity_hypernyms,
        "getEntity": concept_entities,
    }
    rng = Random(f"perfbench-stream:{seed}")
    samplers = {api: ZipfSampler(index, api) for api, index in pools.items()}
    apis = [api for api, _ in TABLE_II_MIX]
    weights = [share for _, share in TABLE_II_MIX]
    known = set().union(*pools.values())

    def key_for(api: str) -> str:
        if rng.random() < UNKNOWN_SHARE:
            while True:
                key = f"{UNKNOWN_PREFIX}{rng.randrange(10**7)}"
                if key not in known:
                    return key
        return samplers[api].draw(rng)

    stream = []
    for _ in range(STREAM_REQUESTS if n_requests is None else n_requests):
        api = rng.choices(apis, weights)[0]
        if rng.random() < BATCH_SHARE:
            size = rng.randint(*BATCH_SIZES)
            stream.append(Request(api, tuple(key_for(api) for _ in range(size)), True))
        else:
            stream.append(Request(api, (key_for(api),), False))
    return stream


def stream_digest(stream: list[Request]) -> str:
    digest = hashlib.sha256()
    for request in stream:
        kind = "B" if request.batch else "S"
        digest.update(f"{request.api}\t{kind}\t".encode("utf-8"))
        digest.update("\x1f".join(request.keys).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# -- the serving delta chain -------------------------------------------------------------


@dataclass(frozen=True)
class ChainStep:
    delta: TaxonomyDelta
    view: object  # ReadOptimizedTaxonomy of the version the step publishes


def delta_chain(taxonomy: Taxonomy, seed: int) -> list[ChainStep]:
    """A cyclic chain of publishes: base → variant 1 → base → variant 2 → …

    Variant *i* is the base without a seeded :data:`DELTA_SHARE` of its
    entity relations.  The cycle ends on the base, so a run publishes it
    round and round for as long as it serves.
    """
    rng = Random(f"perfbench-deltas:{seed}")
    entity_relations = sorted(
        (r for r in taxonomy.relations() if r.hyponym_kind == HYPONYM_ENTITY),
        key=lambda r: r.key,
    )
    n_drop = max(1, round(DELTA_SHARE * len(entity_relations)))
    base_view = taxonomy.freeze()
    steps = []
    for _ in range(DELTA_VARIANTS):
        dropped = {r.key for r in rng.sample(entity_relations, n_drop)}
        variant = Taxonomy(name=taxonomy.name)
        for entity in taxonomy.entities():
            variant.add_entity(entity)
        variant.add_relations(
            r for r in taxonomy.relations() if r.key not in dropped
        )
        steps.append(ChainStep(TaxonomyDelta.compute(taxonomy, variant), variant.freeze()))
        steps.append(ChainStep(TaxonomyDelta.compute(variant, taxonomy), base_view))
    return steps


# -- pins ---------------------------------------------------------------------------------


def observed_inputs(dump, edits=None, stream=None) -> dict[str, str]:
    """What ``pins.json`` pins for one workload."""
    observed = {"dump_fingerprint": dump.fingerprint()}
    if edits is not None:
        observed["night1_fingerprint"] = edits.dump_for(1).fingerprint()
    if stream is not None:
        observed["stream_digest"] = stream_digest(stream)
    return observed


def default_seed_inputs() -> dict[str, dict[str, str]]:
    """Every workload's observed inputs for :data:`DEFAULT_SEED`."""
    seed = DEFAULT_SEED
    _, refresh_dump = make_world(REFRESH_WORLD_SEED, REFRESH_ENTITIES)
    _, serve_dump, _, _, stream = serve_inputs(seed)
    return {
        "refresh_nightly": observed_inputs(
            refresh_dump, NightlyEdits(refresh_dump, seed)),
        "serve_inproc": observed_inputs(serve_dump, stream=stream),
    }


class InputPinError(Exception):
    """The default seed's inputs differ from the ones pinned in pins.json."""


def check_pins(workload: str, seed: int, observed: dict[str, str]) -> None:
    """Refuse to measure when the default seed's inputs moved."""
    if seed != DEFAULT_SEED:
        return
    pinned = json.loads(PINS_PATH.read_text(encoding="utf-8")).get(workload, {})
    moved = {
        name: (pinned.get(name), value)
        for name, value in observed.items()
        if pinned.get(name) != value
    }
    if moved:
        lines = [f"{name}: pinned {old}, now {new}" for name, (old, new) in moved.items()]
        raise InputPinError(
            f"inputs of {workload} for seed {seed} changed; a change to the "
            "input generators or SyntheticWorld must re-pin pins.json:\n  "
            + "\n  ".join(lines)
        )


if __name__ == "__main__":
    print(json.dumps(default_seed_inputs(), indent=2, sort_keys=True))
