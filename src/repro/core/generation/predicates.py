"""Predicate discovery: isA relations from the infobox (Section II).

Distant supervision à la Mintz et al.: bracket-derived isA relations (the
highest-precision source, >96%) act as prior knowledge.  A predicate is a
*candidate* implicit-isA predicate when at least one of its SPO triples
aligns with a prior relation — ``<周杰伦, 职业, 歌手>`` aligns with
``isA(周杰伦, 歌手)``.  The paper finds 341 candidates this way and
manually keeps 12.  We reproduce the manual curation with a support-ratio
selection rule (high-ratio candidates are exactly the ones a human keeps);
the curated whitelist of the synthetic world is recovered automatically,
which the benchmark checks.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.encyclopedia.model import EncyclopediaDump
from repro.nlp.text import is_cjk_word
from repro.taxonomy.model import SOURCE_BRACKET, SOURCE_INFOBOX, IsARelation


@dataclass(frozen=True)
class PredicateCandidate:
    """One discovered candidate with its alignment statistics."""

    name: str
    aligned: int       # triples whose value matches a prior hypernym
    total: int         # all triples with this predicate

    @property
    def support(self) -> float:
        return self.aligned / self.total if self.total else 0.0


@dataclass
class DiscoveryResult:
    """Candidates (paper: 341) and the selected predicates (paper: 12)."""

    candidates: list[PredicateCandidate] = field(default_factory=list)
    selected: list[str] = field(default_factory=list)

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)

    def candidate(self, name: str) -> PredicateCandidate | None:
        for cand in self.candidates:
            if cand.name == name:
                return cand
        return None


class PredicateDiscovery:
    """Align infobox triples with prior isA relations to find predicates."""

    def __init__(
        self,
        min_aligned: int = 2,
        min_support: float = 0.28,
        max_selected: int = 12,
    ) -> None:
        if not 0.0 <= min_support <= 1.0:
            raise ValueError(f"min_support must be in [0,1], got {min_support}")
        self._min_aligned = min_aligned
        self._min_support = min_support
        self._max_selected = max_selected

    def discover(
        self,
        dump: EncyclopediaDump,
        prior_relations: list[IsARelation],
    ) -> DiscoveryResult:
        """Return ranked candidates plus the auto-curated selection."""
        prior: dict[str, set[str]] = defaultdict(set)
        for relation in prior_relations:
            prior[relation.hyponym].add(relation.hypernym)

        aligned: Counter[str] = Counter()
        totals: Counter[str] = Counter()
        for page in dump:
            hypernyms = prior.get(page.page_id, ())
            for triple in page.infobox:
                totals[triple.predicate] += 1
                if triple.value in hypernyms:
                    aligned[triple.predicate] += 1

        candidates = [
            PredicateCandidate(name=name, aligned=count, total=totals[name])
            for name, count in aligned.items()
        ]
        candidates.sort(key=lambda c: (-c.support, -c.aligned, c.name))
        selected = [
            c.name
            for c in candidates
            if c.aligned >= self._min_aligned and c.support >= self._min_support
        ][: self._max_selected]
        return DiscoveryResult(candidates=candidates, selected=selected)

    def extract(
        self,
        dump: EncyclopediaDump,
        predicates: list[str],
    ) -> list[IsARelation]:
        """Emit isA relations from the selected predicates' triples."""
        wanted = set(predicates)
        relations: list[IsARelation] = []
        seen: set[tuple[str, str]] = set()
        for page in dump:
            for triple in page.infobox:
                if triple.predicate not in wanted:
                    continue
                value = triple.value.strip()
                if not value or value == page.title:
                    continue
                if not is_cjk_word(value) or len(value) < 2:
                    continue
                key = (page.page_id, value)
                if key in seen:
                    continue
                seen.add(key)
                relations.append(
                    IsARelation(
                        hyponym=page.page_id,
                        hypernym=value,
                        source=SOURCE_INFOBOX,
                    )
                )
        return relations


class InfoboxSource:
    """Registry adapter: the infobox predicate-discovery generation stage.

    Discovery aligns infobox values against the bracket source's output,
    so without bracket priors the stage reports "did not run".
    """

    name = SOURCE_INFOBOX

    def generate(self, context) -> list[IsARelation] | None:
        priors = context.relations_from(SOURCE_BRACKET)
        if not priors:
            return None
        config = context.config
        discoverer = PredicateDiscovery(
            min_aligned=config.predicate_min_aligned,
            min_support=config.predicate_min_support,
            max_selected=config.predicate_max_selected,
        )
        context.discovery = discoverer.discover(context.dump, priors)
        return discoverer.extract(context.dump, context.discovery.selected)
