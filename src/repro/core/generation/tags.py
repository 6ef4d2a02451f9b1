"""Direct extraction: tags as hypernyms (Section II).

A tag is a word or phrase describing the entity; the majority of tags are
hypernyms, so the extractor emits them directly.  All noise handling is
deferred to the verification module, exactly as the paper does.
"""

from __future__ import annotations

from repro.encyclopedia.model import EncyclopediaPage
from repro.taxonomy.model import SOURCE_TAG, IsARelation


class TagExtractor:
    """Tag source of the generation module."""

    def __init__(self, max_tag_len: int = 8) -> None:
        self._max_tag_len = max_tag_len

    def extract_from_page(self, page: EncyclopediaPage) -> list[IsARelation]:
        relations: list[IsARelation] = []
        seen: set[str] = set()
        for tag in page.tags:
            tag = tag.strip()
            if (
                not tag
                or tag in seen
                or tag == page.title
                or len(tag) > self._max_tag_len
            ):
                continue
            seen.add(tag)
            relations.append(
                IsARelation(
                    hyponym=page.page_id,
                    hypernym=tag,
                    source=SOURCE_TAG,
                )
            )
        return relations

    def extract(self, pages) -> list[IsARelation]:
        relations: list[IsARelation] = []
        for page in pages:
            relations.extend(self.extract_from_page(page))
        return relations


class TagSource:
    """Registry adapter: the direct tag-extraction generation stage."""

    name = SOURCE_TAG
    # Per-page output depends on nothing but the page itself (no PMI, no
    # lexicon, no other pages), and every emitted relation carries the
    # page's id as its hyponym.  That is the ``page_local`` contract:
    # incremental builds replay this stage's previous candidates for
    # unchanged pages and re-extract only the diff's pages.
    page_local = True

    def generate(self, context) -> list[IsARelation]:
        return TagExtractor().extract(context.generation_pages())
