"""Shared ranking domain types and canonical sorting.

Candidates carry a predicted mean score ``mu``, an optional predictive
standard deviation ``sigma``, an optional neutrality score (1 = fully
neutral document), and a two-way group label. ``original_rank`` is the
1-based position of a candidate when its query is sorted by ``mu``
descending; it is assigned once at ingestion and then used as the
deterministic tie-break for every sort downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Sequence


class GroupLabel(Enum):
    PROTECTED = "protected"
    NON_PROTECTED = "non_protected"


def check_neutrality(value: float) -> float:
    """Validate a neutrality score; 1 means fully neutral, 0 fully biased."""
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"neutrality score must lie in [0, 1], got {value!r}")
    return value


def check_protected_threshold(value: float) -> float:
    if not (math.isfinite(value) and 0.0 < value <= 1.0):
        raise ValueError(f"protected threshold must lie in (0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class ScoredCandidate:
    """One query-document pair.

    ``original_rank`` 0 marks a candidate whose rank has not been assigned
    yet; :func:`build_query` replaces it with the canonical 1-based rank.
    """

    doc_id: str
    mu: float
    sigma: float | None = None
    neutrality: float | None = None
    group: GroupLabel | None = None
    original_rank: int = 0

    def __post_init__(self) -> None:
        # normalize numpy scalars to builtin floats so repr-based file
        # round trips stay stable
        object.__setattr__(self, "mu", float(self.mu))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", float(self.sigma))
        if self.neutrality is not None:
            object.__setattr__(self, "neutrality", float(self.neutrality))
        object.__setattr__(self, "original_rank", int(self.original_rank))
        if not math.isfinite(self.mu):
            raise ValueError(f"candidate {self.doc_id!r}: mu must be finite, got {self.mu!r}")
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(
                f"candidate {self.doc_id!r}: sigma must be finite and >= 0, got {self.sigma!r}"
            )
        if self.neutrality is not None:
            try:
                check_neutrality(self.neutrality)
            except ValueError as exc:
                raise ValueError(f"candidate {self.doc_id!r}: {exc}") from None
        if self.original_rank < 0:
            raise ValueError(f"candidate {self.doc_id!r}: original_rank must be >= 0")


@dataclass(frozen=True)
class QueryCandidates:
    """A query id plus its candidate set; the unit of all per-query work.

    Neutrality lookups are built on first use and kept with the object;
    that memo takes no part in equality, hashing or repr."""

    query_id: str
    candidates: tuple[ScoredCandidate, ...]
    _neutrality: tuple[dict[str, float], tuple[float, ...]] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError(f"query {self.query_id!r}: candidate set is empty")
        doc_ids = [c.doc_id for c in self.candidates]
        if len(set(doc_ids)) != len(doc_ids):
            dupes = sorted({d for d in doc_ids if doc_ids.count(d) > 1})
            raise ValueError(f"query {self.query_id!r}: duplicate doc ids {dupes}")
        ranks = sorted(c.original_rank for c in self.candidates)
        if ranks != list(range(1, len(self.candidates) + 1)):
            raise ValueError(
                f"query {self.query_id!r}: original ranks must be a permutation of "
                f"1..{len(self.candidates)}, got {ranks}"
            )

    def __len__(self) -> int:
        return len(self.candidates)

    def by_original_rank(self) -> tuple[ScoredCandidate, ...]:
        return tuple(sorted(self.candidates, key=lambda c: c.original_rank))

    def candidate(self, doc_id: str) -> ScoredCandidate:
        for c in self.candidates:
            if c.doc_id == doc_id:
                return c
        raise KeyError(f"query {self.query_id!r} has no candidate {doc_id!r}")

    def _neutrality_memo(self) -> tuple[dict[str, float], tuple[float, ...]]:
        if self._neutrality is not None:
            return self._neutrality
        out: dict[str, float] = {}
        for c in self.candidates:
            if c.neutrality is None:
                raise ValueError(
                    f"query {self.query_id!r}: candidate {c.doc_id!r} has no neutrality score"
                )
            out[c.doc_id] = c.neutrality
        object.__setattr__(self, "_neutrality", (out, tuple(sorted(out.values(), reverse=True))))
        return self._neutrality

    def neutrality_by_doc(self) -> Mapping[str, float]:
        """Read-only doc id -> neutrality score mapping."""
        return MappingProxyType(self._neutrality_memo()[0])

    def neutrality_descending(self) -> tuple[float, ...]:
        """Every candidate's neutrality score, largest first."""
        return self._neutrality_memo()[1]


@dataclass(frozen=True)
class Ranking:
    """An ordered result list: (doc_id, effective_score) sorted by score
    descending, score ties resolved by ascending original rank."""

    query_id: str
    entries: tuple[tuple[str, float], ...]

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(doc_id for doc_id, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def build_query(query_id: str, candidates: Sequence[ScoredCandidate]) -> QueryCandidates:
    """Assemble a query, assigning canonical original ranks.

    Ranks follow ``mu`` descending; exact ``mu`` ties are broken by
    lexicographic doc id so that the reference ordering is reproducible
    regardless of input order. Candidates are stored in rank order.
    """
    ordered = sorted(candidates, key=lambda c: (-c.mu, c.doc_id))
    ranked = tuple(replace(c, original_rank=i) for i, c in enumerate(ordered, start=1))
    return QueryCandidates(query_id=query_id, candidates=ranked)


def assign_groups(query: QueryCandidates, protected_threshold: float = 1.0) -> QueryCandidates:
    """Label candidates: protected iff neutrality >= threshold (default 1.0)."""
    check_protected_threshold(protected_threshold)
    labelled = []
    for c in query.candidates:
        if c.neutrality is None:
            raise ValueError(
                f"query {query.query_id!r}: candidate {c.doc_id!r} has no neutrality score"
            )
        group = (
            GroupLabel.PROTECTED
            if c.neutrality >= protected_threshold
            else GroupLabel.NON_PROTECTED
        )
        labelled.append(replace(c, group=group))
    return QueryCandidates(query_id=query.query_id, candidates=tuple(labelled))


def rank_by_score(query: QueryCandidates, scores: Mapping[str, float]) -> Ranking:
    """Sort a query's candidates by an effective score map, descending.

    Ties fall back to ascending original rank, so re-ranking the same
    input with the same scores is reproducible and stable.
    """
    for c in query.candidates:
        if c.doc_id not in scores:
            raise ValueError(f"query {query.query_id!r}: no score for doc {c.doc_id!r}")
        if not math.isfinite(scores[c.doc_id]):
            raise ValueError(
                f"query {query.query_id!r}: non-finite score for doc {c.doc_id!r}"
            )
    ordered = sorted(query.candidates, key=lambda c: (-scores[c.doc_id], c.original_rank))
    return Ranking(
        query_id=query.query_id,
        entries=tuple((c.doc_id, float(scores[c.doc_id])) for c in ordered),
    )


Corpus = Sequence[QueryCandidates]
