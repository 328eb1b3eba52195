"""Shared ranking domain types and canonical sorting.

A query is columnar. :class:`QueryCandidates` holds the doc ids as a tuple
and, aligned with them, read-only float64 columns ``mu`` (predicted mean
score), ``sigma`` (predictive standard deviation) and ``neutrality`` (1 =
fully neutral document), plus a bool ``protected`` column for the two-way
group label. ``sigma``, ``neutrality`` and ``protected`` are None until
attached. The columns are stored in original-rank order: ``mu``
descending, exact ties broken by doc id in ``str`` order, so index i is
original rank i + 1, the deterministic tie-break of every sort downstream.
The constructor validates every column once, vectorised.
:class:`ScoredCandidate` is the row form that :func:`build_query` accepts.

A :class:`Ranking` is an order over its query's columns: ``order[i]`` is
the column index of the document at rank i + 1 and ``scores[i]`` its
effective score, so metrics read the query's columns at ``order`` instead
of looking documents up by id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

_COLUMN_NAMES = {
    "sigma": "sigma values",
    "neutrality": "neutrality scores",
    "protected": "group labels",
}


def check_protected_threshold(value: float) -> float:
    if not (math.isfinite(value) and 0.0 < value <= 1.0):
        raise ValueError(f"protected threshold must lie in (0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class ScoredCandidate:
    """One query-document pair in row form, for :func:`build_query`; the
    values are checked when the query is built."""

    doc_id: str
    mu: float
    sigma: float | None = None
    neutrality: float | None = None

    def __post_init__(self) -> None:
        # normalize numpy scalars to builtin floats
        object.__setattr__(self, "mu", float(self.mu))
        if self.sigma is not None:
            object.__setattr__(self, "sigma", float(self.sigma))
        if self.neutrality is not None:
            object.__setattr__(self, "neutrality", float(self.neutrality))


def _read_only(values: object, dtype: type, n: int, name: str, query_id: str) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    if column.shape != (n,):
        raise ValueError(f"query {query_id!r}: {name} has shape {column.shape}, expected ({n},)")
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class QueryCandidates:
    """A query id plus its candidate columns; the unit of all per-query work."""

    query_id: str
    doc_ids: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray | None = None
    neutrality: np.ndarray | None = None
    protected: np.ndarray | None = None

    def __post_init__(self) -> None:
        doc_ids = tuple(self.doc_ids)
        n = len(doc_ids)
        if not n:
            raise ValueError(f"query {self.query_id!r}: candidate set is empty")
        if len(set(doc_ids)) != n:
            dupes = sorted({d for d in doc_ids if doc_ids.count(d) > 1})
            raise ValueError(f"query {self.query_id!r}: duplicate doc ids {dupes}")
        object.__setattr__(self, "doc_ids", doc_ids)
        for name in ("mu", "sigma", "neutrality", "protected"):
            values = getattr(self, name)
            if values is not None:
                dtype = bool if name == "protected" else np.float64
                object.__setattr__(self, name, _read_only(values, dtype, n, name, self.query_id))
        mu, sigma, neutrality = self.mu, self.sigma, self.neutrality
        self._require(np.isfinite(mu), mu, "mu must be finite")
        self._require(
            np.concatenate(([True], mu[1:] <= mu[:-1])), mu,
            "mu is above the mu of the candidate before it; columns must be in "
            "original-rank order",
        )
        if sigma is not None:
            self._require(np.isfinite(sigma) & (sigma >= 0.0), sigma,
                          "sigma must be finite and >= 0")
        if neutrality is not None:
            self._require((neutrality >= 0.0) & (neutrality <= 1.0), neutrality,
                          "neutrality score must lie in [0, 1]")

    def _require(self, ok: np.ndarray, column: np.ndarray, what: str) -> None:
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(
                f"query {self.query_id!r}: candidate {self.doc_ids[i]!r}: {what}, "
                f"got {float(column[i])!r}"
            )

    @classmethod
    def ranked(
        cls,
        query_id: str,
        doc_ids: Sequence[str],
        mu: Sequence[float] | np.ndarray,
        sigma: Sequence[float] | np.ndarray | None = None,
        neutrality: Sequence[float] | np.ndarray | None = None,
    ) -> "QueryCandidates":
        """Build a query from columns in any order, sorting them into
        original-rank order. Doc ids are ordered by Python ``str``
        comparison, since numpy string arrays drop trailing NULs."""
        mu = np.asarray(mu, dtype=np.float64)
        by_id = np.array(sorted(range(len(doc_ids)), key=doc_ids.__getitem__), dtype=np.intp)
        order = by_id[np.argsort(-mu[by_id], kind="stable")]

        def arranged(values: object) -> np.ndarray | None:
            return None if values is None else np.asarray(values, dtype=np.float64)[order]

        return cls(
            query_id=query_id,
            doc_ids=tuple(doc_ids[i] for i in order.tolist()),
            mu=mu[order],
            sigma=arranged(sigma),
            neutrality=arranged(neutrality),
        )

    def __len__(self) -> int:
        return len(self.doc_ids)

    def column(self, name: str) -> np.ndarray:
        """The ``sigma``, ``neutrality`` or ``protected`` column; raises
        ValueError when it has not been attached."""
        values = getattr(self, name)
        if values is None:
            raise ValueError(f"query {self.query_id!r} has no {_COLUMN_NAMES[name]}")
        return values


@dataclass(frozen=True, eq=False)
class Ranking:
    """An ordered result list over a query's columns: ``order`` holds column
    indices by rank and ``scores`` the effective scores in that order, score
    descending with ties resolved by ascending original rank."""

    query: QueryCandidates
    order: np.ndarray
    scores: np.ndarray

    @property
    def query_id(self) -> str:
        return self.query.query_id

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(map(self.query.doc_ids.__getitem__, self.order.tolist()))


def build_query(query_id: str, candidates: Sequence[ScoredCandidate]) -> QueryCandidates:
    """Assemble a query from rows, in original-rank order (see
    :meth:`QueryCandidates.ranked`). A ``sigma`` or ``neutrality`` column is
    attached only when every row carries a value for it."""

    def column(name: str) -> list[float] | None:
        values = [getattr(c, name) for c in candidates]
        return None if None in values else values

    return QueryCandidates.ranked(
        query_id,
        [c.doc_id for c in candidates],
        [c.mu for c in candidates],
        sigma=column("sigma"),
        neutrality=column("neutrality"),
    )


def assign_groups(query: QueryCandidates, protected_threshold: float = 1.0) -> QueryCandidates:
    """Label candidates: protected iff neutrality >= threshold (default 1.0)."""
    check_protected_threshold(protected_threshold)
    return replace(query, protected=query.column("neutrality") >= protected_threshold)


def rank_by_score(query: QueryCandidates, scores: np.ndarray) -> Ranking:
    """Sort a query's candidates by effective scores aligned with its doc ids,
    descending.

    Ties fall back to ascending original rank (a stable sort), so
    re-ranking the same input with the same scores is reproducible.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(query),):
        raise ValueError(
            f"query {query.query_id!r}: expected {len(query)} scores, got shape {scores.shape}"
        )
    finite = np.isfinite(scores)
    if not finite.all():
        doc_id = query.doc_ids[int(np.argmin(finite))]
        raise ValueError(f"query {query.query_id!r}: non-finite score for doc {doc_id!r}")
    order = np.argsort(-scores, kind="stable")
    return Ranking(query, order, scores[order])
