"""Shared ranking domain types and canonical sorting.

A query is columnar. :class:`QueryCandidates` holds the doc ids as a tuple
and, aligned with them, read-only float64 columns ``mu`` (predicted mean
score), ``sigma`` (predictive standard deviation) and ``neutrality`` (1 =
fully neutral document), plus a bool ``protected`` column for the two-way
group label. ``sigma``, ``neutrality`` and ``protected`` are None until
attached. The columns are stored in original-rank order: ``mu``
descending, exact ties broken by doc id in ``str`` order, so index i is
original rank i + 1, the deterministic tie-break of every sort downstream.
The constructor validates every column once, vectorised, and, once groups
are labelled, gathers each group's indices, ``mu`` and ``sigma`` in the
order the re-ranker clamps them (see :meth:`QueryCandidates.by_group`).
:meth:`QueryCandidates.with_column` adds a column to a built query and
checks only that column. Values that other layers derive from a query's
columns are kept in its ``memo``; both die with the query, and
``with_column`` and ``dataclasses.replace`` start a new query with fresh
ones. :class:`ScoredCandidate` is the row form that
:func:`build_query` accepts.

A :class:`Ranking` is an order over its query's columns: ``order[i]`` is
the column index of the document at rank i + 1 and ``scores[i]`` its
effective score, so metrics read the query's columns at ``order`` instead
of looking documents up by id.
"""

from __future__ import annotations

import copy
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Sequence

import numpy as np

_DTYPES = {"mu": np.float64, "sigma": np.float64, "neutrality": np.float64, "protected": bool}
_COLUMN_NAMES = {
    "sigma": "sigma values",
    "neutrality": "neutrality scores",
    "protected": "group labels",
}
DEFAULT_PROTECTED_THRESHOLD = 1.0


def check_protected_threshold(value: float) -> float:
    if not (math.isfinite(value) and 0.0 < value <= 1.0):
        raise ValueError(f"protected threshold must lie in (0, 1], got {value!r}")
    return value


def check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")


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


class Group(NamedTuple):
    """One group's candidates in the order the re-ranker clamps them: their
    column indices, and ``mu`` and ``sigma`` (None when absent) at those
    indices."""

    index: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray | None


@dataclass(frozen=True, eq=False)
class QueryCandidates:
    """A query id plus its candidate columns; the unit of all per-query work."""

    query_id: str
    doc_ids: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray | None = None
    neutrality: np.ndarray | None = None
    protected: np.ndarray | None = None
    _groups: tuple[Group, Group] | None = field(default=None, init=False, repr=False)
    # values other layers derive from the columns, keyed by whoever derives them
    memo: dict[Any, Any] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        doc_ids = tuple(self.doc_ids)
        n = len(doc_ids)
        if not n:
            raise ValueError(f"query {self.query_id!r}: candidate set is empty")
        if len(set(doc_ids)) != n:
            dupes = sorted(d for d, count in Counter(doc_ids).items() if count > 1)
            raise ValueError(f"query {self.query_id!r}: duplicate doc ids {dupes}")
        object.__setattr__(self, "doc_ids", doc_ids)
        for name, dtype in _DTYPES.items():
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(self, name, _read_only(values, dtype, n, name, self.query_id))
        for name in _DTYPES:
            self._check(name)
        self._gather_groups()

    def _check(self, name: str) -> None:
        """Check the values of one column, naming the first bad candidate."""
        column = getattr(self, name)
        if column is None:
            return
        if name == "mu":
            self._require(np.isfinite(column), column, "mu must be finite")
            self._require(
                np.concatenate(([True], column[1:] <= column[:-1])), column,
                "mu is above the mu of the candidate before it; columns must be in "
                "original-rank order",
            )
        elif name == "sigma":
            self._require(np.isfinite(column) & (column >= 0.0), column,
                          "sigma must be finite and >= 0")
        elif name == "neutrality":
            self._require((column >= 0.0) & (column <= 1.0), column,
                          "neutrality score must lie in [0, 1]")

    def _gather_groups(self) -> None:
        if self.protected is not None:
            # protected docs by decreasing mu, the others by increasing mu
            indices = np.flatnonzero(self.protected), np.flatnonzero(~self.protected)[::-1]
            object.__setattr__(self, "_groups", tuple(
                Group(index, self.mu[index], None if self.sigma is None else self.sigma[index])
                for index in indices
            ))

    def _require(self, ok: np.ndarray, column: np.ndarray, what: str) -> None:
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(
                f"query {self.query_id!r}: candidate {self.doc_ids[i]!r}: {what}, "
                f"got {float(column[i])!r}"
            )

    def with_column(self, name: str, values: object) -> "QueryCandidates":
        """This query with its ``sigma``, ``neutrality`` or ``protected``
        column set to ``values``. Only the new column is checked: the doc
        ids, ``mu`` and the other columns were checked when this query was
        built. Like ``dataclasses.replace``, the result starts with a fresh
        ``memo``."""
        query = copy.copy(self)
        object.__setattr__(query, "memo", {})
        column = _read_only(values, _DTYPES[name], len(self), name, self.query_id)
        object.__setattr__(query, name, column)
        query._check(name)
        query._gather_groups()
        return query

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
        comparison, since numpy string arrays drop trailing NULs; they are
        compared only when ``mu`` has exact ties or is not finite, and the
        columns are gathered only when they are not in order already."""
        n = len(doc_ids)
        mu, sigma, neutrality = (
            None if values is None else _read_only(values, np.float64, n, name, query_id)
            for name, values in (("mu", mu), ("sigma", sigma), ("neutrality", neutrality))
        )
        order = np.argsort(-mu, kind="stable")
        descending = mu[order]
        if not (descending[1:] < descending[:-1]).all():
            by_id = np.array(sorted(range(n), key=doc_ids.__getitem__), dtype=np.intp)
            order = by_id[np.argsort(-mu[by_id], kind="stable")]
        if not (order[1:] > order[:-1]).all():
            doc_ids = tuple(map(doc_ids.__getitem__, order.tolist()))
            mu, sigma, neutrality = (
                None if column is None else column[order] for column in (mu, sigma, neutrality)
            )
        return cls(query_id, doc_ids, mu, sigma, neutrality)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def column(self, name: str) -> np.ndarray:
        """The ``sigma``, ``neutrality`` or ``protected`` column; raises
        ValueError when it has not been attached."""
        values = getattr(self, name)
        if values is None:
            raise ValueError(f"query {self.query_id!r} has no {_COLUMN_NAMES[name]}")
        return values

    def by_group(self) -> tuple[Group, Group]:
        """The protected candidates in original-rank order and the others in
        reverse; raises ValueError when groups have not been assigned."""
        if self._groups is None:
            self.column("protected")
        return self._groups


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


def assign_groups(
    query: QueryCandidates, protected_threshold: float = DEFAULT_PROTECTED_THRESHOLD
) -> QueryCandidates:
    """Label candidates: protected iff neutrality >= threshold."""
    check_protected_threshold(protected_threshold)
    return query.with_column("protected", query.column("neutrality") >= protected_threshold)


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
    if np.count_nonzero(finite) != len(finite):
        doc_id = query.doc_ids[int(np.argmin(finite))]
        raise ValueError(f"query {query.query_id!r}: non-finite score for doc {doc_id!r}")
    order = np.argsort(-scores, kind="stable")
    return Ranking(query, order, scores[order])
