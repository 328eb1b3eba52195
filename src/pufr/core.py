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
:meth:`QueryCandidates.with_column` adds a column to a built query and
checks only that column; it copies the query's fields directly, since
``copy.copy`` costs about a quarter of the call. :class:`ScoredCandidate`
is the row form that :func:`build_query` accepts.

A :class:`Ranking` is an order over its query's columns: ``order[i]`` is
the column index of the document at rank i + 1 and ``scores[i]`` its
effective score, so metrics read the query's columns at ``order`` instead
of looking documents up by id. A :class:`QueryStack` pads a corpus's
queries to one length, and a :class:`StackedRanking` ranks every row of it.

A function that ranks, re-ranks or evaluates a stack has one body, over
the stack: a query or a ranking passed to it becomes a one-row stack or
stacked ranking through :func:`stacked`, and the function gives back row 0
of its result, as a ``Ranking``, a float, a 1-D array or a list.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import InitVar, dataclass
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Sequence

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


@dataclass(frozen=True, eq=False)
class QueryCandidates:
    """A query id plus its candidate columns; the unit of all per-query work."""

    query_id: str
    doc_ids: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray | None = None
    neutrality: np.ndarray | None = None
    protected: np.ndarray | None = None
    # set by ranked() only: the columns are read-only float64 already, and in order
    _ranked: InitVar[bool] = False

    def __post_init__(self, _ranked: bool) -> None:
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
            if values is not None and not _ranked:
                object.__setattr__(self, name, _read_only(values, dtype, n, name, self.query_id))
        for name in _DTYPES:
            self._check(name, _ranked)

    def _check(self, name: str, ranked: bool = False) -> None:
        """Check one column's values, naming the first bad candidate; a ``mu``
        that :meth:`ranked` sorted is not checked for order again."""
        column = getattr(self, name)
        if column is None:
            return
        if name == "mu":
            self._require(np.isfinite(column), column, "mu must be finite")
            if not ranked:
                in_order = column[1:] <= column[:-1]
                if not in_order.all():
                    self._require(
                        np.concatenate(([True], in_order)), column,
                        "mu is above the mu of the candidate before it; columns must be in "
                        "original-rank order",
                    )
        elif name == "sigma":
            self._require(np.isfinite(column) & (column >= 0.0), column,
                          "sigma must be finite and >= 0")
        elif name == "neutrality":
            self._require((column >= 0.0) & (column <= 1.0), column,
                          "neutrality score must lie in [0, 1]")

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
        built."""
        column = _read_only(values, _DTYPES[name], len(self), name, self.query_id)
        query = object.__new__(type(self))
        query.__dict__.update(self.__dict__, **{name: column})
        query._check(name)
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
        columns are gathered only when they are not in order already. Each
        column is converted once and checked once, as the constructor would."""
        n = len(doc_ids)
        columns = {
            name: None if values is None else _read_only(values, np.float64, n, name, query_id)
            for name, values in (("mu", mu), ("sigma", sigma), ("neutrality", neutrality))
        }
        mu = columns["mu"]
        if not (mu[1:] < mu[:-1]).all():
            order = np.argsort(-mu, kind="stable")
            descending = mu[order]
            if not (descending[1:] < descending[:-1]).all():
                by_id = np.array(sorted(range(n), key=doc_ids.__getitem__), dtype=np.intp)
                order = by_id[np.argsort(-mu[by_id], kind="stable")]
            if not (order[1:] > order[:-1]).all():
                doc_ids = itemgetter(*order.tolist())(doc_ids)  # n >= 2 here: a tuple
                for name, column in columns.items():
                    if column is not None:
                        columns[name] = column = column[order]
                        column.flags.writeable = False
        return cls(query_id, doc_ids, _ranked=True, **columns)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def column(self, name: str) -> np.ndarray:
        """The ``mu``, ``sigma``, ``neutrality`` or ``protected`` column;
        raises ValueError when it has not been attached."""
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


# What a pad holds in each padded column (:meth:`QueryStack.column`): a
# non-protected place at mu = -inf with sigma 0 never wins a re-ranker's
# clamp, and neutrality 0.0 adds +0.0 to every running sum.
_PADS = {"mu": -math.inf, "sigma": 0.0, "neutrality": 0.0, "protected": False}


class QueryStack:
    """A corpus as rows padded to its longest query: place j of row i is
    column j of query i while j < len(query i), and a pad after it.
    :meth:`padded` fills pads with 0.0 unless told otherwise, and
    :meth:`column` as ``_PADS`` says; :func:`rank_by_score` and
    :meth:`rankings` rank pads last, in place order. ``lengths`` holds each
    query's length. Values derived from the rows are kept in ``memo``. A
    stack needs at least one query."""

    def __init__(self, queries: Iterable[QueryCandidates]) -> None:
        self.queries = tuple(queries)
        if not self.queries:
            raise ValueError("cannot stack an empty corpus")
        self.query_ids = tuple(query.query_id for query in self.queries)
        self.lengths = np.array([len(query) for query in self.queries])
        self.real = np.arange(self.lengths.max()) < self.lengths[:, None]  # False at pads
        self.memo: dict[Any, Any] = {}

    def padded(self, columns: Iterable[np.ndarray], pad: float | bool = 0.0) -> np.ndarray:
        """One column per query, in query order, as padded rows."""
        rows = np.full(self.real.shape, pad)
        rows[self.real] = np.concatenate(list(columns))
        return rows

    def column(self, name: str) -> np.ndarray:
        """:meth:`QueryCandidates.column` of every query as read-only padded
        rows, kept in ``memo``; raises the first query's ValueError when a
        query has no such column."""
        key = ("column", name)
        rows = self.memo.get(key)
        if rows is None:
            rows = self.padded((query.column(name) for query in self.queries), _PADS[name])
            rows.flags.writeable = False
            self.memo[key] = rows
        return rows

    def rankings(self, rankings: Iterable[Ranking]) -> "StackedRanking":
        """One ranking per query, in query order, as one stacked ranking."""
        rankings = list(rankings)
        if [ranking.query for ranking in rankings] != list(self.queries):
            raise ValueError("need one ranking of each stacked query, in order")
        order = np.indices(self.real.shape)[1]
        order[self.real] = np.concatenate([ranking.order for ranking in rankings])
        return StackedRanking(self, order, self.padded((r.scores for r in rankings), -math.inf))


class StackedRanking(NamedTuple):
    """One ranking of each row of a :class:`QueryStack`: row i of ``order``
    holds the places of row i by rank, its pads last, and row i of
    ``scores`` their effective scores, -inf at pads."""

    stack: QueryStack
    order: np.ndarray
    scores: np.ndarray

    def rows(self) -> list[Ranking]:
        """The ranking of each stacked query, in stack order."""
        return [
            Ranking(query, self.order[i, :len(query)], self.scores[i, :len(query)])
            for i, query in enumerate(self.stack.queries)
        ]


def stacked(
    value: QueryCandidates | Ranking | QueryStack | StackedRanking,
) -> QueryStack | StackedRanking:
    """A query as a one-row :class:`QueryStack`, a ranking as a one-row
    :class:`StackedRanking` of it, and a stack or a stacked ranking as it
    is. A function that takes either form runs its one body on what this
    gives, and where that is not what it was given, hands back row 0."""
    if isinstance(value, QueryCandidates):
        return QueryStack([value])
    if isinstance(value, Ranking):
        return StackedRanking(QueryStack([value.query]), value.order[None], value.scores[None])
    return value


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


def rank_by_score(
    query: QueryCandidates | QueryStack, scores: np.ndarray
) -> Ranking | StackedRanking:
    """Sort a stack's rows by effective scores given as padded rows,
    descending, or a query's candidates by scores aligned with its doc ids.

    Ties fall back to ascending original rank (a stable sort), so
    re-ranking the same input with the same scores is reproducible. Pads
    rank last, in place order, whatever their scores. Only real places
    must be finite; the error names the first query and doc at fault.
    """
    stack = stacked(query)
    scores = np.asarray(scores, dtype=np.float64)
    if stack is not query:
        if scores.shape != (len(query),):
            raise ValueError(
                f"query {query.query_id!r}: expected {len(query)} scores, got shape {scores.shape}"
            )
        scores = scores[None]
    if scores.shape != stack.real.shape:
        raise ValueError(f"expected scores of shape {stack.real.shape}, got shape {scores.shape}")
    at_fault = stack.real & ~np.isfinite(scores)
    if at_fault.any():
        i, j = np.unravel_index(np.argmax(at_fault), at_fault.shape)
        faulty = stack.queries[i]
        raise ValueError(
            f"query {faulty.query_id!r}: non-finite score for doc {faulty.doc_ids[j]!r}")
    # pads sort last; negating twice gives back each real score's bits
    keys = np.where(stack.real, -scores, np.inf)
    order = np.argsort(keys, axis=-1, kind="stable")
    ranked = StackedRanking(stack, order, -np.take_along_axis(keys, order, axis=-1))
    return ranked if stack is query else ranked.rows()[0]
