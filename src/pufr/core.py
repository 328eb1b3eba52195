"""Shared ranking domain types and canonical sorting.

A corpus has one form, the :class:`QueryStack`: flat columns, each query's
candidates one after another, plus each query's length. A single query is
a one-row stack. The columns are the doc ids and, aligned with them,
read-only float64 ``mu`` (predicted mean score), ``sigma`` (predictive
standard deviation) and ``neutrality`` (1 = fully neutral document), plus a
bool ``protected`` column for the two-way group label. ``sigma``,
``neutrality`` and ``protected`` are absent until attached. Each query's
places are in original-rank order: ``mu`` descending, exact ties broken by
doc id in ``str`` order, so place i of a query is its original rank i + 1,
the deterministic tie-break of every sort downstream.
:meth:`QueryStack.ranked` sorts flat columns into that order and checks them
once, over the whole corpus; :meth:`QueryStack.with_column` adds a column
and checks only it. :class:`ScoredCandidate` is the row form
:func:`build_query` accepts.

The work on a stack reads it as rows padded to its longest query. A
:class:`StackedRanking` ranks every row: row i of its ``order`` holds the
places of row i by rank, so metrics read the stack's columns at ``order``
instead of looking documents up by id; a single ranking is a one-row
stacked ranking. Every function that ranks, re-ranks, labels or evaluates
has one body, over a stack, and gives one value or row per query.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain
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


def _read_only(values: object, dtype: type, n: int, name: str, where: str) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    if column.shape != (n,):
        raise ValueError(f"{where}: {name} has shape {column.shape}, expected ({n},)")
    column.flags.writeable = False
    return column


# The check of each float column, and what its error says.
_VALID = {
    "mu": (np.isfinite, "mu must be finite"),
    "sigma": (lambda c: np.isfinite(c) & (c >= 0.0), "sigma must be finite and >= 0"),
    "neutrality": (lambda c: (c >= 0.0) & (c <= 1.0), "neutrality score must lie in [0, 1]"),
}


def _check_ids(query_ids: Sequence[str], bounds: Sequence[int], doc_ids: Sequence[str]) -> None:
    """No query of a flat corpus, query i at places ``bounds[i]:bounds[i + 1]``,
    is empty or holds a doc id twice; ids distinct over the corpus pass at once."""
    shared = len(set(doc_ids)) != len(doc_ids)
    for query_id, start, end in zip(query_ids, bounds, bounds[1:]):
        docs = doc_ids[start:end]
        if not docs:
            raise ValueError(f"query {query_id!r}: candidate set is empty")
        if shared and len(set(docs)) != len(docs):
            dupes = sorted(d for d, count in Counter(docs).items() if count > 1)
            raise ValueError(f"query {query_id!r}: duplicate doc ids {dupes}")


def _check_values(query_ids: Sequence[str], bounds: Sequence[int], doc_ids: Sequence[str],
                  columns: dict[str, np.ndarray | None]) -> None:
    """Check each float column of a flat corpus once, naming the first bad
    candidate."""
    for name, column in columns.items():
        if name not in _VALID or column is None:
            continue
        valid, what = _VALID[name]
        ok = valid(column)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(f"query {query_ids[bisect_right(bounds, i) - 1]!r}: candidate "
                             f"{doc_ids[i]!r}: {what}, got {float(column[i])!r}")


# What a pad holds in each padded column (:meth:`QueryStack.column`): a
# non-protected place at mu = -inf with sigma 0 never wins a re-ranker's
# clamp, and neutrality 0.0 adds +0.0 to every running sum.
_PADS = {"mu": -math.inf, "sigma": 0.0, "neutrality": 0.0, "protected": False}


class QueryStack:
    """A corpus in flat form: its doc ids and columns, query after query,
    each query in original-rank order, with query i at the places
    ``bounds[i]:bounds[i + 1]`` and ``lengths[i]`` long. A stack needs at
    least one query, and is a sequence of its rows: :meth:`row` i is query
    i as a one-row stack, built on first use and kept, so that it is the
    same object on every call, and a slice is a stack of those rows.
    ``QueryStack(queries)`` concatenates stacks and keeps one-row stacks as
    its rows; :func:`build_query` and the loaders build a stack with
    :meth:`ranked`. ``len`` counts queries, not candidates.

    The work on a corpus reads it as rows padded to its longest query: place
    j of row i is place j of query i while j < ``lengths[i]``, and a pad after
    it, where ``real`` is False. :meth:`padded` fills pads with 0.0 unless
    told otherwise, and :meth:`column` as ``_PADS`` says; :func:`rank_by_score`
    ranks pads last, in place order. Values derived from the rows are kept
    in ``memo``."""

    def __init__(self, queries: Iterable["QueryStack"]) -> None:
        queries = tuple(queries)
        if not queries:
            raise ValueError("cannot stack an empty corpus")
        columns = {name: [q._flat[name] for q in queries] for name in _DTYPES}
        self._store(tuple(chain.from_iterable(q.query_ids for q in queries)),
                    np.concatenate([q.lengths for q in queries]),
                    tuple(chain.from_iterable(q.doc_ids for q in queries)),
                    {name: None if any(c is None for c in cs) else np.concatenate(cs)
                     for name, cs in columns.items()})
        if len(queries) == len(self):  # one-row stacks, kept as the rows
            self._rows = list(queries)

    def _store(self, query_ids: tuple[str, ...], lengths: Sequence[int],
               doc_ids: tuple[str, ...], flat: dict[str, np.ndarray | None]) -> "QueryStack":
        self.query_ids, self.doc_ids, self._flat = query_ids, doc_ids, flat
        for column in flat.values():
            if column is not None:
                column.flags.writeable = False
        self.lengths = np.array(lengths, dtype=np.intp)
        self.bounds = [0, *accumulate(self.lengths.tolist())]
        self.real = np.arange(self.lengths.max()) < self.lengths[:, None]  # False at pads
        self.memo: dict[Any, Any] = {}
        self._rows: list[QueryStack | None] = [None] * len(query_ids)
        return self

    @classmethod
    def ranked(cls, query_ids: Sequence[str], lengths: Sequence[int], doc_ids: Sequence[str],
               columns: dict[str, Sequence[float] | np.ndarray | None]) -> "QueryStack":
        """A stack of float64 ``mu`` and, if given, ``sigma`` and ``neutrality``
        columns, each query's places together in any order, sorted into
        original-rank order and checked once: no query is empty or repeats a
        doc id, and every value is in range. A query whose ``mu`` does not
        strictly fall is sorted stably, and if a tie or a value that is not
        finite remains, again from its places in Python ``str`` order of doc
        id (numpy string arrays drop trailing NULs). Each column, a sequence
        of one value per doc id, is copied into the stack, read-only."""
        query_ids, doc_ids, bounds = tuple(query_ids), tuple(doc_ids), [0, *accumulate(lengths)]
        where = f"query {query_ids[0]!r}" if len(query_ids) == 1 else "stack"
        flat = {name: None if columns.get(name) is None
                else _read_only(columns[name], _DTYPES[name], len(doc_ids), name, where)
                for name in _DTYPES}
        _check_ids(query_ids, bounds, doc_ids)
        mu = flat["mu"]
        unsorted = np.flatnonzero(~_falling(mu, bounds))
        if unsorted.size:
            order = np.arange(len(mu))
            for i in np.unique(np.searchsorted(bounds, unsorted, side="right") - 1).tolist():
                places = order[bounds[i]:bounds[i + 1]]
                places = places[np.argsort(-mu[places], kind="stable")]
                if not _falling(mu[places], [0, len(places)]).all():
                    places = np.array(sorted(places.tolist(), key=doc_ids.__getitem__))
                    places = places[np.argsort(-mu[places], kind="stable")]
                order[bounds[i]:bounds[i + 1]] = places
            doc_ids = itemgetter(*order.tolist())(doc_ids)  # two places at least: a tuple
            flat = {name: None if c is None else c[order] for name, c in flat.items()}
        _check_values(query_ids, bounds, doc_ids, flat)
        return object.__new__(cls)._store(query_ids, lengths, doc_ids, flat)

    def with_column(self, name: str, values: object) -> "QueryStack":
        """This stack with its ``sigma``, ``neutrality`` or ``protected``
        column set to the flat ``values``; only that column is checked, once."""
        where = f"query {self.query_ids[0]!r}" if len(self) == 1 else "stack"
        column = _read_only(values, _DTYPES[name], len(self.doc_ids), name, where)
        _check_values(self.query_ids, self.bounds, self.doc_ids, {name: column})
        return object.__new__(type(self))._store(
            self.query_ids, self.lengths, self.doc_ids, {**self._flat, name: column})

    def __len__(self) -> int:
        return len(self.query_ids)

    def __getitem__(self, i: int | slice) -> "QueryStack":
        """Row i, or a slice's rows as a stack that keeps them as its rows."""
        if isinstance(i, slice):
            return QueryStack(map(self.row, range(len(self))[i]))
        return self.row(i)

    def row(self, i: int) -> "QueryStack":
        """Query i as a one-row stack over slices of the columns, the same
        object on every call; it holds no reference to this stack."""
        i = range(len(self))[i]  # from the end when negative; IndexError when out of range
        query = self._rows[i]
        if query is None:
            places = slice(self.bounds[i], self.bounds[i + 1])
            query = self._rows[i] = object.__new__(QueryStack)._store(
                self.query_ids[i:i + 1], self.lengths[i:i + 1], self.doc_ids[places],
                {name: None if c is None else c[places] for name, c in self._flat.items()})
        return query

    def has(self, name: str) -> bool:
        """Whether every query has the column ``name``."""
        return self._flat[name] is not None

    def flat(self, name: str) -> np.ndarray:
        """The column ``name`` of every place, query after query; raises
        ValueError naming the first kept row without it, or else the first
        query."""
        if self._flat[name] is None:
            lacking = (r.query_ids[0] for r in self._rows if r is not None and not r.has(name))
            raise ValueError(f"query {next(lacking, self.query_ids[0])!r} has no "
                             f"{_COLUMN_NAMES[name]}")
        return self._flat[name]

    def padded(self, flat: np.ndarray, pad: float | bool = 0.0) -> np.ndarray:
        """A flat column, one value per place, as padded rows."""
        rows = np.full(self.real.shape, pad)
        rows[self.real] = flat
        return rows

    def column(self, name: str) -> np.ndarray:
        """:meth:`flat` as read-only padded rows, kept in ``memo``."""
        key = ("column", name)
        if key not in self.memo:
            self.memo[key] = self.padded(self.flat(name), _PADS[name])
            self.memo[key].flags.writeable = False
        return self.memo[key]


def _falling(values: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """Whether each place's value is below the value before it in its query;
    True at each query's first place."""
    falls = np.ones(len(values), dtype=bool)
    falls[1:] = values[1:] < values[:-1]
    falls[bounds[1:-1]] = True
    return falls


class StackedRanking(NamedTuple):
    """One ranking of each row of a :class:`QueryStack`: row i of ``order``
    holds the places of row i by rank, its pads last, and row i of
    ``scores`` their effective scores, -inf at pads."""

    stack: QueryStack
    order: np.ndarray
    scores: np.ndarray


def build_query(query_id: str, candidates: Sequence[ScoredCandidate]) -> QueryStack:
    """A query from rows, as a one-row stack in original-rank order (see
    :meth:`QueryStack.ranked`). A ``sigma`` or ``neutrality`` column is
    attached only when every row carries a value for it."""

    def column(name: str) -> list[float] | None:
        values = [getattr(c, name) for c in candidates]
        return None if None in values else values

    return QueryStack.ranked((query_id,), (len(candidates),), [c.doc_id for c in candidates],
                             {name: column(name) for name in ("mu", "sigma", "neutrality")})


def assign_groups(
    stack: QueryStack, protected_threshold: float = DEFAULT_PROTECTED_THRESHOLD
) -> QueryStack:
    """Label the candidates of a stack: protected iff neutrality >= threshold."""
    check_protected_threshold(protected_threshold)
    return stack.with_column("protected", stack.flat("neutrality") >= protected_threshold)


def rank_by_score(stack: QueryStack, scores: np.ndarray) -> StackedRanking:
    """Sort a stack's rows by effective scores given as padded rows,
    descending.

    Ties fall back to ascending original rank (a stable sort), so
    re-ranking the same input with the same scores is reproducible. Pads
    rank last, in place order, whatever their scores. Only real places
    must be finite; the error names the first query and doc at fault.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != stack.real.shape:
        raise ValueError(f"expected scores of shape {stack.real.shape}, got shape {scores.shape}")
    at_fault = stack.real & ~np.isfinite(scores)
    if at_fault.any():
        i, j = np.unravel_index(np.argmax(at_fault), at_fault.shape)
        raise ValueError(f"query {stack.query_ids[i]!r}: non-finite score for doc "
                         f"{stack.doc_ids[stack.bounds[i] + j]!r}")
    # pads sort last; negating twice gives back each real score's bits
    keys = np.where(stack.real, -scores, np.inf)
    order = np.argsort(keys, axis=-1, kind="stable")
    return StackedRanking(stack, order, -np.take_along_axis(keys, order, axis=-1))
