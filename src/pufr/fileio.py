"""Parsers and writers for the plain-text exchange formats.

All formats are whitespace-separated with ``#`` comment lines allowed:

- run file:        ``query_id Q0 doc_id rank score tag``
- sigma file:      ``query_id doc_id sigma``
- neutrality file: ``doc_id neutrality``
- qrels:           ``query_id 0 doc_id grade``
- feature file:    ``query_id doc_id v1 ... vd``
- posterior file:  ``theta d v1..vd`` / ``fisher d v1..vd`` / optional ``damping x``

The run, sigma and neutrality files are parsed column-wise: each
column of a query is converted and checked in one numpy call. Only when a
check fails is the file walked line by line, so that the error names the
first bad ``path:line`` in file order.

Floats are written with ``repr`` so a write-parse-write cycle is
byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Mapping, NoReturn, Sequence

import numpy as np

from .core import QueryCandidates, Ranking
from .metrics import RelevanceJudgments
from .uncertainty import LastLayerPosterior


def _data_lines(path: str | Path) -> Iterable[tuple[int, list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            yield lineno, fields


def _parse_float(path: str | Path, lineno: int, token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} is not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: {what} must be finite, got {token!r}")
    return value


def _column(tokens: list[str], dtype: type) -> np.ndarray | None:
    """Convert tokens in one call, or None when one is not a number.
    ``np.array`` accepts and rejects the same tokens as ``int()`` and
    ``float()``, with the same bits, but an integer of 20 digits
    overflows int64."""
    try:
        return np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError):
        return None


def _parse_floats(path: str | Path, lineno: int, tokens: list[str], what: str) -> np.ndarray:
    """Parse a row of finite floats with one call; only a row that fails is
    walked token by token, so the error names its first bad value."""
    values = _column(tokens, np.float64)
    if values is not None and np.isfinite(values).all():
        return values
    return np.array(
        [_parse_float(path, lineno, t, f"{what} {j + 1}") for j, t in enumerate(tokens)]
    )


def parse_run_file(path: str | Path) -> list[QueryCandidates]:
    """Read a retrieval run into per-query candidates (mu filled, sigma absent).

    Original ranks are recomputed from the scores; the file's rank column
    is validated to be a permutation of 1..n within each query. A file with
    no data lines is an error.
    """
    columns: dict[str, tuple[list[str], list[str], list[str]]] = {}
    for _, fields in _data_lines(path):
        if len(fields) != 6:
            _run_file_error(path)
        query_id, _, doc_id, rank, score, _ = fields
        if query_id not in columns:
            columns[query_id] = ([], [], [])
        doc_ids, ranks, scores = columns[query_id]
        doc_ids.append(doc_id)
        ranks.append(rank)
        scores.append(score)
    if not columns:
        _run_file_error(path)
    corpus = []
    for query_id, (doc_ids, rank_tokens, score_tokens) in columns.items():
        n = len(doc_ids)
        ranks, mu = _column(rank_tokens, np.int64), _column(score_tokens, np.float64)
        if (
            ranks is None or mu is None or not np.isfinite(mu).all()
            or len(set(doc_ids)) != n or not np.array_equal(np.sort(ranks), np.arange(1, n + 1))
        ):
            _run_file_error(path)
        corpus.append(QueryCandidates.ranked(query_id, doc_ids, mu))
    return corpus


def _run_file_error(path: str | Path) -> NoReturn:
    """Walk a run file that failed a bulk check line by line and raise for
    its first bad line in file order or, if every line is well formed, for
    the first rank that breaks a query's permutation, queries in order."""
    ranks: dict[str, list[tuple[int, int]]] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, fields in _data_lines(path):
        if len(fields) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
        query_id, _, doc_id, rank_token, score_token, _ = fields
        try:
            rank = int(rank_token)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: rank is not an integer: {rank_token!r}"
            ) from None
        _parse_float(path, lineno, score_token, "score")
        if (query_id, doc_id) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate entry for ({query_id}, {doc_id})")
        seen.add((query_id, doc_id))
        ranks.setdefault(query_id, []).append((rank, lineno))
    if not ranks:
        raise ValueError(f"{path}: no data lines")
    for query_id, entries in ranks.items():
        # n distinct ranks within 1..n are a permutation of 1..n
        used: set[int] = set()
        for rank, lineno in entries:
            if rank in used or not 1 <= rank <= len(entries):
                raise ValueError(
                    f"{path}:{lineno}: query {query_id!r}: rank {rank} is repeated or outside "
                    f"1..{len(entries)}, so the rank column is not a permutation"
                )
            used.add(rank)
    raise RuntimeError(f"{path}: a bulk check failed but no line is at fault")


def parse_sigma_file(path: str | Path) -> dict[str, tuple[tuple[str, ...], np.ndarray]]:
    """Read predictive standard deviations as ``{query_id: (doc_ids, sigmas)}``,
    queries in order of first appearance and each query's pairs in file order."""
    columns: dict[str, tuple[list[str], list[str]]] = {}
    for _, fields in _data_lines(path):
        if len(fields) != 3:
            _sigma_file_error(path)
        query_id, doc_id, sigma = fields
        if query_id not in columns:
            columns[query_id] = ([], [])
        columns[query_id][0].append(doc_id)
        columns[query_id][1].append(sigma)
    parsed = {}
    for query_id, (doc_ids, tokens) in columns.items():
        sigmas = _column(tokens, np.float64)
        if sigmas is None or not (
            (np.isfinite(sigmas) & (sigmas >= 0.0)).all() and len(set(doc_ids)) == len(doc_ids)
        ):
            _sigma_file_error(path)
        parsed[query_id] = (tuple(doc_ids), sigmas)
    return parsed


def _sigma_file_error(path: str | Path) -> NoReturn:
    """Walk a sigma file that failed a bulk check line by line and raise
    for its first bad line in file order."""
    seen: set[tuple[str, str]] = set()
    for lineno, fields in _data_lines(path):
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        query_id, doc_id, sigma_token = fields
        sigma = _parse_float(path, lineno, sigma_token, "sigma")
        if sigma < 0.0:
            raise ValueError(f"{path}:{lineno}: sigma must be >= 0, got {sigma!r}")
        if (query_id, doc_id) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate entry for ({query_id}, {doc_id})")
        seen.add((query_id, doc_id))
    raise RuntimeError(f"{path}: a bulk check failed but no line is at fault")


def parse_neutrality_file(path: str | Path) -> dict[str, float]:
    """Read per-document neutrality scores; repeated identical entries are
    tolerated, conflicting ones rejected."""
    doc_ids: list[str] = []
    tokens: list[str] = []
    for _, fields in _data_lines(path):
        if len(fields) != 2:
            _neutrality_file_error(path)
        doc_ids.append(fields[0])
        tokens.append(fields[1])
    values = _column(tokens, np.float64)
    # the range check is false for nan too
    if values is None or not ((values >= 0.0) & (values <= 1.0)).all():
        _neutrality_file_error(path)
    floats = values.tolist()
    scores = dict(zip(doc_ids, floats))
    # a repeated doc keeps its last value, so an earlier one that differs conflicts
    if len(scores) != len(doc_ids) and list(map(scores.get, doc_ids)) != floats:
        _neutrality_file_error(path)
    return scores


def _neutrality_file_error(path: str | Path) -> NoReturn:
    """Walk a neutrality file that failed a bulk check line by line and
    raise for its first bad line in file order."""
    scores: dict[str, float] = {}
    for lineno, fields in _data_lines(path):
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(fields)}")
        doc_id, value_token = fields
        value = _parse_float(path, lineno, value_token, "neutrality")
        if not 0.0 <= value <= 1.0:
            raise ValueError(
                f"{path}:{lineno}: neutrality score must lie in [0, 1], got {value!r}"
            )
        if doc_id in scores and scores[doc_id] != value:
            raise ValueError(
                f"{path}:{lineno}: conflicting neutrality for {doc_id!r}: "
                f"{scores[doc_id]!r} vs {value!r}"
            )
        scores[doc_id] = value
    raise RuntimeError(f"{path}: a bulk check failed but no line is at fault")


def parse_qrels(path: str | Path) -> RelevanceJudgments:
    """Read graded relevance judgments; unknown doc ids are allowed."""
    grades: dict[tuple[str, str], int] = {}
    for lineno, fields in _data_lines(path):
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
        query_id, _, doc_id, grade_token = fields
        try:
            grade = int(grade_token)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: grade is not an integer: {grade_token!r}"
            ) from None
        if grade < 0:
            raise ValueError(f"{path}:{lineno}: grade must be >= 0, got {grade}")
        key = (query_id, doc_id)
        if key in grades and grades[key] != grade:
            raise ValueError(
                f"{path}:{lineno}: conflicting grades for {key}: {grades[key]} vs {grade}"
            )
        grades[key] = grade
    return RelevanceJudgments(grades=grades)


def parse_features_file(path: str | Path) -> dict[str, dict[str, np.ndarray]]:
    """Read last-layer input features per (query, doc); one common dimension."""
    features: dict[str, dict[str, np.ndarray]] = {}
    dim: int | None = None
    for lineno, fields in _data_lines(path):
        if len(fields) < 3:
            raise ValueError(f"{path}:{lineno}: expected at least 3 fields, got {len(fields)}")
        query_id, doc_id = fields[0], fields[1]
        values = _parse_floats(path, lineno, fields[2:], "feature value")
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise ValueError(
                f"{path}:{lineno}: feature dimension {len(values)} differs from {dim}"
            )
        per_query = features.setdefault(query_id, {})
        if doc_id in per_query:
            raise ValueError(f"{path}:{lineno}: duplicate entry for ({query_id}, {doc_id})")
        per_query[doc_id] = values
    return features


def parse_posterior_file(path: str | Path) -> LastLayerPosterior:
    """Read last-layer posterior parameters (theta, raw fisher, damping)."""
    lines = list(_data_lines(path))
    if len(lines) not in (2, 3):
        raise ValueError(f"{path}: expected 2 or 3 data lines, got {len(lines)}")

    def vector_line(index: int, label: str) -> np.ndarray:
        lineno, fields = lines[index]
        if not fields or fields[0] != label:
            raise ValueError(f"{path}:{lineno}: expected a {label!r} line")
        if len(fields) < 2:
            raise ValueError(f"{path}:{lineno}: missing dimension")
        try:
            dim = int(fields[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: dimension is not an integer") from None
        values = fields[2:]
        if len(values) != dim:
            raise ValueError(
                f"{path}:{lineno}: declared dimension {dim} but {len(values)} values"
            )
        return _parse_floats(path, lineno, values, f"{label} value")

    theta = vector_line(0, "theta")
    fisher_raw = vector_line(1, "fisher")
    damping = 0.0
    if len(lines) == 3:
        lineno, fields = lines[2]
        if len(fields) != 2 or fields[0] != "damping":
            raise ValueError(f"{path}:{lineno}: expected 'damping x'")
        damping = _parse_float(path, lineno, fields[1], "damping")
        if damping < 0.0:
            raise ValueError(f"{path}:{lineno}: damping must be >= 0")
    try:
        return LastLayerPosterior(
            theta_map=theta, fisher_diag=fisher_raw + damping, damping=damping
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def attach_sigmas(
    corpus: Sequence[QueryCandidates],
    sigmas: Mapping[str, tuple[tuple[str, ...], np.ndarray]],
) -> list[QueryCandidates]:
    """Join sigma columns from :func:`parse_sigma_file` onto a corpus; every
    pair must be covered. A column whose doc ids are the query's, as
    :func:`write_sigma_file` writes them, is used as it is."""
    joined = []
    for query in corpus:
        doc_ids, column = sigmas.get(query.query_id, ((), np.empty(0)))
        if doc_ids != query.doc_ids:
            by_doc = dict(zip(doc_ids, column.tolist()))
            try:
                column = [by_doc[doc_id] for doc_id in query.doc_ids]
            except KeyError as exc:
                raise ValueError(f"missing sigma for ({query.query_id}, {exc.args[0]})") from None
        joined.append(replace(query, sigma=column))
    return joined


def attach_neutrality(
    corpus: Sequence[QueryCandidates], neutrality: Mapping[str, float]
) -> list[QueryCandidates]:
    """Join neutrality scores onto a corpus; every ranked doc must be covered."""
    joined = []
    for query in corpus:
        try:
            column = [neutrality[doc_id] for doc_id in query.doc_ids]
        except KeyError as exc:
            raise ValueError(f"missing neutrality for ({query.query_id}, {exc.args[0]})") from None
        joined.append(replace(query, neutrality=column))
    return joined


def check_run_tag(tag: str) -> str:
    """A run tag is one whitespace-free field of the run file."""
    if tag.split() != [tag]:
        raise ValueError(f"run tag must be one field without whitespace, got {tag!r}")
    return tag


def write_run_file(path: str | Path, rankings: Iterable[Ranking], tag: str = "pufr") -> None:
    check_run_tag(tag)
    lines = []
    for ranking in rankings:
        entries = zip(ranking.doc_ids(), ranking.scores.tolist())
        for rank, (doc_id, score) in enumerate(entries, start=1):
            lines.append(f"{ranking.query_id} Q0 {doc_id} {rank} {score!r} {tag}")
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_sigma_file(path: str | Path, corpus: Sequence[QueryCandidates]) -> None:
    lines = []
    for query in corpus:
        for doc_id, sigma in zip(query.doc_ids, query.column("sigma").tolist()):
            lines.append(f"{query.query_id} {doc_id} {sigma!r}")
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_neutrality_file(path: str | Path, corpus: Sequence[QueryCandidates]) -> None:
    values: dict[str, float] = {}
    for query in corpus:
        for doc_id, value in zip(query.doc_ids, query.column("neutrality").tolist()):
            if doc_id in values and values[doc_id] != value:
                raise ValueError(
                    f"doc {doc_id!r} has conflicting neutrality scores across queries"
                )
            values[doc_id] = value
    lines = [f"{doc_id} {value!r}" for doc_id, value in values.items()]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_qrels(path: str | Path, judgments: RelevanceJudgments) -> None:
    lines = [
        f"{query_id} 0 {doc_id} {grade}"
        for (query_id, doc_id), grade in judgments.grades.items()
    ]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
