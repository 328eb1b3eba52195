"""Parsers and writers for the plain-text exchange formats.

All formats are whitespace-separated with ``#`` comment lines allowed:

- run file:        ``query_id Q0 doc_id rank score tag``
- sigma file:      ``query_id doc_id sigma``
- neutrality file: ``doc_id neutrality``
- qrels:           ``query_id 0 doc_id grade``
- feature file:    ``query_id doc_id v1 ... vd``
- posterior file:  ``theta d v1..vd`` / ``fisher d v1..vd`` / optional ``damping x``

Floats are written with ``repr`` so a write-parse-write cycle is
byte-identical.
"""

from __future__ import annotations

import logging
import math
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import QueryCandidates, Ranking, ScoredCandidate, build_query, check_neutrality
from .metrics import RelevanceJudgments
from .uncertainty import LastLayerPosterior

logger = logging.getLogger(__name__)


def _data_lines(path: str | Path) -> Iterable[tuple[int, list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped.split()


def _parse_float(path: str | Path, lineno: int, token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {what} is not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: {what} must be finite, got {token!r}")
    return value


def parse_run_file(path: str | Path) -> list[QueryCandidates]:
    """Read a retrieval run into per-query candidates (mu filled, sigma absent).

    Original ranks are recomputed from the scores; the file's rank column
    is validated to be a permutation of 1..n within each query.
    """
    rows: dict[str, list[tuple[str, float, int]]] = {}
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
        score = _parse_float(path, lineno, score_token, "score")
        if (query_id, doc_id) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate entry for ({query_id}, {doc_id})")
        seen.add((query_id, doc_id))
        rows.setdefault(query_id, []).append((doc_id, score, rank, lineno))

    corpus = []
    for query_id, entries in rows.items():
        # n distinct ranks within 1..n are a permutation of 1..n
        used: set[int] = set()
        for _, _, rank, lineno in entries:
            if rank in used or not 1 <= rank <= len(entries):
                raise ValueError(
                    f"{path}:{lineno}: query {query_id!r}: rank {rank} is repeated or outside "
                    f"1..{len(entries)}, so the rank column is not a permutation"
                )
            used.add(rank)
        corpus.append(
            build_query(query_id, [ScoredCandidate(doc_id=d, mu=s) for d, s, _, _ in entries])
        )
    if not corpus:
        logger.warning("run file %s contains no data lines", path)
    return corpus


def parse_sigma_file(path: str | Path) -> dict[tuple[str, str], float]:
    """Read predictive standard deviations keyed by (query_id, doc_id)."""
    sigmas: dict[tuple[str, str], float] = {}
    for lineno, fields in _data_lines(path):
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(fields)}")
        query_id, doc_id, sigma_token = fields
        sigma = _parse_float(path, lineno, sigma_token, "sigma")
        if sigma < 0.0:
            raise ValueError(f"{path}:{lineno}: sigma must be >= 0, got {sigma!r}")
        if (query_id, doc_id) in sigmas:
            raise ValueError(f"{path}:{lineno}: duplicate entry for ({query_id}, {doc_id})")
        sigmas[(query_id, doc_id)] = sigma
    return sigmas


def parse_neutrality_file(path: str | Path) -> dict[str, float]:
    """Read per-document neutrality scores; repeated identical entries are
    tolerated, conflicting ones rejected."""
    scores: dict[str, float] = {}
    for lineno, fields in _data_lines(path):
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(fields)}")
        doc_id, value_token = fields
        value = _parse_float(path, lineno, value_token, "neutrality")
        try:
            check_neutrality(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if doc_id in scores and scores[doc_id] != value:
            raise ValueError(
                f"{path}:{lineno}: conflicting neutrality for {doc_id!r}: "
                f"{scores[doc_id]!r} vs {value!r}"
            )
        scores[doc_id] = value
    return scores


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
        values = [
            _parse_float(path, lineno, token, f"feature value {j + 1}")
            for j, token in enumerate(fields[2:])
        ]
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise ValueError(
                f"{path}:{lineno}: feature dimension {len(values)} differs from {dim}"
            )
        per_query = features.setdefault(query_id, {})
        if doc_id in per_query:
            raise ValueError(f"{path}:{lineno}: duplicate entry for ({query_id}, {doc_id})")
        per_query[doc_id] = np.array(values)
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
        return np.array(
            [_parse_float(path, lineno, v, f"{label} value {j + 1}") for j, v in enumerate(values)]
        )

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


def corpus_from_features(features: Mapping[str, Mapping[str, np.ndarray]]) -> list[QueryCandidates]:
    """Skeleton corpus from a feature file: scores to be filled in later."""
    return [
        build_query(query_id, [ScoredCandidate(doc_id=d, mu=0.0) for d in per_query])
        for query_id, per_query in features.items()
    ]


def attach_sigmas(
    corpus: Sequence[QueryCandidates], sigmas: Mapping[tuple[str, str], float]
) -> list[QueryCandidates]:
    """Join sigma values onto a corpus; every pair must be covered."""
    joined = []
    for query in corpus:
        candidates = []
        for c in query.candidates:
            key = (query.query_id, c.doc_id)
            if key not in sigmas:
                raise ValueError(f"missing sigma for ({query.query_id}, {c.doc_id})")
            candidates.append(replace(c, sigma=sigmas[key]))
        joined.append(QueryCandidates(query_id=query.query_id, candidates=tuple(candidates)))
    return joined


def attach_neutrality(
    corpus: Sequence[QueryCandidates], neutrality: Mapping[str, float]
) -> list[QueryCandidates]:
    """Join neutrality scores onto a corpus; every ranked doc must be covered."""
    joined = []
    for query in corpus:
        candidates = []
        for c in query.candidates:
            if c.doc_id not in neutrality:
                raise ValueError(f"missing neutrality for ({query.query_id}, {c.doc_id})")
            candidates.append(replace(c, neutrality=neutrality[c.doc_id]))
        joined.append(QueryCandidates(query_id=query.query_id, candidates=tuple(candidates)))
    return joined


def write_run_file(path: str | Path, rankings: Iterable[Ranking], tag: str = "pufr") -> None:
    lines = []
    for ranking in rankings:
        for rank, (doc_id, score) in enumerate(ranking.entries, start=1):
            lines.append(f"{ranking.query_id} Q0 {doc_id} {rank} {score!r} {tag}")
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_sigma_file(path: str | Path, corpus: Sequence[QueryCandidates]) -> None:
    lines = []
    for query in corpus:
        for c in query.by_original_rank():
            if c.sigma is None:
                raise ValueError(
                    f"query {query.query_id!r}: candidate {c.doc_id!r} has no sigma"
                )
            lines.append(f"{query.query_id} {c.doc_id} {c.sigma!r}")
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_neutrality_file(path: str | Path, corpus: Sequence[QueryCandidates]) -> None:
    values: dict[str, float] = {}
    for query in corpus:
        for c in query.by_original_rank():
            if c.neutrality is None:
                raise ValueError(
                    f"query {query.query_id!r}: candidate {c.doc_id!r} has no neutrality score"
                )
            if c.doc_id in values and values[c.doc_id] != c.neutrality:
                raise ValueError(
                    f"doc {c.doc_id!r} has conflicting neutrality scores across queries"
                )
            values[c.doc_id] = c.neutrality
    lines = [f"{doc_id} {value!r}" for doc_id, value in values.items()]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_qrels(path: str | Path, judgments: RelevanceJudgments) -> None:
    lines = [
        f"{query_id} 0 {doc_id} {grade}"
        for (query_id, doc_id), grade in judgments.grades.items()
    ]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
