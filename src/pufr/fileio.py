"""Parsers and writers for the plain-text exchange formats.

All formats are whitespace-separated with ``#`` comment lines allowed:

- run file:        ``query_id Q0 doc_id rank score tag``
- sigma file:      ``query_id doc_id sigma``
- neutrality file: ``doc_id neutrality``
- qrels:           ``query_id 0 doc_id grade``
- feature file:    ``query_id doc_id v1 ... vd``
- posterior file:  ``theta d v1..vd`` / ``fisher d v1..vd`` / optional ``damping x``

Every reader takes the file in blocks of whole lines of about 1 MiB, so
a large file is never held whole; a text block (:func:`_blocks`) is read
on to its next ``\n``. The run, sigma, neutrality and qrels parsers share
one column reader, :func:`_columns`, which gives the fields of all data
lines as one flat list, and reads a block in one of two ways:

- a block that is ASCII, holds no ``#`` and no whitespace or control
  character but space, tab and ``\n`` is split with one ``str.split()``,
  and one vectorised pass over its bytes proves that every line holds
  either no field or the file's number of fields;
- any other block is split line by line, as ``str.splitlines`` splits
  lines, and comment and blank lines are skipped.

Each file column is then converted and checked with one numpy call, and
the rows are grouped by query into slices. The run parser checks the rank
column and the original-rank order once over the whole file (see
:func:`parse_run_file`); a qrels grade too large for int64 is read by the
line walk.

The feature parser cuts the file at byte offsets instead, each cut right
after a ``\n`` (:func:`_cuts`), and converts each block into one
``(n, d)`` array. On a host that gives the process more than one CPU, a
file of more than one block is split between the process, which reads
and converts the even blocks, and one forked helper, which reads and
converts the odd ones and sends them back through a pipe; see
:func:`parse_features_file`.

Only when a check fails is the file walked line by line, so that the error
names the first bad ``path:line`` in file order.

Floats are written with ``repr`` so a write-parse-write cycle is
byte-identical. The run, sigma and neutrality writers build each query's
lines with one join over their interleaved fields (:func:`_joined_lines`).
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NoReturn, Sequence

import numpy as np

from .core import QueryCandidates, Ranking
from .metrics import RelevanceJudgments
from .uncertainty import LastLayerPosterior


_BLOCK_CHARS = 1 << 20


def _blocks(path: str | Path) -> Iterator[str]:
    """The text of a file in blocks of ``_BLOCK_CHARS`` characters, each read
    on to the end of its line. Universal newlines make every line end in
    ``\n``, a ``str.splitlines`` break, so every block but the last ends
    with one and the blocks split into the lines of the whole text."""
    with open(path, encoding="utf-8") as fh:
        while block := fh.read(_BLOCK_CHARS) + fh.readline():
            yield block


def _data_lines(path: str | Path) -> Iterable[tuple[int, list[str]]]:
    """(line number, fields) of each line that is neither blank nor a
    comment. Lines are split and numbered as ``str.splitlines`` does on the
    whole text."""
    lineno = 0
    for block in _blocks(path):
        for line in block.splitlines():
            lineno += 1
            fields = line.split()
            if fields and not fields[0].startswith("#"):
                yield lineno, fields


def _columns(path: str | Path, width: int) -> list[str] | None:
    """The fields of every data line in file order, as one flat list, so that
    field j of the lines is ``fields[j::width]``; None when a data line holds
    another number of fields. See the module docstring for the two ways a
    block is read."""
    fields: list[str] = []
    for block in _blocks(path):
        if block.isascii() and "#" not in block:
            codes = np.frombuffer(block.encode("ascii"), dtype=np.uint8)
            newlines = np.flatnonzero(codes == 10)
            # no control character but tabs and newlines, so the bytes up to
            # 32 are exactly the whitespace str.split() splits on
            if np.count_nonzero(codes < 32) == len(newlines) + np.count_nonzero(codes == 9):
                if not _lines_hold(codes, newlines, width):
                    return None
                fields += block.split()
                continue
        for line in block.splitlines():
            tokens = line.split()
            if tokens and not tokens[0].startswith("#"):
                if len(tokens) != width:
                    return None
                fields += tokens
    return fields


def _lines_hold(codes: np.ndarray, newlines: np.ndarray, width: int) -> bool:
    """Whether every line of a block whose only whitespace is space, tab and
    newline holds either no field or ``width`` fields: the field starts
    before each newline, counted by a search, differ by 0 or ``width``."""
    space = np.empty(len(codes) + 1, dtype=bool)
    space[0] = True
    np.less_equal(codes, 32, out=space[1:])
    starts = np.flatnonzero(space[:-1] > space[1:])
    per_line = np.diff(np.searchsorted(starts, newlines), prepend=0, append=len(starts))
    return bool(((per_line == 0) | (per_line == width)).all())


def _grouped(keys: list[str]) -> tuple[list[str], list[int], np.ndarray | None]:
    """The distinct keys in order of first appearance, and where each key's
    rows end once the rows are grouped by key, each key's rows in file
    order. The grouping order is None when every key's rows are contiguous
    already, as they are when every key comes in one run, and otherwise the
    row positions key by key (see :func:`_gathered`)."""
    index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    codes = np.fromiter(map(index.__getitem__, keys), dtype=np.intp, count=len(keys))
    ends = np.cumsum(np.bincount(codes)).tolist()
    order = None if (codes[1:] >= codes[:-1]).all() else np.argsort(codes, kind="stable")
    return list(index), ends, order


def _gathered(values: list[str], order: np.ndarray | None) -> list[str]:
    """``values`` in a grouping order from :func:`_grouped`."""
    return values if order is None else list(map(values.__getitem__, order.tolist()))


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
    """Parse a row of finite floats; an error names the first bad value."""
    return np.array(
        [_parse_float(path, lineno, t, f"{what} {j + 1}") for j, t in enumerate(tokens)]
    )


def parse_run_file(path: str | Path) -> list[QueryCandidates]:
    """Read a retrieval run into per-query candidates (mu filled, sigma absent).

    Original ranks are recomputed from the scores; the file's rank column
    is validated to be a permutation of 1..n within each query. A file with
    no data lines is an error.

    Both checks run once over the whole file, rows grouped by query. Rank
    tokens ``"1".."n"`` for every query, as :func:`write_run_file` writes
    them, pass one list comparison; only other tokens are converted and
    sorted per query. A query whose scores strictly fall from row to row is
    built as it is; one with ties or rows out of order is sorted by
    :meth:`QueryCandidates.ranked`.
    """
    fields = _columns(path, 6)
    if not fields:
        _run_file_error(path)
    mu = _column(fields[4::6], np.float64)
    if mu is None:
        _run_file_error(path)
    query_ids, ends, order = _grouped(fields[0::6])
    doc_ids, rank_tokens = _gathered(fields[2::6], order), _gathered(fields[3::6], order)
    if order is not None:
        mu = mu[order]
    starts = [0] + ends[:-1]
    # each query's rank tokens as write_run_file writes them: "1".."n"
    counting, expected = list(map(str, range(1, max(map(int.__sub__, ends, starts)) + 1))), []
    for start, end in zip(starts, ends):
        expected += counting[: end - start]
    if rank_tokens != expected:
        ranks = _column(rank_tokens, np.int64)
        if ranks is None or not all(
            np.array_equal(np.sort(ranks[start:end]), np.arange(1, end - start + 1))
            for start, end in zip(starts, ends)
        ):
            _run_file_error(path)
    falls = np.empty(len(mu), dtype=bool)
    np.less(mu[1:], mu[:-1], out=falls[1:])
    falls[starts] = True  # a query's first row follows no row of its own
    unsorted = set(np.searchsorted(ends, np.flatnonzero(~falls), side="right").tolist())
    corpus = []
    try:  # a repeated doc id or a score that is not finite fails here
        for i, (query_id, start, end) in enumerate(zip(query_ids, starts, ends)):
            build = QueryCandidates.ranked if i in unsorted else QueryCandidates
            corpus.append(build(query_id, doc_ids[start:end], mu[start:end]))
    except ValueError:
        _run_file_error(path)
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
    fields = _columns(path, 3)
    if fields is None:
        _sigma_file_error(path)
    sigmas = _column(fields[2::3], np.float64)
    if sigmas is None or not (np.isfinite(sigmas) & (sigmas >= 0.0)).all():
        _sigma_file_error(path)
    query_ids, ends, order = _grouped(fields[0::3])
    doc_ids, parsed = _gathered(fields[1::3], order), {}
    if order is not None:
        sigmas = sigmas[order]
    for query_id, start, end in zip(query_ids, [0] + ends[:-1], ends):
        docs = tuple(doc_ids[start:end])
        if len(set(docs)) != len(docs):
            _sigma_file_error(path)
        parsed[query_id] = (docs, sigmas[start:end])
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
    fields = _columns(path, 2)
    if fields is None:
        _neutrality_file_error(path)
    doc_ids = fields[0::2]
    values = _column(fields[1::2], np.float64)
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
    """Read graded relevance judgments; unknown doc ids are allowed.
    Repeated identical judgments are tolerated, conflicting ones rejected."""
    fields = _columns(path, 4)
    column = None if fields is None else _column(fields[3::4], np.int64)
    if column is None or (column < 0).any():
        return _walked_qrels(path)
    keys, grades = list(zip(fields[0::4], fields[2::4])), column.tolist()
    judged = dict(zip(keys, grades))
    # a repeated pair keeps its last grade, so an earlier one that differs conflicts
    if len(judged) != len(keys) and list(map(judged.get, keys)) != grades:
        return _walked_qrels(path)
    return RelevanceJudgments(grades=judged)


def _walked_qrels(path: str | Path) -> RelevanceJudgments:
    """:func:`parse_qrels` line by line: it reads grades too large for int64
    and raises for the first bad line in file order."""
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
    """Read last-layer input features per (query, doc); one common dimension.

    The file is cut into blocks of about ``_BLOCK_CHARS`` bytes, each cut
    right after a ``\n`` (:func:`_cuts`), and each block becomes the
    ``(query, doc)`` keys of its data lines and one ``(n, d)`` float array,
    converted in one call (:func:`_feature_block`). When this process may
    run on more than one CPU and the file holds more than one block, a
    forked helper reads and converts the odd blocks while this process
    reads and converts the even ones, and sends its parts back in one
    pickle; otherwise, and when the helper cannot be started, this process
    converts every block, as it also does with the helper's blocks when the
    helper fails to send them. The parts are merged in block order, so
    queries and docs keep their order of first appearance, and each vector
    is a row of its block's array. A failed check anywhere sends the file
    to :func:`_features_file_error`, whose line walk names the first bad
    ``path:line``.
    """
    parts = _feature_parts(path)
    if any(part is None for part in parts):
        _features_file_error(path)
    features: dict[str, dict[str, np.ndarray]] = {}
    for keys, matrix in parts:
        for (query_id, doc_id), row in zip(keys, matrix):
            per_query = features.setdefault(query_id, {})
            if doc_id in per_query:
                _features_file_error(path)
            per_query[doc_id] = row
    if len({matrix.shape[1] for keys, matrix in parts if keys}) > 1:
        _features_file_error(path)
    return features


_FeaturePart = tuple[list[tuple[str, str]], np.ndarray]


def _cuts(path: str | Path) -> list[int]:
    """Byte offsets that cut a file into blocks of about ``_BLOCK_CHARS``
    bytes: 0, each next cut right after the first ``\n`` at least
    ``_BLOCK_CHARS`` bytes on, and the file size. A cut after ``\n`` falls
    between UTF-8 characters and between lines, ``\r\n`` ones too."""
    size = os.path.getsize(path)
    cuts = [0]
    with open(path, "rb") as fh:
        while cuts[-1] < size:
            fh.seek(cuts[-1] + _BLOCK_CHARS)
            fh.readline()
            cuts.append(min(fh.tell(), size))
    return cuts


def _feature_blocks(
    path: str | Path, cuts: list[int], first: int, step: int
) -> list[_FeaturePart | None]:
    """The :func:`_feature_block` parts of blocks ``first``, ``first + step``,
    ... of a file cut at ``cuts``, reading only those blocks; None for a
    block that is not UTF-8. Each block's bytes are dropped once decoded."""
    parts: list[_FeaturePart | None] = []
    with open(path, "rb") as fh:
        for start, end in islice(zip(cuts, cuts[1:]), first, None, step):
            fh.seek(start)
            try:
                block = fh.read(end - start).decode("utf-8")
            except UnicodeDecodeError:
                parts.append(None)
                continue
            parts.append(_feature_block(block))
    return parts


def _feature_block(block: str) -> _FeaturePart | None:
    """The (query, doc) keys of a block's data lines and their vectors as
    one (n, d) array; None when a line holds fewer than 3 fields or another
    number than the block's first data line, or a value is not a finite
    number. ``str.splitlines`` splits ``\r\n`` and ``\r`` as universal
    newlines would."""
    keys: list[tuple[str, str]] = []
    values: list[str] = []
    dim = 0
    for line in block.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        dim = dim or len(fields) - 2
        if len(fields) - 2 != dim or dim < 1:
            return None
        keys.append((fields[0], fields[1]))
        values += fields[2:]
    matrix = _column(values, np.float64)
    if matrix is None or not np.isfinite(matrix).all():
        return None
    return keys, matrix.reshape(len(keys), dim)


def _feature_parts(path: str | Path) -> list[_FeaturePart | None]:
    """The :func:`_feature_block` part of every block of a feature file, in
    block order, the odd blocks converted by a forked helper when that pays
    (see :func:`parse_features_file`). Each process reads only the blocks
    it converts. The helper is always reaped; if this process raises, the
    helper is killed first. When no pipe or helper can be made, this
    process converts every block, with no pipe end left open."""
    cuts = _cuts(path)
    if not (
        hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and len(cuts) > 2
    ):
        return _feature_blocks(path, cuts, 0, 1)
    fds: tuple[int, ...] = ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:  # out of processes or file descriptors
        for fd in fds:
            os.close(fd)
        return _feature_blocks(path, cuts, 0, 1)
    if pid == 0:
        _feature_helper(path, cuts, read_fd, write_fd)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            mine = _feature_blocks(path, cuts, 0, 2)
            try:
                theirs = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # the helper ended before it sent
                theirs = None
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or theirs is None:
        theirs = _feature_blocks(path, cuts, 1, 2)
    parts: list[_FeaturePart | None] = [None] * (len(mine) + len(theirs))
    parts[0::2], parts[1::2] = mine, theirs
    return parts


def _feature_helper(path: str | Path, cuts: list[int], read_fd: int, write_fd: int) -> NoReturn:
    """The forked helper of :func:`_feature_parts`: convert the odd blocks,
    send their parts through the pipe in one pickle and exit, never
    returning into the caller's code."""
    status = 1
    try:
        os.close(read_fd)
        parts = _feature_blocks(path, cuts, 1, 2)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(parts, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _features_file_error(path: str | Path) -> NoReturn:
    """Walk a feature file that failed a block check line by line and raise
    for its first bad line in file order. A byte that is not UTF-8 anywhere
    in the file is reported first, as reading the whole file as text
    reports it."""
    for _ in _blocks(path):
        pass
    dim: int | None = None
    seen: set[tuple[str, str]] = set()
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
        if (query_id, doc_id) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate entry for ({query_id}, {doc_id})")
        seen.add((query_id, doc_id))
    raise RuntimeError(f"{path}: a block check failed but no line is at fault")


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
                column = list(map(by_doc.__getitem__, query.doc_ids))
            except KeyError as exc:
                raise ValueError(f"missing sigma for ({query.query_id}, {exc.args[0]})") from None
        joined.append(query.with_column("sigma", column))
    return joined


def attach_neutrality(
    corpus: Sequence[QueryCandidates], neutrality: Mapping[str, float]
) -> list[QueryCandidates]:
    """Join neutrality scores onto a corpus; every ranked doc must be covered."""
    joined = []
    for query in corpus:
        try:
            column = list(map(neutrality.__getitem__, query.doc_ids))
        except KeyError as exc:
            raise ValueError(f"missing neutrality for ({query.query_id}, {exc.args[0]})") from None
        joined.append(query.with_column("neutrality", column))
    return joined


def check_run_tag(tag: str) -> str:
    """A run tag is one whitespace-free field of the run file."""
    if tag.split() != [tag]:
        raise ValueError(f"run tag must be one field without whitespace, got {tag!r}")
    return tag


def write_run_file(path: str | Path, rankings: Iterable[Ranking], tag: str = "pufr") -> None:
    check_run_tag(tag)
    suffix, ranks, texts = f" {tag}\n", [], []
    for ranking in rankings:
        n = len(ranking.order)
        # " {rank} " strings, built once per call up to the longest ranking
        ranks += [f" {rank} " for rank in range(len(ranks) + 1, n + 1)]
        texts.append(_joined_lines(
            n, f"{ranking.query_id} Q0 ", ranking.doc_ids(), ranks[:n],
            map(repr, ranking.scores.tolist()), suffix,
        ))
    Path(path).write_text("".join(texts), encoding="utf-8")


def _joined_lines(n: int, *columns: str | Iterable[str]) -> str:
    """``n`` lines, each the concatenation of one piece from every column, in
    one join: a str column gives the same piece on every line, any other
    column one piece per line."""
    pieces: list[str] = [""] * (n * len(columns))
    for j, column in enumerate(columns):
        pieces[j :: len(columns)] = [column] * n if isinstance(column, str) else column
    return "".join(pieces)


def write_sigma_file(path: str | Path, corpus: Iterable[QueryCandidates]) -> None:
    texts = [
        _joined_lines(
            len(query), f"{query.query_id} ", query.doc_ids, " ",
            map(repr, query.column("sigma").tolist()), "\n",
        )
        for query in corpus
    ]
    Path(path).write_text("".join(texts), encoding="utf-8")


def write_neutrality_file(path: str | Path, corpus: Iterable[QueryCandidates]) -> None:
    values: dict[str, float] = {}
    for query in corpus:
        scores = dict(zip(query.doc_ids, query.column("neutrality").tolist()))
        if not values.keys().isdisjoint(scores):
            for doc_id in query.doc_ids:
                if doc_id in values and values[doc_id] != scores[doc_id]:
                    raise ValueError(
                        f"doc {doc_id!r} has conflicting neutrality scores across queries"
                    )
        values.update(scores)
    text = _joined_lines(len(values), values.keys(), " ", map(repr, values.values()), "\n")
    Path(path).write_text(text, encoding="utf-8")


def write_qrels(path: str | Path, judgments: RelevanceJudgments) -> None:
    lines = [
        f"{query_id} 0 {doc_id} {grade}"
        for (query_id, doc_id), grade in judgments.grades.items()
    ]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
