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
  character but space, tab and ``\n`` is split with one ``str.split()``;
  one pass over its bytes flags each field start, a byte above 32 after
  one up to 32, and one segmented sum counts them from each line's first
  byte: a line must hold no field or the file's number of fields;
- any other block is split line by line, as ``str.splitlines`` splits
  lines, and comment and blank lines are skipped.

Each file column is then converted and checked with one numpy call, and
the rows are grouped by query. The run parser gives the grouped columns to
:meth:`~pufr.core.QueryStack.ranked` (see :func:`parse_run_file`), and the
joins add a flat column to that stack, so no per-query object is built
between the parsers and the corpus (:func:`load_corpus`). A qrels grade
too large for int64 is read by the line walk.

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
byte-identical. The writers read a stack, the run writer a stacked ranking,
and build each row's lines with one join over their interleaved fields
(:func:`_joined_lines`); row i of a ranking is read at ``[i, :n]``, so no
pad is written.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from bisect import bisect_right
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NoReturn

import numpy as np

from .core import QueryStack, StackedRanking, assign_groups
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
    newline holds either no field or ``width`` fields: the field starts, a
    byte above 32 after one up to 32, summed from each line's first byte."""
    starts = codes > 32
    starts[1:] &= codes[:-1] <= 32
    firsts = np.concatenate(([0], newlines + 1))
    per_line = np.add.reduceat(starts, firsts[firsts < len(codes)], dtype=np.intp)
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


def parse_run_file(path: str | Path) -> QueryStack:
    """Read a retrieval run into a stack of queries, ``mu`` filled, queries in
    order of first appearance.

    Original ranks are recomputed from the scores; the file's rank column
    is validated to be a permutation of 1..n within each query. A file with
    no data lines is an error.

    Both checks run once over the whole file, rows grouped by query. Rank
    tokens ``"1".."n"`` for every query, as :func:`write_run_file` writes
    them, pass one list comparison; only other tokens are converted and
    sorted per query. :meth:`QueryStack.ranked` then puts every query in
    original-rank order, sorting only when some query's scores do not
    strictly fall from row to row, and checks the doc ids and scores once.
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
    lengths = list(map(int.__sub__, ends, starts))
    # each query's rank tokens as write_run_file writes them: "1".."n"
    counting, expected = list(map(str, range(1, max(lengths) + 1))), []
    for n in lengths:
        expected += counting[:n]
    if rank_tokens != expected:
        ranks = _column(rank_tokens, np.int64)
        if ranks is None or not all(
            np.array_equal(np.sort(ranks[start:end]), np.arange(1, end - start + 1))
            for start, end in zip(starts, ends)
        ):
            _run_file_error(path)
    try:  # a repeated doc id or a score that is not finite fails here
        return QueryStack.ranked(query_ids, lengths, doc_ids, {"mu": mu})
    except ValueError:
        _run_file_error(path)


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
    doc_ids = tuple(_gathered(fields[1::3], order))
    if order is not None:
        sigmas = sigmas[order]
    bounds = [0] + ends
    # doc ids distinct over the whole file are distinct in every query
    if len(set(doc_ids)) != len(doc_ids) and any(
        len(set(doc_ids[start:end])) != end - start for start, end in zip(bounds, ends)
    ):
        _sigma_file_error(path)
    return {
        query_id: (doc_ids[start:end], sigmas[start:end])
        for query_id, start, end in zip(query_ids, bounds, ends)
    }


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
    corpus: QueryStack, sigmas: Mapping[str, tuple[tuple[str, ...], np.ndarray]]
) -> QueryStack:
    """Join sigma columns from :func:`parse_sigma_file` onto a stack; every
    pair must be covered. A query's column whose doc ids are the query's,
    as :func:`write_sigma_file` writes them, is used as it is."""
    columns = []
    for query_id, start, end in zip(corpus.query_ids, corpus.bounds, corpus.bounds[1:]):
        doc_ids, column = sigmas.get(query_id, ((), np.empty(0)))
        ranked = corpus.doc_ids[start:end]
        if doc_ids != ranked:
            by_doc = dict(zip(doc_ids, column.tolist()))
            try:
                column = list(map(by_doc.__getitem__, ranked))
            except KeyError as exc:
                raise ValueError(f"missing sigma for ({query_id}, {exc.args[0]})") from None
        columns.append(column)
    return corpus.with_column("sigma", np.concatenate(columns))


def attach_neutrality(corpus: QueryStack, neutrality: Mapping[str, float]) -> QueryStack:
    """Join neutrality scores onto a stack; every ranked doc must be covered."""
    try:
        column = list(map(neutrality.__getitem__, corpus.doc_ids))
    except KeyError as exc:
        # the first place of the missing doc is the first place missing
        doc_id = exc.args[0]
        i = bisect_right(corpus.bounds, corpus.doc_ids.index(doc_id)) - 1
        raise ValueError(f"missing neutrality for ({corpus.query_ids[i]}, {doc_id})") from None
    return corpus.with_column("neutrality", column)


def load_corpus(run: str | Path, sigmas: str | Path | None = None,
                neutrality: str | Path | None = None,
                protected_threshold: float | None = None) -> QueryStack:
    """The run file as a stack, joined with the sigma and neutrality files
    given, and given a threshold, labelled with groups; a file that is not
    given is not opened."""
    corpus = parse_run_file(run)
    if sigmas is not None:
        corpus = attach_sigmas(corpus, parse_sigma_file(sigmas))
    if neutrality is not None:
        corpus = attach_neutrality(corpus, parse_neutrality_file(neutrality))
    if protected_threshold is not None:
        corpus = assign_groups(corpus, protected_threshold)
    return corpus


def check_run_tag(tag: str) -> str:
    """A run tag is one whitespace-free field of the run file."""
    if tag.split() != [tag]:
        raise ValueError(f"run tag must be one field without whitespace, got {tag!r}")
    return tag


def write_run_file(path: str | Path, ranked: StackedRanking, tag: str = "pufr") -> None:
    check_run_tag(tag)
    stack = ranked.stack
    suffix, ranks = f" {tag}\n", [f" {rank} " for rank in range(1, stack.real.shape[1] + 1)]
    bounds, texts = stack.bounds, []
    for i, (query_id, start, end) in enumerate(zip(stack.query_ids, bounds, bounds[1:])):
        n, doc_ids = end - start, stack.doc_ids[start:end]
        texts.append(_joined_lines(
            n, f"{query_id} Q0 ", map(doc_ids.__getitem__, ranked.order[i, :n].tolist()),
            ranks[:n], map(repr, ranked.scores[i, :n].tolist()), suffix,
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


def write_sigma_file(path: str | Path, stack: QueryStack) -> None:
    sigmas = list(map(repr, stack.flat("sigma").tolist()))
    texts = [
        _joined_lines(end - start, f"{query_id} ", stack.doc_ids[start:end], " ",
                      sigmas[start:end], "\n")
        for query_id, start, end in zip(stack.query_ids, stack.bounds, stack.bounds[1:])
    ]
    Path(path).write_text("".join(texts), encoding="utf-8")


def write_neutrality_file(path: str | Path, stack: QueryStack) -> None:
    doc_ids, floats = stack.doc_ids, stack.flat("neutrality").tolist()
    values = dict(zip(doc_ids, floats))
    # a repeated doc keeps its last value, so an earlier one that differs conflicts
    if len(values) != len(doc_ids) and list(map(values.get, doc_ids)) != floats:
        seen: dict[str, float] = {}
        for doc_id, value in zip(doc_ids, floats):
            if seen.setdefault(doc_id, value) != value:
                raise ValueError(
                    f"doc {doc_id!r} has conflicting neutrality scores across queries"
                )
    text = _joined_lines(len(values), values.keys(), " ", map(repr, values.values()), "\n")
    Path(path).write_text(text, encoding="utf-8")


def write_qrels(path: str | Path, judgments: RelevanceJudgments) -> None:
    lines = [
        f"{query_id} 0 {doc_id} {grade}"
        for (query_id, doc_id), grade in judgments.grades.items()
    ]
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
