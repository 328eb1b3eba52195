import contextlib
import errno
import math
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pufr.baselines import compute_m_table, fastar_rerank, unfair_rank
from pufr.core import (
    QueryStack,
    ScoredCandidate,
    StackedRanking,
    assign_groups,
    build_query,
    rank_by_score,
)
from pufr.metrics import RelevanceJudgments
from pufr.sweep import REGISTRY
from pufr.synth import SyntheticConfig, generate_synthetic
from pufr import fileio

import oracles
from conftest import make_query, query_key, rows, stacked_rankings


class TestParseRunFile:
    def test_field_mapping(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("q1 Q0 d7 1 8.25 bertmini\n")
        corpus = fileio.parse_run_file(path)
        assert len(corpus) == 1
        (c,) = rows(corpus[0])
        assert (corpus.query_ids[0], c.doc_id, c.mu) == ("q1", "d7", 8.25)
        assert c.sigma is None and c.neutrality is None

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no data lines$"):
            fileio.parse_run_file(path)

    def test_five_columns_cite_the_line(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("q1 Q0 d7 1 8.25 tag\nq1 Q0 d8 2 7.5\n")
        with pytest.raises(ValueError, match=r":2:"):
            fileio.parse_run_file(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("q1 Q0 d7 1 8.25 t\nq1 Q0 d7 2 3.0 t\n")
        with pytest.raises(ValueError, match="duplicate"):
            fileio.parse_run_file(path)

    def test_bad_rank_column_rejected(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("q1 Q0 d7 1 8.25 t\nq1 Q0 d8 3 3.0 t\n")
        with pytest.raises(ValueError, match="permutation"):
            fileio.parse_run_file(path)

    def test_repeated_rank_cites_its_line_briefly(self, tmp_path):
        path = tmp_path / "run"
        ranks = list(range(1, 1001))
        ranks[700] = 3  # line 701 repeats the rank of line 3
        path.write_text("".join(f"q1 Q0 d{i} {r} {-i}.0 t\n" for i, r in enumerate(ranks)))
        with pytest.raises(ValueError, match=r":701:.*permutation") as info:
            fileio.parse_run_file(path)
        assert len(str(info.value)) < 200

    def test_rank_outside_range_cites_its_line(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("q1 Q0 d7 1 8.25 t\nq2 Q0 d8 1 3.0 t\nq1 Q0 d9 0 2.0 t\n")
        with pytest.raises(ValueError, match=r":3: query 'q1': rank 0 .*1\.\.2"):
            fileio.parse_run_file(path)

    def test_non_numeric_score_cites_line(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("q1 Q0 d7 1 high t\n")
        with pytest.raises(ValueError, match=r":1:.*score"):
            fileio.parse_run_file(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("# a comment\n\nq1 Q0 d7 1 8.25 t\n")
        assert len(fileio.parse_run_file(path)) == 1

    def test_original_rank_recomputed_from_scores(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("q1 Q0 low 1 1.0 t\nq1 Q0 high 2 9.0 t\n")
        corpus = fileio.parse_run_file(path)
        assert corpus[0].doc_ids == ("high", "low")


class TestParseSigmaFile:
    def test_basic(self, tmp_path):
        path = tmp_path / "sig"
        path.write_text("q1 d7 0.31\n")
        ((query_id, (doc_ids, sigmas)),) = fileio.parse_sigma_file(path).items()
        assert (query_id, doc_ids, sigmas.dtype, sigmas.tolist()) == (
            "q1", ("d7",), np.float64, [0.31]
        )

    def test_negative_sigma_rejected(self, tmp_path):
        path = tmp_path / "sig"
        path.write_text("q1 d7 -0.5\n")
        with pytest.raises(ValueError, match="sigma"):
            fileio.parse_sigma_file(path)

    def test_join_error_names_the_pair(self, tmp_path):
        run = tmp_path / "run"
        run.write_text("q1 Q0 d7 1 8.25 t\nq1 Q0 d8 2 3.0 t\n")
        sig = tmp_path / "sig"
        sig.write_text("q1 d7 0.31\n")
        corpus = fileio.parse_run_file(run)
        with pytest.raises(ValueError, match=r"\(q1, d8\)"):
            fileio.attach_sigmas(corpus, fileio.parse_sigma_file(sig))


class TestParseNeutralityFile:
    def test_basic(self, tmp_path):
        path = tmp_path / "neu"
        path.write_text("d7 1.0\n")
        assert fileio.parse_neutrality_file(path) == {"d7": 1.0}

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "neu"
        path.write_text("d8 1.5\n")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            fileio.parse_neutrality_file(path)

    def test_duplicate_equal_accepted_unequal_rejected(self, tmp_path):
        ok = tmp_path / "ok"
        ok.write_text("d7 0.5\nd7 0.5\n")
        assert fileio.parse_neutrality_file(ok) == {"d7": 0.5}
        bad = tmp_path / "bad"
        bad.write_text("d7 0.5\nd7 0.6\n")
        with pytest.raises(ValueError, match="conflicting"):
            fileio.parse_neutrality_file(bad)

    def test_join_error_names_the_pair(self, tmp_path):
        run = tmp_path / "run"
        run.write_text("q1 Q0 d7 1 8.25 t\n")
        corpus = fileio.parse_run_file(run)
        with pytest.raises(ValueError, match=r"\(q1, d7\)"):
            fileio.attach_neutrality(corpus, {})


class TestParseQrels:
    def test_basic(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("q1 0 d7 1\nq1 0 d8 0\n")
        judgments = fileio.parse_qrels(path)
        assert judgments.grades.get(("q1", "d7"), 0) == 1
        assert judgments.grades.get(("q1", "d8"), 0) == 0
        assert judgments.grades.get(("q1", "unknown"), 0) == 0

    def test_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("q1 0 d7 -1\n")
        with pytest.raises(ValueError, match="grade"):
            fileio.parse_qrels(path)

    def test_empty_gives_empty_judgments(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("# nothing\n")
        assert fileio.parse_qrels(path).grades == {}

    @pytest.mark.parametrize("block", [5, 1 << 20])
    @pytest.mark.parametrize("text, walks", [
        ("q1 0 a 1\nq1 0 b 0\nq2 0 a 3\nq1 0 a 1\n", False),  # a repeat, equal grades
        ("q1 0 a 1\nq2 0 a 2\nq1 0 a 2\n", True),  # a repeat, conflicting grades
        ("q1 0 a 1\nq1 0 b -1\n", True),  # a negative grade
        ("q1 0 a 1\nq1 0 b 12345678901234567890\n", True),  # 20 digits overflow int64
        ("q1 0 a 1\nq1 0 b 1.0\n", True),  # not an integer
        ("q1 0 a 1\nq1 0 b\n", True),  # three fields
        ("# c\nq1 0 a +1\n\n  # indented\nq2\t0\tb 0_2\nq1 0 c -0\n", False),
    ])
    def test_columns_give_the_line_walks_grades_and_messages(self, tmp_path, block, text, walks):
        path = tmp_path / "qrels"
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(fileio, "_BLOCK_CHARS", block), \
                mock.patch.object(fileio, "_walked_qrels", wraps=fileio._walked_qrels) as walk:
            kind, got = outcome(fileio.parse_qrels, path)
        assert walk.call_count == walks
        want_kind, want = outcome(fileio._walked_qrels, path)
        assert kind == want_kind
        if kind == "error":
            assert got == want
        else:
            assert list(got.grades.items()) == list(want.grades.items())
            assert all(type(grade) is int for grade in got.grades.values())


class TestParseFeaturesAndPosterior:
    def test_features(self, tmp_path):
        path = tmp_path / "feat"
        path.write_text("q1 d1 0.5 1.5\nq1 d2 -1.0 2.0\nq2 d3 0.0 0.25\n")
        features = fileio.parse_features_file(path)
        assert set(features) == {"q1", "q2"}
        np.testing.assert_allclose(features["q1"]["d2"], [-1.0, 2.0])

    def test_inconsistent_dimension_rejected(self, tmp_path):
        path = tmp_path / "feat"
        path.write_text("q1 d1 0.5 1.5\nq1 d2 -1.0\n")
        with pytest.raises(ValueError, match="dimension"):
            fileio.parse_features_file(path)

    def test_posterior_with_damping(self, tmp_path):
        path = tmp_path / "post"
        path.write_text("theta 2 0.5 -0.25\nfisher 2 4.0 2.0\ndamping 0.5\n")
        posterior = fileio.parse_posterior_file(path)
        np.testing.assert_allclose(posterior.theta_map, [0.5, -0.25])
        np.testing.assert_allclose(posterior.fisher_diag, [4.5, 2.5])
        assert posterior.damping == 0.5

    def test_posterior_without_damping(self, tmp_path):
        path = tmp_path / "post"
        path.write_text("theta 1 1.0\nfisher 1 2.0\n")
        posterior = fileio.parse_posterior_file(path)
        np.testing.assert_allclose(posterior.fisher_diag, [2.0])

    def test_posterior_zero_fisher_needs_damping(self, tmp_path):
        path = tmp_path / "post"
        path.write_text("theta 1 1.0\nfisher 1 0.0\n")
        with pytest.raises(ValueError, match="positive"):
            fileio.parse_posterior_file(path)

    def test_posterior_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "post"
        path.write_text("theta 3 1.0 2.0\nfisher 3 1.0 1.0 1.0\n")
        with pytest.raises(ValueError, match="dimension 3"):
            fileio.parse_posterior_file(path)

    # numpy >= 2 reprs a float64 as "np.float64(x)"; writers must emit
    # repr(float(x)), and the parsers reject the numpy form with file:line.
    def test_features_numpy_repr_token_rejected(self, tmp_path):
        path = tmp_path / "feat"
        path.write_text("q1 d1 0.5 1.5\nq1 d2 np.float64(0.5) 2.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: feature value 1")):
            fileio.parse_features_file(path)

    def test_posterior_numpy_repr_token_rejected(self, tmp_path):
        path = tmp_path / "post"
        path.write_text("theta 2 0.5 np.float64(0.5)\nfisher 2 4.0 2.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: theta value 2")):
            fileio.parse_posterior_file(path)


def outcome(parse, *args):
    """What a parser returns, or the message it raises."""
    try:
        return "ok", parse(*args)
    except ValueError as exc:
        return "error", str(exc)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Ordinary reprs mixed with tokens at the edges of what float() accepts:
# signed zero, subnormals, digit separators, non-ASCII digits, overflow to
# inf, nan and inf, C99 hex floats and numpy-2 reprs.
_EDGE_TOKENS = [
    "-0.0", "5e-324", "-2.5e-310", "1_000", "\u0661\u0662", "1e400", "-1e400",
    "nan", "inf", "-inf", "0x1p3", "np.float64(0.5)",
]
_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(_EDGE_TOKENS),
)


class TestBulkFloatParsing:
    """Whole-row parsing gives the per-token oracle's bits and messages."""

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 6), data=st.data())
    def test_features_match_the_per_token_oracle(self, width, data):
        rows = data.draw(st.lists(
            st.lists(_tokens, min_size=width, max_size=width), min_size=1, max_size=3
        ))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "feat"
            path.write_text(
                "".join(f"q{i % 2} d{i} " + " ".join(row) + "\n" for i, row in enumerate(rows)),
                encoding="utf-8",
            )
            kind, got = outcome(fileio.parse_features_file, path)
            want_kind, want = outcome(oracles.scalar_parse_features_file, path)
        assert kind == want_kind
        if kind == "error":
            assert got == want
            return
        assert list(got) == list(want)
        for query_id, per_query in want.items():
            assert list(got[query_id]) == list(per_query)
            for doc_id, vector in per_query.items():
                assert same_bits(got[query_id][doc_id], vector)

    @settings(max_examples=300, deadline=None)
    @given(row=st.lists(_tokens, min_size=1, max_size=6))
    def test_posterior_theta_matches_the_per_token_oracle(self, row):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "post"
            path.write_text(
                f"theta {len(row)} {' '.join(row)}\nfisher {len(row)} {' 1.0' * len(row)}\n",
                encoding="utf-8",
            )
            kind, got = outcome(fileio.parse_posterior_file, path)
            want_kind, want = outcome(oracles.scalar_floats, path, 1, row, "theta value")
        assert kind == want_kind
        if kind == "error":
            assert got == want
        else:
            assert same_bits(got.theta_map, want)

    def test_first_bad_value_of_a_row_is_named(self, tmp_path):
        path = tmp_path / "feat"
        path.write_text("q1 d1 0.5 1.5 2.5\nq1 d2 0.5 nan 0x1p3\n")
        with pytest.raises(ValueError) as info:
            fileio.parse_features_file(path)
        assert str(info.value) == f"{path}:2: feature value 2 must be finite, got 'nan'"

    def test_fisher_line_uses_its_own_label(self, tmp_path):
        path = tmp_path / "post"
        path.write_text("theta 2 0.5 0.25\nfisher 2 1.0 1e400\n")
        with pytest.raises(ValueError) as info:
            fileio.parse_posterior_file(path)
        assert str(info.value) == f"{path}:2: fisher value 2 must be finite, got '1e400'"


def _feature_lines(seed, dim=3):
    """Feature lines whose queries split across blocks and interleave: q0 in a
    long run, then q1 and q2 in turn, then q0 again, with comment and blank
    lines among them and a few values at the edges of what float() reads."""
    rng = np.random.default_rng(seed)
    keys = ([("q0", f"a{j:02d}") for j in range(14)]
            + [(f"q{1 + j % 2}", f"b{j:02d}") for j in range(16)]
            + [("q0", f"c{j:02d}") for j in range(6)])
    edges = ["-0.0", "5e-324", "1_000", "١٢", "1e-300"]
    lines = []
    for i, (query_id, doc_id) in enumerate(keys):
        values = [repr(v) for v in rng.normal(size=dim).tolist()]
        if i % 5 == 2:
            values[i % dim] = edges[i % len(edges)]
        lines.append(f"{query_id} {doc_id} " + " ".join(values))
        if i % 9 == 4:
            lines.append(["# a comment", "", "  \t", "\t# indented"][i % 4])
    return lines


def _is_data(line):
    return bool(line.split()) and not line.split()[0].startswith("#")


def _write_lines(path, lines, newline="\n", final_newline=True):
    text = newline.join(lines) + (newline if final_newline else "")
    path.write_bytes(text.encode("utf-8"))


def _feature_file_blocks(path):
    """The bytes of each block the feature parser cuts the file into."""
    data, cuts = path.read_bytes(), fileio._cuts(path)
    return [data[start:end] for start, end in zip(cuts, cuts[1:])]


def _block_of_line(path, lineno):
    """The index of the feature-file block that holds the 1-based line ``lineno``."""
    seen = 0
    for index, block in enumerate(_feature_file_blocks(path)):
        seen += len(block.decode("utf-8").splitlines())
        if lineno <= seen:
            return index
    raise AssertionError(f"{path} has fewer than {lineno} lines")


@contextlib.contextmanager
def _two_processes(block, cpus=(0, 1)):
    """Blocks of ``block`` characters and a host of ``len(cpus)`` CPUs; yields
    the mock that counts forks."""
    with mock.patch.object(fileio, "_BLOCK_CHARS", block), \
            mock.patch("os.sched_getaffinity", return_value=set(cpus), create=True), \
            mock.patch("os.fork", wraps=os.fork) as fork:
        yield fork


def _same_features(got, want):
    return list(got) == list(want) and all(
        list(got[query_id]) == list(per_query)
        and all(same_bits(got[query_id][doc_id], vector) for doc_id, vector in per_query.items())
        for query_id, per_query in want.items()
    )


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a fault put on a data line, given its fields and the doc ids of the earlier
# lines of its query: a token that is not a number, one value more, or the
# first of those doc ids
_FAULTS = {
    "bad token": lambda fields, earlier: fields[:3] + ["0.5x"] + fields[4:],
    "dimension": lambda fields, earlier: fields + ["1.0"],
    "duplicate": lambda fields, earlier: fields[:1] + earlier[:1] + fields[2:],
}


def _faulted(path, lines, fault, parity, start=0):
    """The lines with ``fault`` on the first data line from ``start`` on whose
    block, once the fault is in, has the given parity (0: a block the caller
    converts, 1: one the helper converts); and that line's number."""
    for i in range(start, len(lines)):
        if not _is_data(lines[i]):
            continue
        fields = lines[i].split()
        earlier = [other.split()[1] for other in lines[:i]
                   if _is_data(other) and other.split()[0] == fields[0]]
        if fault == "duplicate" and not earlier:
            continue
        changed = lines[:i] + [" ".join(_FAULTS[fault](fields, earlier))] + lines[i + 1:]
        _write_lines(path, changed)
        if _block_of_line(path, i + 1) % 2 == parity:
            return changed, i + 1
    raise AssertionError(f"no line for {fault!r} in a block of parity {parity}")


class TestTwoProcessFeatureParse:
    """The feature file parsed by this process and a forked helper, block by
    block, gives the per-token oracle's bits, order and error messages: blocks
    are made small so that both processes convert several of them."""

    @pytest.mark.parametrize("block", [40, 97, 300])
    @pytest.mark.parametrize("newline, final_newline", [("\n", True), ("\r\n", False)])
    def test_bits_and_order_match_the_oracle(self, tmp_path, block, newline, final_newline):
        path = tmp_path / "feat"
        _write_lines(path, _feature_lines(block), newline, final_newline)
        with _two_processes(block) as fork:
            assert len(_feature_file_blocks(path)) >= 4
            got = fileio.parse_features_file(path)
        assert fork.call_count == 1
        want = oracles.scalar_parse_features_file(path)
        assert _same_features(got, want)
        assert [len(per_query) for per_query in got.values()] == [20, 8, 8]

    @pytest.mark.parametrize("block", [40, 97, 300])
    @pytest.mark.parametrize("parity", [0, 1], ids=["caller block", "helper block"])
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_a_fault_in_either_process_is_the_oracles_error(self, tmp_path, block, parity, fault):
        path = tmp_path / "feat"
        with _two_processes(block) as fork:
            _, lineno = _faulted(path, _feature_lines(7), fault, parity, start=3)
            kind, got = outcome(fileio.parse_features_file, path)
        assert fork.call_count == 1
        assert (kind, got) == outcome(oracles.scalar_parse_features_file, path)
        assert got.startswith(f"{path}:{lineno}: ")

    @pytest.mark.parametrize("first", [0, 1], ids=["caller first", "helper first"])
    def test_the_first_of_two_faults_in_file_order_is_named(self, tmp_path, first):
        path = tmp_path / "feat"
        with _two_processes(60):
            lines, lineno = _faulted(path, _feature_lines(3), "bad token", first, start=2)
            _faulted(path, lines, "dimension", 1 - first, start=lineno + 8)
            assert _block_of_line(path, lineno) % 2 == first
            kind, got = outcome(fileio.parse_features_file, path)
        assert (kind, got) == outcome(oracles.scalar_parse_features_file, path)
        assert got.startswith(f"{path}:{lineno}: ")

    @pytest.mark.parametrize("cpus, one_block", [([0], False), ([0, 1], True)],
                             ids=["one CPU", "one block"])
    def test_one_cpu_or_a_file_of_one_block_pays_no_fork(self, tmp_path, cpus, one_block):
        path = tmp_path / "feat"
        _write_lines(path, _feature_lines(11))
        with _two_processes(path.stat().st_size if one_block else 50, cpus) as fork:
            got = fileio.parse_features_file(path)
        assert fork.call_count == 0
        assert _same_features(got, oracles.scalar_parse_features_file(path))

    @pytest.mark.parametrize("helper", ["sends", "dies"])
    def test_this_process_reads_only_the_blocks_it_converts(self, tmp_path, helper):
        path = tmp_path / "feat"
        _write_lines(path, _feature_lines(13), "\r\n")
        caller, convert, read = os.getpid(), fileio._feature_block, []

        def recording(block):
            if os.getpid() == caller:
                read.append(block)
            return convert(block)

        dies = mock.patch.object(fileio, "_feature_helper", lambda *args: os._exit(1))
        with _two_processes(64) as fork, \
                mock.patch.object(fileio, "_feature_block", recording), \
                dies if helper == "dies" else contextlib.nullcontext():
            got = fileio.parse_features_file(path)
            blocks = _feature_file_blocks(path)
        assert fork.call_count == 1 and len(blocks) >= 4
        # the helper's blocks are read here only when the helper sent nothing
        text = [block.decode("utf-8") for block in blocks]
        assert read == text[0::2] + (text[1::2] if helper == "dies" else [])
        assert _same_features(got, oracles.scalar_parse_features_file(path))

    @pytest.mark.parametrize("block", [40, 1 << 20])
    def test_a_byte_that_is_not_utf8_is_reported_before_any_bad_line(self, tmp_path, block):
        path = tmp_path / "feat"
        lines = _feature_lines(3)
        lines[1] += " 1.0"  # a dimension fault before the bad byte
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8") + b"q0 d\xff 1.0 2.0 3.0\n")
        with _two_processes(block):
            with pytest.raises(UnicodeDecodeError) as want:
                list(fileio._blocks(path))
            with pytest.raises(UnicodeDecodeError) as got:
                fileio.parse_features_file(path)
        assert str(got.value) == str(want.value)


class TestNoHelperOutlivesTheParse:
    """Whatever happens, no child process is left once the parse returns or
    raises."""

    def test_after_a_success(self, tmp_path):
        path = tmp_path / "feat"
        _write_lines(path, _feature_lines(5))
        _assert_no_child()
        with _two_processes(64) as fork:
            fileio.parse_features_file(path)
        assert fork.call_count == 1
        _assert_no_child()

    def test_after_a_malformed_file(self, tmp_path):
        path = tmp_path / "feat"
        with _two_processes(64) as fork:
            _faulted(path, _feature_lines(5), "bad token", 1)
            with pytest.raises(ValueError, match="feature value 2 is not a number"):
                fileio.parse_features_file(path)
        assert fork.call_count == 1
        _assert_no_child()

    def test_after_a_helper_that_dies_before_it_sends(self, tmp_path):
        path = tmp_path / "feat"
        _write_lines(path, _feature_lines(5))
        with _two_processes(64, cpus=[0]):
            serial = fileio.parse_features_file(path)
        with _two_processes(64) as fork, \
                mock.patch.object(fileio, "_feature_helper", lambda *args: os._exit(1)):
            got = fileio.parse_features_file(path)
        assert fork.call_count == 1
        assert _same_features(got, serial)
        _assert_no_child()

    @pytest.mark.parametrize("failing", ["os.fork", "os.pipe"])
    def test_when_no_helper_can_start_this_process_parses_alone(self, tmp_path, failing):
        path = tmp_path / "feat"
        _write_lines(path, _feature_lines(5))
        unavailable = OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        opened, make_pipe = [], os.pipe

        def pipe():
            fds = make_pipe()
            opened.extend(fds)
            return fds

        with _two_processes(64), \
                mock.patch("os.pipe", pipe), \
                mock.patch(failing, side_effect=unavailable) as fails:
            got = fileio.parse_features_file(path)
        assert fails.call_count == 1
        for fd in opened:
            with pytest.raises(OSError) as info:
                os.fstat(fd)
            assert info.value.errno == errno.EBADF
        _assert_no_child()
        assert _same_features(got, oracles.scalar_parse_features_file(path))

    def test_after_the_callers_own_block_parse_raises(self, tmp_path):
        path = tmp_path / "feat"
        _write_lines(path, _feature_lines(5))
        caller, convert = os.getpid(), fileio._feature_block

        def fails_in_the_caller(block):
            if os.getpid() == caller:
                raise RuntimeError("the caller failed")
            return convert(block)

        with _two_processes(64) as fork, \
                mock.patch.object(fileio, "_feature_block", fails_in_the_caller):
            with pytest.raises(RuntimeError, match="the caller failed"):
                fileio.parse_features_file(path)
        assert fork.call_count == 1
        _assert_no_child()


_ARABIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_FULLWIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))
# Spellings that int() reads as the rank itself, and rank tokens that repeat
# a rank, lie outside 1..n or are not integers; 20 digits overflow numpy's int64.
_RANK_SPELLINGS = [str, "+{}".format, "0{}".format, "0_{}".format,
                   lambda r: str(r).translate(_ARABIC), lambda r: str(r).translate(_FULLWIDTH)]
_BAD_RANKS = ["1", "2", "0", "-0", "5.", "1.0", "0x10", "1e3", "nan", "99999999999999999999",
              "-99999999999999999999"]
# Tied and signed-zero scores and odd spellings float() accepts; then ones it
# rejects or reads as non-finite.
_SCORES = ["0.0", "-0.0", "-0", "1.5", "1.5", "-2.0", "1_0", "+5", "5.",
           "\u0661\u0660", "\uff11\uff12"]
_BAD_SCORES = ["1e400", "-1e400", "nan", "inf", "0x10", "np.float64(0.5)", "high"]
_COMMENTS = ["# comment", "", "   ", "\t# indented", "#"]
_score_tokens = st.one_of(
    st.sampled_from(_SCORES), st.floats(allow_nan=False, allow_infinity=False).map(repr)
)


def _file_text(draw, lines):
    """The lines with comment and blank lines put in among them."""
    lines = list(lines)
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_COMMENTS)))
    return "".join(line + "\n" for line in lines)


def _run_entries(draw):
    """Valid run entries of up to 3 queries, interleaved half of the time."""
    entries = []
    for q in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 5))
        docs = draw(st.permutations([f"d{i}" for i in range(6)]))[:n]
        ranks = draw(st.permutations(range(1, n + 1)))
        for doc, rank in zip(docs, ranks):
            rank_token = draw(st.sampled_from(_RANK_SPELLINGS))(rank)
            entries.append([f"q{q}", "Q0", doc, rank_token, draw(_score_tokens), "t"])
    return draw(st.permutations(entries)) if draw(st.booleans()) else entries


def _corrupted(draw, entries, bad_fields):
    """Up to two corruptions: a bad token in one of ``bad_fields`` (field
    index -> tokens), a repeated entry, or a wrong field count."""
    entries = [list(entry) for entry in entries]
    for _ in range(draw(st.integers(0, 2 if entries else 0))):
        i = draw(st.integers(0, len(entries) - 1))
        kind = draw(st.sampled_from(["token", "repeat", "token", "fields"]))
        if kind == "token":
            field = draw(st.sampled_from(sorted(bad_fields)))
            if field < len(entries[i]):  # an entry cut short may lack the field
                entries[i][field] = draw(st.sampled_from(bad_fields[field]))
        elif kind == "repeat":
            entries.insert(draw(st.integers(0, len(entries))), list(entries[i]))
        else:
            entries[i] = entries[i][:-1] if draw(st.booleans()) else entries[i] + ["x"]
    return entries


def _outcomes(tmp, text, parse, oracle):
    path = Path(tmp) / "file"
    path.write_text(text, encoding="utf-8")
    return outcome(parse, path), outcome(oracle, path)


def _same_queries(got, want):
    return list(map(query_key, got)) == list(map(query_key, want))


class TestBulkColumnParsing:
    """The column-wise run, sigma and neutrality parsers give the line-by-line
    oracles' columns, bit for bit, and their error messages, word for word."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_run_file_matches_the_line_oracle(self, data):
        entries = _corrupted(data.draw, _run_entries(data.draw), {3: _BAD_RANKS, 4: _BAD_SCORES})
        text = _file_text(data.draw, (" ".join(entry) for entry in entries))
        with tempfile.TemporaryDirectory() as tmp:
            (kind, got), (want_kind, want) = _outcomes(
                tmp, text, fileio.parse_run_file, oracles.parse_run_file
            )
        assert kind == want_kind
        assert got == want if kind == "error" else _same_queries(got, want)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), order=st.sampled_from(["original rank", "run", "shuffled", "by doc"]))
    def test_sigma_file_and_join_match_the_line_oracle(self, data, order):
        with tempfile.TemporaryDirectory() as tmp:
            run_path = Path(tmp) / "run"
            run = _run_entries(data.draw)
            run_path.write_text("".join(" ".join(e) + "\n" for e in run), encoding="utf-8")
            corpus = oracles.parse_run_file(run_path)
            # in original-rank order, as write_sigma_file writes, the join
            # takes the columns as they are; in any other, it goes by doc id
            pairs = [(q.query_ids[0], d) for q in corpus for d in q.doc_ids]
            if order == "run":
                pairs = [(q, d) for q, _, d, _, _, _ in run]
            elif order == "shuffled":
                pairs = data.draw(st.permutations(pairs))
            elif order == "by doc":
                pairs = sorted(pairs, key=lambda pair: pair[1])
            sigma = st.one_of(
                st.sampled_from(["0.0", "-0.0", "0.25", "1_0", "+5", "5.", "\u0661"]),
                st.floats(min_value=0.0, allow_infinity=False).map(repr),
            )
            entries = [[q, d, data.draw(sigma)] for q, d in pairs]
            if data.draw(st.booleans()):
                del entries[data.draw(st.integers(0, len(entries) - 1))]  # a missing pair
            if data.draw(st.booleans()):
                entries.append(["q0", "unranked", "0.5"])
            entries = _corrupted(data.draw, entries, {2: ["-0.5", "-1e-300", "nan", "inf", "x"]})
            (kind, got), (want_kind, want) = _outcomes(
                tmp, _file_text(data.draw, (" ".join(e) for e in entries)),
                fileio.parse_sigma_file, oracles.parse_sigma_file,
            )
        assert kind == want_kind
        if kind == "error":
            assert got == want
            return
        for query_id, (doc_ids, sigmas) in got.items():
            assert sigmas.dtype == np.float64
            assert doc_ids == tuple(d for q, d in want if q == query_id)
            assert [s.hex() for s in sigmas.tolist()] == [
                want[query_id, d].hex() for d in doc_ids
            ]
        assert sum(len(doc_ids) for doc_ids, _ in got.values()) == len(want)
        (kind, joined), (want_kind, want_joined) = (
            outcome(fileio.attach_sigmas, QueryStack(corpus), got),
            outcome(oracles.attach_sigmas, corpus, want),
        )
        assert kind == want_kind
        assert joined == want_joined if kind == "error" else _same_queries(joined, want_joined)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_neutrality_file_matches_the_line_oracle(self, data):
        # equal values in several spellings, so that repeats are mostly equal
        values = [["0.0", "-0.0", "0", "0_0"], ["1.0", "1", "\u0661", "+1.0"],
                  ["0.5", "5e-1", ".5"], ["0.25", "2.5e-1"]]
        spellings = {d: data.draw(st.sampled_from(values)) for d in ("a", "b", "c")}
        entries = []
        for d in data.draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=8)):
            # one entry in eight may take another value: a conflict if d repeats
            group = spellings[d] if data.draw(st.integers(0, 7)) else data.draw(
                st.sampled_from(values))
            entries.append([d, data.draw(st.sampled_from(group))])
        bad = ["1.5", "-0.1", "0_5", "nan", "inf", "x", "np.float64(0.5)"]
        entries = _corrupted(data.draw, entries, {1: bad})
        with tempfile.TemporaryDirectory() as tmp:
            (kind, got), (want_kind, want) = _outcomes(
                tmp, _file_text(data.draw, (" ".join(e) for e in entries)),
                fileio.parse_neutrality_file, oracles.parse_neutrality_file,
            )
        assert kind == want_kind
        if kind == "error":
            assert got == want
        else:
            assert [(d, v.hex()) for d, v in got.items()] == [
                (d, v.hex()) for d, v in want.items()
            ]


# scores with exact ties among them, signed zeros included
_TIED_SCORES = st.one_of(st.sampled_from([2.0, 1.5, 0.0, -0.0, -1.0]),
                         st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _run_files(draw):
    """Run-file text mostly as write_run_file writes it, each query in one
    run of lines with rank tokens "1".."n" and scores that do not rise,
    then changed in the ways the whole-file rank and order checks must
    notice: respelled, swapped or broken rank tokens, lines moved or
    shuffled so that queries split, a repeated line, tab-separated fields,
    and comment and blank lines."""
    entries = []
    for q in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 6))
        scores = sorted(draw(st.lists(_TIED_SCORES, min_size=n, max_size=n)), reverse=True)
        docs = draw(st.permutations([f"d{i}" for i in range(8)]))[:n]
        entries += [[f"q{q}", "Q0", doc, str(rank), repr(score), "t"]
                    for rank, (doc, score) in enumerate(zip(docs, scores), start=1)]
    rows = st.integers(0, len(entries) - 1)
    if draw(st.booleans()):
        i = draw(rows)
        entries[i][3] = draw(st.sampled_from(_RANK_SPELLINGS))(int(entries[i][3]))
    if draw(st.booleans()):  # still a permutation when both rows share a query
        i, j = draw(rows), draw(rows)
        entries[i][3], entries[j][3] = entries[j][3], entries[i][3]
    if draw(st.integers(0, 3)) == 0:
        entries[draw(rows)][3] = draw(st.sampled_from(_BAD_RANKS))
    if draw(st.booleans()):
        entries.insert(draw(rows), entries.pop(draw(rows)))
    if draw(st.integers(0, 3)) == 0:
        entries = draw(st.permutations(entries))
    if draw(st.integers(0, 7)) == 0:
        entries.insert(draw(rows), list(entries[draw(rows)]))
    separators = st.sampled_from([" ", " ", "\t"])
    return _file_text(draw, (draw(separators).join(entry) for entry in entries))


class TestWholeFileRunChecks:
    """The run parser checks ranks and original-rank order once over the
    whole file, and gives the per-query parser's and the line oracle's
    corpus, bit for bit and in order, or their error, word for word."""

    @settings(max_examples=300, deadline=None)
    @given(text=_run_files())
    def test_run_file_matches_the_per_query_parser(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            got = _outcomes(tmp, text, fileio.parse_run_file, oracles.parse_run_file_per_query)
            lines = _outcomes(tmp, text, fileio.parse_run_file, oracles.parse_run_file)
        for (kind, result), (want_kind, want) in (got, lines):
            assert kind == want_kind
            assert result == want if kind == "error" else _same_queries(result, want)

    def test_queries_in_any_row_order_load_in_original_rank_order(self, tmp_path):
        path = tmp_path / "run"
        path.write_text(
            "a Q0 x 1 2.0 t\na Q0 y 2 1.0 t\n"  # in order
            "b Q0 x 1 1.0 t\nb Q0 y 2 1.0 t\n"  # tied
            "c Q0 x 2 1.0 t\nc Q0 y 1 2.0 t\n"  # out of order
            "d Q0 x 01 3.0 t\nd Q0 y +2 -3.0 t\n",  # respelled ranks
            encoding="utf-8",
        )
        corpus = fileio.parse_run_file(path)
        assert [q.doc_ids for q in corpus] == [("x", "y"), ("x", "y"), ("y", "x"), ("x", "y")]
        assert _same_queries(corpus, oracles.parse_run_file(path))

    @pytest.mark.parametrize("fault", [None, "repeated doc", "nan", "-inf"])
    def test_shuffled_lines_with_tied_scores_load_as_before(self, tmp_path, fault):
        # every query of two or more docs has exact ties and its lines out
        # of order, so each is sorted by QueryStack.ranked
        rng = np.random.default_rng(17)
        lines = []
        for q in range(30):
            n = int(rng.integers(1, 25))
            scores = rng.choice(["2.5", "1.0", "1.0", "0.0", "-0.0", "-3"], n)
            ranks = rng.permutation(n) + 1
            lines += [[f"q{q}", "Q0", f"d{j}", str(rank), score, "t"]
                      for j, (rank, score) in enumerate(zip(ranks, scores))]
        lines = [lines[i] for i in rng.permutation(len(lines))]
        if fault == "repeated doc":
            twin = next(i for i, line in enumerate(lines[:-1]) if line[0] == lines[-1][0])
            lines[-1][2] = lines[twin][2]
        elif fault is not None:
            lines[len(lines) // 2][4] = fault
        path = tmp_path / "run"
        path.write_text("".join(" ".join(line) + "\n" for line in lines), encoding="utf-8")
        (kind, got), (want_kind, want) = outcome(fileio.parse_run_file, path), outcome(
            oracles.parse_run_file, path)
        assert kind == want_kind == ("ok" if fault is None else "error")
        assert got == want if kind == "error" else _same_queries(got, want)


# doc ids whose Python str order is not their order in a numpy string
# array, which drops trailing NULs, nor their byte order
_ASCII_IDS = ["a", "b", "B", "d10", "d9"]
_LOAD_IDS = _ASCII_IDS + ["a\x00", "\u00e9"]


@st.composite
def _corpus_texts(draw):
    """Run, sigma and neutrality file texts of a ragged corpus: one-doc
    queries among longer ones, docs in more than one query, exact score
    ties, run rows out of score order and split between queries, sigma rows
    in another order, and now and then a sigma pair or a neutrality score
    missing."""
    ids = draw(st.sampled_from([_ASCII_IDS, _LOAD_IDS]))
    run, pairs = [], []
    for q in range(draw(st.integers(1, 5))):
        docs = draw(st.permutations(ids))[:draw(st.integers(1, len(ids)))]
        ranks = draw(st.permutations(range(1, len(docs) + 1)))
        run += [f"q{q} Q0 {doc} {rank} {draw(_TIED_SCORES)!r} t" for doc, rank in zip(docs, ranks)]
        pairs += [(f"q{q}", doc) for doc in docs]
    sigma = [f"{q} {d} {draw(st.sampled_from(['0.0', '-0.0', '0.5', '2']))}"
             for q, d in draw(st.permutations(pairs))]
    neutrality = [f"{d} {draw(st.sampled_from(['0', '-0.0', '0.5', '1']))}" for d in ids]
    for rows in (sigma, neutrality):
        if draw(st.integers(0, 5)) == 0:
            del rows[draw(st.integers(0, len(rows) - 1))]
    return ["".join(line + "\n" for line in rows)
            for rows in (draw(st.permutations(run)), sigma, neutrality)]


def _stack_key(stack):
    """Everything a stack holds, floats by their bits, and each row view."""
    return (stack.query_ids, stack.lengths.tolist(), stack.doc_ids,
            [stack.column(name).tobytes() for name in ("mu", "sigma", "neutrality", "protected")],
            list(map(query_key, stack)))


class TestStackedLoad:
    """The loaders build the corpus as one stack, from flat columns, and give
    the stack the per-query load gave: each query sorted on its own, its
    columns attached one query at a time, then stacked; or its error."""

    @settings(max_examples=300, deadline=None)
    @given(texts=_corpus_texts(), threshold=st.sampled_from([1.0, 0.5]))
    def test_the_stack_is_the_per_query_load_bit_for_bit(self, texts, threshold):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / name for name in ("run", "sigma", "neutrality")]
            for path, text in zip(paths, texts):
                path.write_text(text, encoding="utf-8")
            (kind, got), (want_kind, want) = (outcome(fileio.load_corpus, *paths, threshold),
                                              outcome(oracles.load_per_query, *paths, threshold))
        assert kind == want_kind
        assert got == want if kind == "error" else _stack_key(got) == _stack_key(want)

    # run rows out of score order: q2 holds d (5.0), c; q1 holds y (3.0), z, x
    _RUN = "q2 Q0 c 2 1.0 t\nq1 Q0 x 3 0.5 t\nq1 Q0 y 1 3.0 t\nq1 Q0 z 2 2.0 t\nq2 Q0 d 1 5.0 t\n"

    @pytest.mark.parametrize("missing, message", [
        ({("q1", "x"), ("q1", "z")}, "missing sigma for (q1, z)"),
        ({("q1", "x"), ("q1", "z"), ("q2", "c")}, "missing sigma for (q2, c)"),
        ({("q1", "y"), ("q2", "d")}, "missing sigma for (q2, d)"),
        ({("q2", "c"), ("q2", "d"), ("q1", "x"), ("q1", "y"), ("q1", "z")},
         "missing sigma for (q2, d)"),
    ])
    def test_a_missing_sigma_names_the_first_pair_in_corpus_and_rank_order(
            self, tmp_path, missing, message):
        run, sigma = tmp_path / "run", tmp_path / "sigma"
        run.write_text(self._RUN, encoding="utf-8")
        pairs = [("q1", d) for d in "xyz"] + [("q2", d) for d in "cd"]
        sigma.write_text("".join(f"{q} {d} 0.5\n" for q, d in pairs if (q, d) not in missing))
        for load in (lambda: fileio.attach_sigmas(fileio.parse_run_file(run),
                                                  fileio.parse_sigma_file(sigma)),
                     lambda: oracles.load_per_query(run, sigma)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load()

    @pytest.mark.parametrize("missing, message", [
        ("xz", "missing neutrality for (q1, z)"),
        ("cxz", "missing neutrality for (q2, c)"),
        ("dy", "missing neutrality for (q2, d)"),
        ("y", "missing neutrality for (q1, y)"),
    ])
    def test_a_missing_neutrality_names_the_first_pair_in_corpus_and_rank_order(
            self, tmp_path, missing, message):
        run, neutrality = tmp_path / "run", tmp_path / "neutrality"
        run.write_text(self._RUN, encoding="utf-8")
        neutrality.write_text("".join(f"{d} 1.0\n" for d in "xyzcd" if d not in missing))
        for load in (lambda: fileio.attach_neutrality(fileio.parse_run_file(run),
                                                      fileio.parse_neutrality_file(neutrality)),
                     lambda: oracles.load_per_query(run, neutrality=neutrality)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load()

    def test_a_doc_in_two_queries_missing_neutrality_names_its_first_query(self, tmp_path):
        run, neutrality = tmp_path / "run", tmp_path / "neutrality"
        run.write_text("q1 Q0 a 1 2.0 t\nq2 Q0 b 1 2.0 t\nq2 Q0 a 2 1.0 t\nq1 Q0 b 2 1.0 t\n")
        neutrality.write_text("a 0.5\n")
        with pytest.raises(ValueError, match=r"^missing neutrality for \(q1, b\)$"):
            fileio.attach_neutrality(fileio.parse_run_file(run),
                                     fileio.parse_neutrality_file(neutrality))

    @settings(max_examples=200, deadline=None)
    @given(texts=_corpus_texts(), data=st.data())
    def test_the_sigma_join_in_any_row_order_is_the_per_query_load(self, texts, data):
        """A sigma file in the stack's place order and the same rows in
        another order give the per-query load's stack, bit for bit."""
        with tempfile.TemporaryDirectory() as tmp:
            run, placed, moved = (Path(tmp) / name for name in ("run", "placed", "moved"))
            run.write_text(texts[0], encoding="utf-8")
            corpus = fileio.parse_run_file(run)
            lines = [f"{query_id} {d} {data.draw(st.sampled_from(['0.0', '-0.0', '0.5', '2']))}\n"
                     for query_id, q in zip(corpus.query_ids, corpus) for d in q.doc_ids]
            placed.write_text("".join(lines), encoding="utf-8")
            moved.write_text("".join(data.draw(st.permutations(lines))), encoding="utf-8")
            stacks = [fileio.attach_sigmas(corpus, fileio.parse_sigma_file(sigma))
                      for sigma in (placed, moved)]
            want = oracles.load_per_query(run, placed)
        for got in stacks:
            assert (got.flat("sigma").tobytes(), list(map(query_key, got))) == (
                want.flat("sigma").tobytes(), list(map(query_key, want)))

    # run rows in score order, so that the places are the rows in file order
    _PLACED = ("q1 Q0 y 1 3.0 t\nq1 Q0 z 2 2.0 t\nq1 Q0 x 3 0.5 t\n"
               "q2 Q0 d 1 5.0 t\nq2 Q0 c 2 1.0 t\n")
    _PAIRS = "q1 y 0.5\nq1 z 0.25\nq1 x 1.0\nq2 d 0.0\nq2 c 2.0\n"

    @pytest.mark.parametrize("run, sigma, message", [
        (_PLACED, _PAIRS, None),
        (_PLACED, "".join(reversed(_PAIRS.splitlines(True))), None),
        (_PLACED, _PAIRS.replace("q1 z 0.25\n", ""), "missing sigma for (q1, z)"),
        (_PLACED, _PAIRS.replace("q2 c", "q1 c"), "missing sigma for (q2, c)"),
        (_PLACED, _PAIRS + "q1 z 0.25\n", "{path}:6: duplicate entry for (q1, z)"),
        (_PLACED, _PAIRS + "q1 w 0.5\n", None),
        (_PLACED, _PAIRS + "q3 y 0.5\n", None),
        (_PLACED, "q3 y 0.5\n" + _PAIRS, None),
        (_PLACED, _PAIRS.replace("0.25", "-0.25"), "{path}:2: sigma must be >= 0, got -0.25"),
        (_PLACED, _PAIRS.replace("0.25", "nan"), "{path}:2: sigma must be finite, got 'nan'"),
        (_PLACED, _PAIRS.replace("2.0", "-1") + "q1 y 1\n",
         "{path}:5: sigma must be >= 0, got -1.0"),
        (_PLACED, _PAIRS.replace("1.0", "x") + "q1 y 1\n",
         "{path}:3: sigma is not a number: 'x'"),
        (_PLACED, "q1 y 1\n" + _PAIRS.replace("2.0", "-1"),
         "{path}:2: duplicate entry for (q1, y)"),
        (_RUN, _PAIRS, None),
        (_RUN, "q2 c 0.5\nq1 x 0.5\nq1 y 0.5\nq1 z 0.5\nq2 d 0.5\n", None),
        (_PLACED.replace(" c ", " y "), _PAIRS.replace("q2 c", "q2 y"), None),
        (_PLACED.replace(" c ", " y "), _PAIRS.replace("q2 c", "q2 y").replace("q1 y 0.5\n", ""),
         "missing sigma for (q1, y)"),
        (_PLACED.replace(" c ", " y "), "q1 y 0.5\nq2 d 0\nq1 z 0.25\nq2 y 2\nq1 x 1\n", None),
    ], ids=["places", "reversed", "missing pair", "pair in another query", "repeated pair",
            "extra pair", "extra query last", "extra query first", "negative", "nan",
            "negative before repeat", "not a number before repeat", "repeat before negative",
            "run out of score order", "run order", "doc in two queries",
            "doc in two queries missing", "doc in two queries interleaved"])
    def test_the_sigma_join_gives_the_per_query_loads_stack_or_error(
            self, tmp_path, run, sigma, message):
        run_path, sigma_path = tmp_path / "run", tmp_path / "sigma"
        run_path.write_text(run, encoding="utf-8")
        sigma_path.write_text(sigma, encoding="utf-8")
        (kind, got), (want_kind, want) = (outcome(fileio.load_corpus, run_path, sigma_path),
                                          outcome(oracles.load_per_query, run_path, sigma_path))
        assert (kind, want_kind) == (("ok", "ok") if message is None else ("error", "error"))
        if message is None:
            assert (got.flat("sigma").tobytes(), list(map(query_key, got))) == (
                want.flat("sigma").tobytes(), list(map(query_key, want)))
        else:
            assert got == want == message.format(path=sigma_path)

    @pytest.mark.parametrize("shared", [False, True], ids=["distinct docs", "shared docs"])
    @pytest.mark.parametrize("shuffled", [False, True], ids=["places", "shuffled"])
    def test_a_load_groups_the_run_and_the_sigma_rows_once_each(
            self, tmp_path, shared, shuffled):
        """The join takes the sigma file's grouping from its parser, so a
        load groups two files' rows, whatever order the sigma rows are in
        and whether doc ids repeat across queries."""
        corpus, _ = fixture_corpus(seed=3, n_queries=7, n_candidates=9)
        run, sigma = tmp_path / "run", tmp_path / "sigma"
        fileio.write_run_file(run, unfair_rank(corpus))
        fileio.write_sigma_file(sigma, corpus)
        for path in (run, sigma) if shared else ():
            # q3-d004 becomes d004, a doc id of every query
            path.write_text(re.sub(r"\S+-(d\d{3}) ", r"\1 ", path.read_text()))
        if shuffled:
            lines = sigma.read_text().splitlines(True)
            sigma.write_text("".join(np.random.default_rng(0).permutation(lines)))
        with mock.patch.object(fileio, "_grouped", wraps=fileio._grouped) as grouped:
            loaded = fileio.load_corpus(run, sigma)
        assert grouped.call_count == 2
        want = oracles.load_per_query(run, sigma)
        assert (loaded.flat("sigma").tobytes(), list(map(query_key, loaded))) == (
            want.flat("sigma").tobytes(), list(map(query_key, want)))
        assert len(set(loaded.doc_ids)) == (9 if shared else 63)

    def test_an_empty_corpus_cannot_be_stacked(self):
        for queries in ([], iter(())):
            with pytest.raises(ValueError, match="^cannot stack an empty corpus$"):
                QueryStack(queries)


# every line boundary str.splitlines knows; the reader opens files with
# universal newlines, so "\r" and "\r\n" reach it as "\n"
_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]


class TestBlockReader:
    """Reading in blocks splits and numbers lines as ``str.splitlines`` does
    on the whole text, wherever a block ends."""

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(st.sampled_from(["a b", "  c\td ", "#x y", "", " ", "\x1f", "é ü"]),
                       max_size=8),
        breaks=st.lists(st.sampled_from(_LINE_BREAKS), min_size=8, max_size=8),
        last_break=st.booleans(),
        block=st.integers(1, 9),
    )
    def test_lines_and_numbers_match_splitlines(self, lines, breaks, last_break, block):
        text = "".join(line + brk for line, brk in zip(lines, breaks))
        if lines and not last_break:
            text = text[: -len(breaks[len(lines) - 1])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.object(fileio, "_BLOCK_CHARS", block):
                got = list(fileio._data_lines(path))
            assert got == list(oracles.data_lines(path))

    @pytest.mark.parametrize("block", range(1, 13))
    def test_every_block_but_the_last_ends_with_a_newline(self, tmp_path, block):
        path = tmp_path / "file"
        text = "".join(f"{j}\t{j}{brk}" for j, brk in enumerate(_LINE_BREAKS * 3))
        path.write_bytes((text + "tail").encode("utf-8"))
        with mock.patch.object(fileio, "_BLOCK_CHARS", block):
            blocks = list(fileio._blocks(path))
        assert all(b.endswith("\n") for b in blocks[:-1])
        assert blocks[-1].endswith("tail")
        universal = text.replace("\r\n", "\n").replace("\r", "\n")
        assert "".join(blocks) == universal + "tail"

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), block=st.integers(1, 40))
    def test_run_file_errors_cite_the_same_line_at_any_block_size(self, data, block):
        entries = _corrupted(data.draw, _run_entries(data.draw), {3: _BAD_RANKS, 4: _BAD_SCORES})
        text = _file_text(data.draw, (" ".join(entry) for entry in entries))
        with tempfile.TemporaryDirectory() as tmp:
            with mock.patch.object(fileio, "_BLOCK_CHARS", block):
                (kind, got), (want_kind, want) = _outcomes(
                    tmp, text, fileio.parse_run_file, oracles.parse_run_file
                )
        assert kind == want_kind
        assert got == want if kind == "error" else _same_queries(got, want)


class TestFeatureFileCuts:
    """The feature file is cut right after a ``\\n``, into blocks of at least
    ``_BLOCK_CHARS`` bytes but the last, that each decode on their own and
    together split into the lines of the whole text."""

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(st.sampled_from(["q d 1.5", "é ü 2", "#x", "", " ", "文書 d 3"]),
                       max_size=10),
        breaks=st.lists(st.sampled_from(_LINE_BREAKS), min_size=10, max_size=10),
        block=st.integers(1, 30),
    )
    def test_blocks_split_into_the_lines_of_the_file(self, lines, breaks, block):
        text = "".join(line + brk for line, brk in zip(lines, breaks))
        data = text.encode("utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "feat"
            path.write_bytes(data)
            with mock.patch.object(fileio, "_BLOCK_CHARS", block):
                cuts = fileio._cuts(path)
        spans = list(zip(cuts, cuts[1:]))
        assert cuts[0] == 0 and cuts[-1] == len(data)
        assert all(start < end for start, end in spans)
        assert all(data[end - 1:end] == b"\n" and end - start >= block
                   for start, end in spans[:-1])
        assert [line for start, end in spans
                for line in data[start:end].decode("utf-8").splitlines()] == text.splitlines()


# separators inside a line: whitespace to str.split() but no line break
_FIELD_SEPARATORS = [" ", " ", "\t", "  \t", "\x1f", "\xa0"]
_IDS = ["d0", "d1", "d2", "d3", "d4", "d5", "dé", "ü", "д7", "d\x7f", "d\x00"]


@st.composite
def _laid_out(draw, entries):
    """The entries as file text: fields joined by one of several separators,
    lines by mostly "\n" and now and then another line break, comment and
    blank lines put in, and the last break dropped half of the time."""
    separators = st.sampled_from(_FIELD_SEPARATORS)
    lines = [
        draw(st.sampled_from(["", "", " ", "\t"]))
        + "".join(entry[:1] + [draw(separators) + field for field in entry[1:]])
        + draw(st.sampled_from(["", "", " ", "\t"]))
        for entry in entries
    ]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_COMMENTS)))
    breaks = [draw(st.sampled_from(["\n"] * 10 + _LINE_BREAKS)) for _ in lines]
    if breaks and draw(st.booleans()):
        breaks[-1] = ""
    return "".join(line + brk for line, brk in zip(lines, breaks))


def _renamed(draw, entries, doc_field):
    """The entries with their doc ids drawn from ``_IDS``, kept distinct within
    a query, non-ASCII and control characters among them."""
    names = draw(st.permutations(_IDS))
    mapping = {f"d{i}": names[i] for i in range(6)}
    return [e[:doc_field] + [mapping.get(e[doc_field], e[doc_field])] + e[doc_field + 1:]
            for e in entries]


class TestSharedColumnReader:
    """The shared column reader, whichever way it reads each block, gives the
    line-by-line oracles' results, bit for bit, and their error messages,
    word for word: blocks are made small so that lines straddle blocks and
    plain blocks, read with one split, sit next to blocks read line by line."""

    @settings(max_examples=250, deadline=None)
    @given(data=st.data(), block=st.integers(1, 64),
           kind=st.sampled_from(["run", "sigma", "neutrality"]))
    def test_parsers_match_the_line_oracles_at_any_block_size(self, data, block, kind):
        draw = data.draw
        if kind == "run":
            entries = _corrupted(draw, _renamed(draw, _run_entries(draw), 2),
                                 {3: _BAD_RANKS, 4: _BAD_SCORES})
            parse, oracle = fileio.parse_run_file, oracles.parse_run_file
        elif kind == "sigma":
            entries = [[q, d, draw(st.sampled_from(["0.5", "0", "-0.0", "1e-3", "\u0661"]))]
                       for q, _, d, _, _, _ in _renamed(draw, _run_entries(draw), 2)]
            entries = _corrupted(draw, entries, {2: ["-0.5", "nan", "inf", "x"]})
            parse, oracle = fileio.parse_sigma_file, oracles.parse_sigma_file
        else:
            entries = [[draw(st.sampled_from(_IDS)), draw(st.sampled_from(["0.5", "1", "0"]))]
                       for _ in range(draw(st.integers(0, 8)))]
            entries = _corrupted(draw, entries, {1: ["1.5", "-0.1", "nan", "x"]})
            parse, oracle = fileio.parse_neutrality_file, oracles.parse_neutrality_file
        text = draw(_laid_out(entries))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file"
            newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
            path.write_bytes(text.replace("\n", newline).encode("utf-8"))
            with mock.patch.object(fileio, "_BLOCK_CHARS", block):
                kind_got, got = outcome(parse, path)
            kind_want, want = outcome(oracle, path)
        assert kind_got == kind_want
        if kind_got == "error":
            assert got == want
        elif kind == "run":
            assert _same_queries(got, want)
        elif kind == "sigma":
            assert {(q, d): s.hex() for q, (docs, sigmas) in got.items()
                    for d, s in zip(docs, sigmas.tolist())} == {
                pair: s.hex() for pair, s in want.items()}
            assert [(q, d) for q, (docs, _) in got.items() for d in docs] == [
                pair for q in got for pair in want if pair[0] == q]
        else:
            assert [(d, v.hex()) for d, v in got.items()] == [
                (d, v.hex()) for d, v in want.items()]

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), width=st.integers(1, 7), block=st.integers(1, 40),
           final_newline=st.booleans())
    def test_the_line_check_accepts_the_blocks_the_search_accepted(
            self, data, width, block, final_newline):
        """The field starts summed per line accept and reject the same plain
        blocks as the field starts counted before each newline by a search:
        blank lines, lines of only blanks, runs of spaces and tabs, blanks
        before and after the fields, and blocks cut anywhere in the file."""
        blanks = st.sampled_from(["", "", " ", "\t", "  ", " \t ", "\t\t"])
        lines = []
        for _ in range(data.draw(st.integers(0, 12))):
            n = data.draw(st.one_of(st.sampled_from([0, width, width]), st.integers(0, 9)))
            fields = [data.draw(st.sampled_from(["a", "1.5", "d\x7f", "!", "-0.0"]))
                      for _ in range(n)]
            lines.append(data.draw(blanks) + "".join(
                fields[:1] + [data.draw(blanks.filter(bool)) + f for f in fields[1:]]
            ) + data.draw(blanks))
        text = "\n".join(lines) + ("\n" if final_newline else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "file"
            path.write_text(text, encoding="ascii")
            with mock.patch.object(fileio, "_BLOCK_CHARS", block):
                blocks = list(fileio._blocks(path))
        for piece in blocks:
            codes = np.frombuffer(piece.encode("ascii"), dtype=np.uint8)
            newlines = np.flatnonzero(codes == 10)
            assert fileio._lines_hold(codes, newlines, width) == oracles.lines_hold(
                codes, newlines, width)

    def test_plain_and_line_split_blocks_meet_in_one_file(self, tmp_path):
        plain = [f"q{i % 3} Q0 d{i} {i // 3 + 1} {-i}.5 t" for i in range(30)]
        other = [f"q{i % 3}\tQ0 dé{i} {i // 3 + 1} {-i}.5 t" for i in range(30, 45)]
        path = tmp_path / "run"
        path.write_text("\n".join(plain + ["# a comment", "\x0b"] + other), encoding="utf-8")
        with mock.patch.object(fileio, "_BLOCK_CHARS", 100), \
                mock.patch.object(fileio, "_lines_hold", wraps=fileio._lines_hold) as plain_reads:
            got = fileio.parse_run_file(path)
        assert plain_reads.call_count >= 5
        assert _same_queries(got, oracles.parse_run_file(path))
        # the queries interleave, so each takes its rows by position
        assert got.lengths.tolist() == [15, 15, 15]

    @pytest.mark.parametrize("block", [7, 1 << 20])
    @pytest.mark.parametrize("text, message", [
        ("q1 Q0 a 1 2.0 t\nq1 Q0 b 2 1.0 t x\n", ":2: expected 6 fields, got 7"),
        ("q1 Q0 a 1 2.0 t\n\nq1 Q0 b 2\n", ":3: expected 6 fields, got 4"),
        ("q1 Q0 a 1 2.0 t\n# c\nq1 Q0 b 2 1.0\n", ":3: expected 6 fields, got 5"),
        ("q1 Q0 a 1 2.0 t\nq2 Q0 a 1 1.0 t\nq1 Q0 a 2 0.5 t", ":3: duplicate entry for (q1, a)"),
        ("q1 Q0 a 1 2.0 t\x0bq1 Q0 b 1 nan t\n", ":2: score must be finite, got 'nan'"),
        ("q1 Q0 a 2 2.0 t\nq2 Q0 b 1 1.0 t\n",
         ":1: query 'q1': rank 2 is repeated or outside 1..1, so the rank column is not a "
         "permutation"),
    ])
    def test_a_malformed_run_file_names_its_line(self, tmp_path, block, text, message):
        path = tmp_path / "run"
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(fileio, "_BLOCK_CHARS", block):
            with pytest.raises(ValueError, match=re.escape(f"{path}{message}") + "$"):
                fileio.parse_run_file(path)

    @pytest.mark.parametrize("block", [5, 1 << 20])
    @pytest.mark.parametrize("parse, text, message", [
        (fileio.parse_sigma_file, "q a 0.5\nq b\n", ":2: expected 3 fields, got 2"),
        (fileio.parse_sigma_file, "q a 0.5\nq b -1\n", ":2: sigma must be >= 0, got -1.0"),
        (fileio.parse_sigma_file, "q a 0.5\nr a 1\nq a 1\n", ":3: duplicate entry for (q, a)"),
        (fileio.parse_neutrality_file, "a 0.5\nb 1 1\n", ":2: expected 2 fields, got 3"),
        (fileio.parse_neutrality_file, "a 0.5\nb 1\na 0.25\n",
         ":3: conflicting neutrality for 'a': 0.5 vs 0.25"),
    ])
    def test_a_malformed_sigma_or_neutrality_file_names_its_line(
        self, tmp_path, block, parse, text, message
    ):
        path = tmp_path / "file"
        path.write_text(text, encoding="utf-8")
        with mock.patch.object(fileio, "_BLOCK_CHARS", block):
            with pytest.raises(ValueError, match=re.escape(f"{path}{message}") + "$"):
                parse(path)


def fixture_corpus(seed=0, n_queries=6, n_candidates=8):
    cfg = SyntheticConfig(n_queries=n_queries, n_candidates=n_candidates, seed=seed)
    return generate_synthetic(cfg)


class TestRoundTrips:
    def test_corpus_round_trip_is_field_identical(self, tmp_path):
        corpus, _ = fixture_corpus()
        run, sig, neu = tmp_path / "run", tmp_path / "sig", tmp_path / "neu"
        fileio.write_run_file(run, unfair_rank(corpus), tag="t")
        fileio.write_sigma_file(sig, corpus)
        fileio.write_neutrality_file(neu, corpus)
        parsed = fileio.parse_run_file(run)
        parsed = fileio.attach_sigmas(parsed, fileio.parse_sigma_file(sig))
        parsed = fileio.attach_neutrality(parsed, fileio.parse_neutrality_file(neu))
        parsed = [assign_groups(q) for q in parsed]
        assert list(map(query_key, parsed)) == list(map(query_key, corpus))

    def test_double_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(167)
        for trial in range(10):
            corpus, judgments = fixture_corpus(seed=int(rng.integers(1 << 30)))
            paths = {name: tmp_path / f"{name}{trial}" for name in
                     ("run", "sig", "neu", "qrels")}
            fileio.write_run_file(paths["run"], unfair_rank(corpus))
            fileio.write_sigma_file(paths["sig"], corpus)
            fileio.write_neutrality_file(paths["neu"], corpus)
            fileio.write_qrels(paths["qrels"], judgments)
            first = {name: p.read_bytes() for name, p in paths.items()}

            parsed = fileio.parse_run_file(paths["run"])
            parsed = fileio.attach_sigmas(parsed, fileio.parse_sigma_file(paths["sig"]))
            parsed = fileio.attach_neutrality(
                parsed, fileio.parse_neutrality_file(paths["neu"])
            )
            judgments2 = fileio.parse_qrels(paths["qrels"])
            fileio.write_run_file(paths["run"], unfair_rank(parsed))
            fileio.write_sigma_file(paths["sig"], parsed)
            fileio.write_neutrality_file(paths["neu"], parsed)
            fileio.write_qrels(paths["qrels"], judgments2)
            second = {name: p.read_bytes() for name, p in paths.items()}
            assert first == second

    def test_write_run_then_parse_preserves_scores_exactly(self, tmp_path):
        corpus, _ = fixture_corpus(seed=5)
        path = tmp_path / "run"
        fileio.write_run_file(path, unfair_rank(corpus))
        parsed = fileio.parse_run_file(path)
        for orig, back in zip(corpus, parsed):
            for c_orig, c_back in zip(rows(orig), rows(back)):
                assert c_orig.doc_id == c_back.doc_id
                assert c_orig.mu == c_back.mu


class TestWriters:
    def test_sigma_writer_requires_sigmas(self, tmp_path):
        bare = build_query("q", [ScoredCandidate(doc_id="d", mu=0.0)])
        with pytest.raises(ValueError, match="sigma"):
            fileio.write_sigma_file(tmp_path / "sig", QueryStack([bare]))

    def test_conflicting_neutrality_across_queries_rejected(self, tmp_path):
        q1 = build_query("q1", [ScoredCandidate(doc_id="d", mu=1.0, neutrality=0.5)])
        q2 = build_query("q2", [ScoredCandidate(doc_id="d", mu=1.0, neutrality=0.6)])
        with pytest.raises(ValueError, match="conflicting"):
            fileio.write_neutrality_file(tmp_path / "neu", QueryStack([q1, q2]))

    @pytest.mark.parametrize("tag", ["", "my tag", "tab\there", "trailing\n", "nbsp\u00a0"])
    def test_run_writer_rejects_a_tag_that_is_not_one_field(self, tmp_path, tag):
        corpus, _ = fixture_corpus()
        path = tmp_path / "run"
        with pytest.raises(ValueError, match="tag"):
            fileio.write_run_file(path, unfair_rank(corpus), tag=tag)
        assert not path.exists()

    def test_qrels_round_trip(self, tmp_path):
        judgments = RelevanceJudgments(grades={("q1", "d1"): 2, ("q2", "d9"): 0})
        path = tmp_path / "qrels"
        fileio.write_qrels(path, judgments)
        assert fileio.parse_qrels(path).grades == judgments.grades


# where repr changes notation (1e-4 and 1e16 and their neighbours below),
# signed zeros, the smallest subnormal and normal, and the float maximum
_EDGE_FLOATS = (
    0.0, -0.0, 5e-324, 2.225073858507201e-308, sys.float_info.min, sys.float_info.max,
    1e-4, math.nextafter(1e-4, 0.0), 1e16, math.nextafter(1e16, 0.0), 0.5, 1.0,
)
_finite = st.one_of(
    st.sampled_from(_EDGE_FLOATS + tuple(-x for x in _EDGE_FLOATS)),
    st.floats(allow_nan=False, allow_infinity=False),
)
_sigma = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(0.0, allow_infinity=False))
_neutrality = st.one_of(st.sampled_from([x for x in _EDGE_FLOATS if x <= 1.0]), st.floats(0.0, 1.0))
# a few ids recur across queries, so neutrality entries repeat and may conflict
_id = st.one_of(
    st.sampled_from(["d1", "d2", "é", "文書"]),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Z")), min_size=1, max_size=4),
)


@st.composite
def _written_query(draw):
    """A query's id, doc ids, ranking order and scores, sigmas and
    neutrality scores, as plain values."""
    doc_ids = draw(st.lists(_id, min_size=1, max_size=12, unique=True))
    n = len(doc_ids)
    return (
        draw(_id), doc_ids,
        draw(st.permutations(range(n))),
        draw(st.lists(_finite, min_size=n, max_size=n)),
        draw(st.lists(_sigma, min_size=n, max_size=n)),
        draw(st.lists(_neutrality, min_size=n, max_size=n)),
    )


def _written(write, *args):
    """The bytes a writer writes, or the text of the ValueError it raises."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "out"
        try:
            write(path, *args)
        except ValueError as exc:
            return str(exc)
        return path.read_bytes()


class TestWritersMatchPerLineOracles:
    """The run, sigma and neutrality writers read a stack or a stacked
    ranking and join each query's lines in one call; their bytes, and their
    errors, are those of one f-string per line, and no pad is written."""

    @settings(max_examples=300, deadline=None)
    @given(queries=st.lists(_written_query(), min_size=1, max_size=5),
           tag=st.sampled_from(["pufr", "t", "ünï"]))
    # one-document queries between rankings that grow and shrink
    @example(queries=[
        ("q", ["a"], [0], [1e16], [5e-324], [-0.0]),
        ("q2", ["a", "b", "c"], [2, 0, 1], [1e-4, -0.0, 9.999999999999999e-05],
         [0.0, 1e16, 1.0], [-0.0, 0.5, 1.0]),
        ("q3", ["x"], [0], [sys.float_info.max], [0.0], [1.0]),
        ("q4", ["b", "x"], [1, 0], [5e-324, -sys.float_info.max], [1.0, 2.0], [0.5, 1.0]),
    ], tag="t")
    def test_bytes_equal_the_per_line_writers(self, queries, tag):
        corpus, rankings = [], []
        for query_id, doc_ids, order, scores, sigma, neutrality in queries:
            # a falling mu keeps the docs in the order drawn
            query = QueryStack.ranked([query_id], [len(doc_ids)], doc_ids, {
                "mu": -np.arange(len(doc_ids), dtype=np.float64), "sigma": np.array(sigma),
                "neutrality": np.array(neutrality)})
            corpus.append(query)
            rankings.append(StackedRanking(query, np.array([order], dtype=np.intp),
                                           np.array([scores])))
        stack = QueryStack(corpus)
        ranked = stacked_rankings(rankings)
        assert (_written(fileio.write_run_file, ranked, tag)
                == _written(oracles.write_run_file, ranked, tag))
        assert (_written(fileio.write_sigma_file, stack)
                == _written(oracles.write_sigma_file, corpus))
        assert (_written(fileio.write_neutrality_file, stack)
                == _written(oracles.write_neutrality_file, corpus))

    @staticmethod
    def ragged_stack(seed):
        """One query of each length 1..9 in shuffled order, some with tied
        ``mu``, drawing docs from a shared pool with one neutrality per doc."""
        rng = np.random.default_rng(seed)
        pool = [f"d{j}" for j in range(12)]
        neutrality = dict(zip(pool, rng.choice([0.0, -0.0, 0.3, 1.0], len(pool)).tolist()))
        corpus = []
        for n in rng.permutation(np.arange(1, 10)).tolist():
            docs = rng.choice(pool, n, replace=False).tolist()
            mu = rng.choice([0.0, 1.0, 2.5], n) if n % 3 == 0 else rng.normal(0.0, 2.0, n)
            corpus.append(make_query(mu, np.abs(rng.normal(0.5, 0.3, n)),
                                     [neutrality[d] for d in docs], query_id=f"q{n}",
                                     doc_ids=docs))
        return QueryStack(corpus)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("method", ["rank_by_score", "fastar", "constrained"])
    def test_a_ragged_stacks_rankings_are_written_as_their_rows(self, seed, method):
        stack = self.ragged_stack(seed)
        if method == "rank_by_score":
            # a pad's score may be anything, nan too: it ranks last at -inf
            scores = np.random.default_rng(seed).choice([-0.0, 0.0, 1.5, 2.0], stack.real.shape)
            ranked = rank_by_score(stack, np.where(stack.real, scores, np.nan))
        elif method == "fastar":
            ranked = fastar_rerank(stack, compute_m_table(int(stack.lengths.max()), 0.7))
        else:
            ranked, _ = REGISTRY["constrained"].prepare(stack, 5)(0.8)(stack)
        written = _written(fileio.write_run_file, ranked, "t")
        assert written == _written(oracles.write_run_file, ranked, "t")
        places = [tuple(line.split()[0:3:2]) for line in written.decode().splitlines()]
        assert sorted(places) == sorted(
            (query_id, doc_id) for query, query_id in zip(stack, stack.query_ids)
            for doc_id in query.doc_ids)
        assert (_written(fileio.write_sigma_file, stack)
                == _written(oracles.write_sigma_file, stack))
        assert (_written(fileio.write_neutrality_file, stack)
                == _written(oracles.write_neutrality_file, stack))

    @pytest.mark.parametrize("values", [(0.5, 0.5, 0.7), (0.5, 0.7, 0.7)])
    def test_a_conflict_in_three_queries_names_the_doc_the_oracle_names(self, values):
        # b conflicts too: first in place order, but only in the last query,
        # where it ranks below d
        stack = QueryStack(
            build_query(f"q{i}", [ScoredCandidate("a", 1.0, neutrality=0.0),
                                  ScoredCandidate("b", 0.1 if i == 2 else 2.0,
                                                  neutrality=0.3 if i == 2 else 0.2),
                                  ScoredCandidate("d", 0.5, neutrality=value)])
            for i, value in enumerate(values)
        )
        message = "doc 'd' has conflicting neutrality scores across queries"
        assert _written(fileio.write_neutrality_file, stack) == message
        assert _written(oracles.write_neutrality_file, stack) == message
