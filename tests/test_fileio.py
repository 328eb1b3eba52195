import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufr import (
    RelevanceJudgments,
    ScoredCandidate,
    SyntheticConfig,
    assign_groups,
    build_query,
    generate_synthetic,
    unfair_rank,
)
from pufr import fileio

import oracles
from conftest import query_key, rows


class TestParseRunFile:
    def test_field_mapping(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("q1 Q0 d7 1 8.25 bertmini\n")
        corpus = fileio.parse_run_file(path)
        assert len(corpus) == 1
        (c,) = rows(corpus[0])
        assert (corpus[0].query_id, c.doc_id, c.mu) == ("q1", "d7", 8.25)
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
        assert judgments.grade("q1", "d7") == 1
        assert judgments.grade("q1", "d8") == 0
        assert judgments.grade("q1", "unknown") == 0

    def test_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("q1 0 d7 -1\n")
        with pytest.raises(ValueError, match="grade"):
            fileio.parse_qrels(path)

    def test_empty_gives_empty_judgments(self, tmp_path):
        path = tmp_path / "qrels"
        path.write_text("# nothing\n")
        assert fileio.parse_qrels(path).grades == {}


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


def scalar_floats(path, lineno, tokens, what):
    """Per-token oracle: one ``float()`` and one finiteness check per value,
    citing ``path:line`` and the 1-based position of the first bad one."""
    return np.array(
        [fileio._parse_float(path, lineno, token, f"{what} {j + 1}")
         for j, token in enumerate(tokens)]
    )


def scalar_parse_features_file(path):
    """The feature-file parser with the per-token loop, as the oracle."""
    features = {}
    dim = None
    for lineno, fields in fileio._data_lines(path):
        if len(fields) < 3:
            raise ValueError(f"{path}:{lineno}: expected at least 3 fields, got {len(fields)}")
        query_id, doc_id = fields[0], fields[1]
        values = scalar_floats(path, lineno, fields[2:], "feature value")
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
            want_kind, want = outcome(scalar_parse_features_file, path)
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
            want_kind, want = outcome(scalar_floats, path, 1, row, "theta value")
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
            pairs = [(q.query_id, d) for q in corpus for d in q.doc_ids]
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
            outcome(fileio.attach_sigmas, corpus, got),
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


def fixture_corpus(seed=0, n_queries=6, n_candidates=8):
    cfg = SyntheticConfig(n_queries=n_queries, n_candidates=n_candidates, seed=seed)
    return generate_synthetic(cfg)


class TestRoundTrips:
    def test_corpus_round_trip_is_field_identical(self, tmp_path):
        corpus, _ = fixture_corpus()
        run, sig, neu = tmp_path / "run", tmp_path / "sig", tmp_path / "neu"
        fileio.write_run_file(run, [unfair_rank(q) for q in corpus], tag="t")
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
            fileio.write_run_file(paths["run"], [unfair_rank(q) for q in corpus])
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
            fileio.write_run_file(paths["run"], [unfair_rank(q) for q in parsed])
            fileio.write_sigma_file(paths["sig"], parsed)
            fileio.write_neutrality_file(paths["neu"], parsed)
            fileio.write_qrels(paths["qrels"], judgments2)
            second = {name: p.read_bytes() for name, p in paths.items()}
            assert first == second

    def test_write_run_then_parse_preserves_scores_exactly(self, tmp_path):
        corpus, _ = fixture_corpus(seed=5)
        path = tmp_path / "run"
        fileio.write_run_file(path, [unfair_rank(q) for q in corpus])
        parsed = fileio.parse_run_file(path)
        for orig, back in zip(corpus, parsed):
            for c_orig, c_back in zip(rows(orig), rows(back)):
                assert c_orig.doc_id == c_back.doc_id
                assert c_orig.mu == c_back.mu


class TestWriters:
    def test_sigma_writer_requires_sigmas(self, tmp_path):
        bare = build_query("q", [ScoredCandidate(doc_id="d", mu=0.0)])
        with pytest.raises(ValueError, match="sigma"):
            fileio.write_sigma_file(tmp_path / "sig", [bare])

    def test_conflicting_neutrality_across_queries_rejected(self, tmp_path):
        q1 = build_query("q1", [ScoredCandidate(doc_id="d", mu=1.0, neutrality=0.5)])
        q2 = build_query("q2", [ScoredCandidate(doc_id="d", mu=1.0, neutrality=0.6)])
        with pytest.raises(ValueError, match="conflicting"):
            fileio.write_neutrality_file(tmp_path / "neu", [q1, q2])

    @pytest.mark.parametrize("tag", ["", "my tag", "tab\there", "trailing\n", "nbsp\u00a0"])
    def test_run_writer_rejects_a_tag_that_is_not_one_field(self, tmp_path, tag):
        corpus, _ = fixture_corpus()
        path = tmp_path / "run"
        with pytest.raises(ValueError, match="tag"):
            fileio.write_run_file(path, [unfair_rank(q) for q in corpus], tag=tag)
        assert not path.exists()

    def test_qrels_round_trip(self, tmp_path):
        judgments = RelevanceJudgments(grades={("q1", "d1"): 2, ("q2", "d9"): 0})
        path = tmp_path / "qrels"
        fileio.write_qrels(path, judgments)
        assert fileio.parse_qrels(path).grades == judgments.grades
