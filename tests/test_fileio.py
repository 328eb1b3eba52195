import re

import numpy as np
import pytest

from pufr import (
    RelevanceJudgments,
    SyntheticConfig,
    assign_groups,
    generate_synthetic,
    unfair_rank,
)
from pufr import fileio


class TestParseRunFile:
    def test_field_mapping(self, tmp_path):
        path = tmp_path / "run"
        path.write_text("q1 Q0 d7 1 8.25 bertmini\n")
        corpus = fileio.parse_run_file(path)
        assert len(corpus) == 1
        (c,) = corpus[0].candidates
        assert (corpus[0].query_id, c.doc_id, c.mu) == ("q1", "d7", 8.25)
        assert c.sigma is None and c.neutrality is None

    def test_empty_file_gives_empty_corpus(self, tmp_path, caplog):
        path = tmp_path / "run"
        path.write_text("")
        with caplog.at_level("WARNING"):
            assert fileio.parse_run_file(path) == []
        assert "no data lines" in caplog.text

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
        assert corpus[0].candidate("high").original_rank == 1


class TestParseSigmaFile:
    def test_basic(self, tmp_path):
        path = tmp_path / "sig"
        path.write_text("q1 d7 0.31\n")
        assert fileio.parse_sigma_file(path) == {("q1", "d7"): 0.31}

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
        assert parsed == list(corpus)

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
            for c_orig, c_back in zip(orig.by_original_rank(), back.by_original_rank()):
                assert c_orig.doc_id == c_back.doc_id
                assert c_orig.mu == c_back.mu


class TestCorpusFromFeatures:
    def test_skeleton_queries(self):
        features = {"q1": {"a": np.array([1.0]), "b": np.array([2.0])}}
        corpus = fileio.corpus_from_features(features)
        assert len(corpus) == 1
        assert {c.doc_id for c in corpus[0].candidates} == {"a", "b"}
        assert all(c.mu == 0.0 and c.sigma is None for c in corpus[0].candidates)


class TestWriters:
    def test_sigma_writer_requires_sigmas(self, tmp_path):
        bare = fileio.corpus_from_features({"q": {"d": np.array([1.0])}})
        with pytest.raises(ValueError, match="sigma"):
            fileio.write_sigma_file(tmp_path / "sig", bare)

    def test_conflicting_neutrality_across_queries_rejected(self, tmp_path):
        from pufr import ScoredCandidate, build_query

        q1 = build_query("q1", [ScoredCandidate(doc_id="d", mu=1.0, neutrality=0.5)])
        q2 = build_query("q2", [ScoredCandidate(doc_id="d", mu=1.0, neutrality=0.6)])
        with pytest.raises(ValueError, match="conflicting"):
            fileio.write_neutrality_file(tmp_path / "neu", [q1, q2])

    def test_qrels_round_trip(self, tmp_path):
        judgments = RelevanceJudgments(grades={("q1", "d1"): 2, ("q2", "d9"): 0})
        path = tmp_path / "qrels"
        fileio.write_qrels(path, judgments)
        assert fileio.parse_qrels(path).grades == judgments.grades
