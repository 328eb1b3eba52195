import argparse
import dataclasses
from collections import Counter

import numpy as np
import pytest

from pufr import baselines, cli, fileio
from pufr.baselines import (
    DEFAULT_DEPTH,
    ConstraintConfig,
    compute_m_table,
    constrained_rerank,
    fastar_rerank,
    unfair_rank,
)
from pufr.cli import main
from pufr.core import QueryCandidates, QueryStack, assign_groups
from pufr.metrics import nfairr_at_k, paired_t_test
from pufr.rerank import PufrConfig, compute_sigma_mean, pufr_rerank, uniform_rerank
from pufr.sweep import SweepConfig
from pufr.synth import SyntheticConfig, generate_synthetic
from pufr.uncertainty import McConfig, analytic_predictive

from conftest import gap_search_queries, rows


@pytest.fixture()
def fixture_dir(tmp_path):
    assert main(["synth", "--output", str(tmp_path / "fix"), "--queries", "12",
                 "--candidates", "10", "--bias-strength", "1.5", "--seed", "3"]) == 0
    return tmp_path / "fix"


def fixture_paths(fixture_dir):
    return {
        "run": fixture_dir / "fixture.run",
        "sigma": fixture_dir / "fixture.sigma",
        "neutrality": fixture_dir / "fixture.neutrality",
        "qrels": fixture_dir / "fixture.qrels",
    }


class TestSynthCommand:
    def test_writes_all_four_files(self, fixture_dir):
        for path in fixture_paths(fixture_dir).values():
            assert path.exists() and path.stat().st_size > 0

    def test_output_parses_back(self, fixture_dir):
        paths = fixture_paths(fixture_dir)
        corpus = fileio.parse_run_file(paths["run"])
        corpus = fileio.attach_sigmas(corpus, fileio.parse_sigma_file(paths["sigma"]))
        corpus = fileio.attach_neutrality(
            corpus, fileio.parse_neutrality_file(paths["neutrality"])
        )
        assert len(corpus) == 12
        fileio.parse_qrels(paths["qrels"])


class TestLoadBuildsNoQueries:
    """The commands load the corpus straight into one stack: no query is
    sorted, built or given a column on its own while they load it."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(QueryCandidates, "ranked",
                            classmethod(counting("ranked", QueryCandidates.ranked.__func__)))
        for name, owner in (("with_column", QueryCandidates), ("__post_init__", QueryCandidates),
                            ("row", QueryStack)):
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        return calls

    @pytest.mark.parametrize("command", ["pufr", "uniform", "fastar", "unfair", "intervals"])
    def test_sweeps_and_intervals_build_no_query(self, fixture_dir, tmp_path, calls, command):
        paths = fixture_paths(fixture_dir)
        if command == "intervals":
            argv = ["intervals", "--run", paths["run"], "--sigmas", paths["sigma"]]
        else:
            argv = ["sweep", "--run", paths["run"], "--sigmas", paths["sigma"],
                    "--neutrality", paths["neutrality"], "--qrels", paths["qrels"],
                    "--method", command, "--alpha-grid", "0,0.5,1"]
        assert main([*map(str, argv), "--output", str(tmp_path / "out")]) == 0
        assert calls == {}

    @pytest.mark.parametrize("method", ["pufr", "uniform", "fastar", "unfair", "constrained"])
    def test_rerank_loads_without_building_a_query(self, fixture_dir, tmp_path, monkeypatch,
                                                   calls, method):
        paths = fixture_paths(fixture_dir)
        loaded, load = [], fileio.load_corpus

        def loading(*args):
            corpus = load(*args)
            loaded.append(dict(calls))
            return corpus

        monkeypatch.setattr(fileio, "load_corpus", loading)
        assert main(["rerank", "--run", str(paths["run"]), "--sigmas", str(paths["sigma"]),
                     "--neutrality", str(paths["neutrality"]), "--method", method,
                     "--alpha", "0.5", "--output", str(tmp_path / "out")]) in (0, 2)
        assert loaded == [{}]
        # after the load, only the constrained window reads row views: the
        # others re-rank and write from the stack
        assert set(calls) <= ({"row"} if method == "constrained" else set())


class TestRerankCommand:
    @pytest.mark.parametrize("method,alpha", [
        ("unfair", "0"), ("pufr", "1.0"), ("uniform", "1.0"),
        ("fastar", "0.7"), ("constrained", "0.8"),
    ])
    def test_each_method_writes_a_parseable_run(self, fixture_dir, tmp_path, method, alpha):
        paths = fixture_paths(fixture_dir)
        out = tmp_path / f"{method}.run"
        argv = [
            "rerank", "--run", str(paths["run"]), "--sigmas", str(paths["sigma"]),
            "--neutrality", str(paths["neutrality"]), "--method", method,
            "--alpha", alpha, "--output", str(out),
        ]
        assert main(argv) == 0
        reranked = fileio.parse_run_file(out)
        assert len(reranked) == 12

    def test_pufr_without_sigmas_is_a_usage_error(self, fixture_dir, tmp_path, capsys):
        paths = fixture_paths(fixture_dir)
        argv = [
            "rerank", "--run", str(paths["run"]), "--neutrality", str(paths["neutrality"]),
            "--method", "pufr", "--alpha", "1.0", "--output", str(tmp_path / "o.run"),
        ]
        assert main(argv) == 1
        assert "sigmas" in capsys.readouterr().err

    @pytest.mark.parametrize("command,method", [("rerank", "pufr"), ("sweep", "uniform")])
    def test_missing_sigmas_is_refused_before_any_file_is_read(self, tmp_path, capsys, command,
                                                               method):
        absent = str(tmp_path / "absent")
        argv = [command, "--run", absent, "--neutrality", absent, "--method", method]
        if command == "rerank":
            argv += ["--alpha", "1.0"]
        else:
            argv += ["--qrels", absent, "--alpha-grid", "1.0"]
        assert main([*argv, "--output", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: method {method!r} needs --sigmas\n"
        assert not (tmp_path / "out").exists()

    def test_alpha_zero_pufr_reproduces_the_input_order(self, fixture_dir, tmp_path):
        paths = fixture_paths(fixture_dir)
        out = tmp_path / "zero.run"
        main([
            "rerank", "--run", str(paths["run"]), "--sigmas", str(paths["sigma"]),
            "--neutrality", str(paths["neutrality"]), "--method", "pufr",
            "--alpha", "0", "--output", str(out),
        ])
        original = fileio.parse_run_file(paths["run"])
        reranked = fileio.parse_run_file(out)
        for a, b in zip(original, reranked):
            assert unfair_rank(a).doc_ids() == unfair_rank(b).doc_ids()

    def test_infeasible_constrained_exits_2_with_output(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.write_text("q1 Q0 a 1 3.0 t\nq1 Q0 b 2 2.0 t\nq1 Q0 c 3 1.0 t\n")
        neutrality = tmp_path / "neu"
        neutrality.write_text("a 0.0\nb 0.0\nc 1.0\n")
        out = tmp_path / "out.run"
        argv = [
            "rerank", "--run", str(run), "--neutrality", str(neutrality),
            "--method", "constrained", "--alpha", "0.9", "--depth", "2",
            "--output", str(out),
        ]
        assert main(argv) == 2
        assert "infeasible" in capsys.readouterr().err
        assert out.exists()  # partial output still written

    def test_capped_gap_search_warns_and_exits_2_with_output(self, tmp_path, capsys,
                                                             monkeypatch):
        query, cfg = gap_search_queries()[0]
        run, neutrality, qrels = tmp_path / "run", tmp_path / "neu", tmp_path / "qrels"
        fileio.write_run_file(run, unfair_rank(QueryStack([query])))
        fileio.write_neutrality_file(neutrality, QueryStack([query]))
        qrels.write_text("")
        corpus = ["--run", str(run), "--neutrality", str(neutrality), "--method", "constrained",
                  "--depth", str(cfg.depth)]
        commands = [
            (["rerank", *corpus, "--alpha", "0.95", "--output", str(tmp_path / "out.run")],
             "queries", tmp_path / "out.run"),
            (["sweep", *corpus, "--qrels", str(qrels), "--alpha-grid", "0.95",
              "--output", str(tmp_path / "out.csv")], "query re-rankings", tmp_path / "out.csv"),
        ]
        for argv, _, _ in commands:
            assert main(argv) == 0
            assert capsys.readouterr().err == ""
        monkeypatch.setattr(baselines, "DEFAULT_MAX_NODES", 1)
        for argv, unit, out in commands:
            out.unlink()
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"warning: node cap reached for 1 {unit}: the fairness floor is met "
                f"but the ranking is not certified optimal\n"
            )
            assert out.exists()


def library_rankings(paths, method, alpha, depth=DEFAULT_DEPTH):
    """Rankings of every query by the library calls, without the CLI, as
    one stacked ranking."""
    corpus = fileio.parse_run_file(paths["run"])
    corpus = fileio.attach_sigmas(corpus, fileio.parse_sigma_file(paths["sigma"]))
    corpus = fileio.attach_neutrality(corpus, fileio.parse_neutrality_file(paths["neutrality"]))
    corpus = QueryStack([assign_groups(q, 1.0) for q in corpus])
    if method == "unfair":
        return corpus.rankings([unfair_rank(q) for q in corpus])
    if method == "pufr":
        return corpus.rankings([pufr_rerank(q, PufrConfig.symmetric(alpha)) for q in corpus])
    if method == "uniform":
        sigma_mean = compute_sigma_mean(corpus)
        return corpus.rankings(
            [uniform_rerank(q, sigma_mean, PufrConfig.symmetric(alpha)) for q in corpus])
    if method == "fastar":
        table = compute_m_table(max(len(q) for q in corpus), alpha)
        return corpus.rankings([fastar_rerank(q, table) for q in corpus])
    assert method == "constrained"
    ccfg = ConstraintConfig(alpha_fairness=alpha, depth=depth)
    return corpus.rankings([constrained_rerank(q, ccfg).ranking for q in corpus])


class TestMethodParity:
    """`pufr rerank` runs each method exactly as the library calls do."""

    @pytest.mark.parametrize("method,alpha", [
        ("unfair", 0.0), ("pufr", 1.25), ("uniform", 1.25),
        ("fastar", 0.7), ("constrained", 0.8),
    ])
    def test_rerank_run_file_is_byte_identical_to_library_calls(
        self, fixture_dir, tmp_path, method, alpha
    ):
        paths = fixture_paths(fixture_dir)
        out = tmp_path / "cli.run"
        assert main([
            "rerank", "--run", str(paths["run"]), "--sigmas", str(paths["sigma"]),
            "--neutrality", str(paths["neutrality"]), "--method", method,
            "--alpha", repr(alpha), "--output", str(out),
        ]) == 0
        expected = tmp_path / "library.run"
        fileio.write_run_file(expected, library_rankings(paths, method, alpha), tag="pufr")
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("method", ["fastar", "constrained"])
    def test_rerank_and_sweep_reject_alpha_above_one_alike(
        self, fixture_dir, tmp_path, capsys, method
    ):
        paths = fixture_paths(fixture_dir)
        corpus_args = [
            "--run", str(paths["run"]), "--sigmas", str(paths["sigma"]),
            "--neutrality", str(paths["neutrality"]), "--method", method,
        ]
        assert main(["rerank", *corpus_args, "--alpha", "1.5",
                     "--output", str(tmp_path / "o.run")]) == 1
        rerank_err = capsys.readouterr().err
        assert main(["sweep", *corpus_args, "--qrels", str(paths["qrels"]),
                     "--alpha-grid", "1.5", "--output", str(tmp_path / "o.csv")]) == 1
        sweep_err = capsys.readouterr().err
        assert rerank_err == sweep_err == f"error: method {method!r} needs alpha values in [0, 1]\n"
        assert not (tmp_path / "o.run").exists() and not (tmp_path / "o.csv").exists()


class TestRerankInputs:
    """`pufr rerank` opens only the input files its method reads (``needs_sigma``,
    ``needs_neutrality`` and ``needs_groups`` on the method registry); `pufr
    sweep` reads every file it is given."""

    @staticmethod
    def rerank(paths, method, alpha, out):
        return main([
            "rerank", "--run", str(paths["run"]), "--sigmas", str(paths["sigma"]),
            "--neutrality", str(paths["neutrality"]), "--method", method,
            "--alpha", alpha, "--output", str(out),
        ])

    @pytest.mark.parametrize("method,alpha,unread", [
        ("unfair", "0", ("sigma", "neutrality")),
        ("constrained", "0.8", ("sigma",)),
        ("fastar", "0.7", ("sigma",)),
    ])
    def test_a_file_the_method_does_not_read_may_be_missing(
        self, fixture_dir, tmp_path, method, alpha, unread
    ):
        paths = fixture_paths(fixture_dir)
        assert self.rerank(paths, method, alpha, tmp_path / "real.run") == 0
        missing = {**paths, **{name: tmp_path / f"missing.{name}" for name in unread}}
        assert self.rerank(missing, method, alpha, tmp_path / "missing.run") == 0
        assert (tmp_path / "missing.run").read_bytes() == (tmp_path / "real.run").read_bytes()

    def test_constrained_succeeds_with_a_malformed_sigma_file(self, fixture_dir, tmp_path):
        paths = fixture_paths(fixture_dir)
        bad = tmp_path / "bad.sigma"
        bad.write_text("q1 d1 -1.0\nnot a sigma line at all\n")
        assert self.rerank(paths, "constrained", "0.8", tmp_path / "real.run") == 0
        assert self.rerank({**paths, "sigma": bad}, "constrained", "0.8",
                           tmp_path / "bad.run") == 0
        assert (tmp_path / "bad.run").read_bytes() == (tmp_path / "real.run").read_bytes()

    @pytest.mark.parametrize("method,alpha", [("pufr", "1.0"), ("uniform", "1.0"),
                                              ("fastar", "0.7"), ("constrained", "0.8")])
    def test_a_malformed_neutrality_file_is_still_rejected(
        self, fixture_dir, tmp_path, capsys, method, alpha
    ):
        bad = tmp_path / "bad.neutrality"
        bad.write_text("d1 0.5\nd2 0.5 extra\n")
        paths = {**fixture_paths(fixture_dir), "neutrality": bad}
        assert self.rerank(paths, method, alpha, tmp_path / "o.run") == 1
        assert capsys.readouterr().err == f"error: {bad}:2: expected 2 fields, got 3\n"
        assert not (tmp_path / "o.run").exists()

    def test_sweep_constrained_still_reads_sigmas(self, fixture_dir, tmp_path, capsys):
        paths = fixture_paths(fixture_dir)
        bad = tmp_path / "bad.sigma"
        bad.write_text("q1 d1\n")
        assert main([
            "sweep", "--run", str(paths["run"]), "--sigmas", str(bad),
            "--neutrality", str(paths["neutrality"]), "--qrels", str(paths["qrels"]),
            "--method", "constrained", "--alpha-grid", "0.5", "--output", str(tmp_path / "o.csv"),
        ]) == 1
        assert capsys.readouterr().err == f"error: {bad}:1: expected 3 fields, got 2\n"


class TestSharedValidation:
    """`pufr rerank` checks depth and alpha as `pufr sweep` does, before any file
    is read: the run file given here does not exist."""

    @pytest.mark.parametrize("method", ["pufr", "uniform", "unfair", "fastar", "constrained"])
    @pytest.mark.parametrize("flags,rerank_alpha,grid,message", [
        (["--depth", "-3"], "0.5", "0.5", "depth must be >= 1, got -3"),
        (["--depth", "0"], "0.5", "0.5", "depth must be >= 1, got 0"),
        ([], "nan", "nan", "alpha values must be finite, got nan"),
        ([], "inf", "0,inf", "alpha values must be finite, got inf"),
        ([], "-1", "-1,0,1", "alpha values must be >= 0, got -1.0"),
    ], ids=["depth-3", "depth0", "alpha-nan", "alpha-inf", "alpha-negative"])
    def test_rerank_and_sweep_reject_alike_before_reading(
        self, tmp_path, capsys, method, flags, rerank_alpha, grid, message
    ):
        corpus_args = [
            "--run", str(tmp_path / "missing.run"), "--sigmas", str(tmp_path / "s"),
            "--neutrality", str(tmp_path / "n"), "--method", method, *flags,
        ]
        assert main(["rerank", *corpus_args, "--alpha", rerank_alpha,
                     "--output", str(tmp_path / "o.run")]) == 1
        rerank_err = capsys.readouterr().err
        assert main(["sweep", *corpus_args, "--qrels", str(tmp_path / "q"),
                     f"--alpha-grid={grid}", "--output", str(tmp_path / "o.csv")]) == 1
        sweep_err = capsys.readouterr().err
        assert rerank_err == sweep_err == f"error: {message}\n"
        assert not (tmp_path / "o.run").exists() and not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", [
        ["rerank", "--method", "pufr", "--alpha", "1.0"],
        ["sweep", "--method", "pufr", "--alpha-grid", "1.0", "--qrels", "missing.qrels"],
    ], ids=["rerank", "sweep"])
    def test_protected_threshold_is_checked_before_reading(self, tmp_path, capsys, command):
        assert main([
            *command, "--run", str(tmp_path / "missing.run"), "--sigmas", str(tmp_path / "s"),
            "--neutrality", str(tmp_path / "n"), "--protected-threshold", "0",
            "--output", str(tmp_path / "o"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.endswith(
            "error: argument --protected-threshold: "
            "protected threshold must lie in (0, 1], got 0.0\n"
        )
        assert "missing" not in err and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("grid,message", [
        ("0", "alpha must be > 0, got 0.0"),
        ("1,-2", "alpha must be > 0, got -2.0"),
        ("nan", "alpha must be > 0, got nan"),
        ("1,1", "alphas (1.0, 1.0) repeat a column name: "
                "median_swaps_alpha_1, median_swaps_alpha_1"),
        ("1,1.0", "alphas (1.0, 1.0) repeat a column name: "
                  "median_swaps_alpha_1, median_swaps_alpha_1"),
        ("0.1234561,0.1234562", "alphas (0.1234561, 0.1234562) repeat a column name: "
                                "median_swaps_alpha_0.123456, median_swaps_alpha_0.123456"),
    ], ids=["zero", "negative", "nan", "repeated", "repeated-spelled-apart", "same-column"])
    def test_interval_alphas_are_checked_before_reading(self, tmp_path, capsys, grid, message):
        assert main([
            "intervals", "--run", str(tmp_path / "missing.run"),
            "--sigmas", str(tmp_path / "missing.sigma"), f"--alpha-grid={grid}",
            "--output", str(tmp_path / "o.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument --alpha-grid: {message}\n")
        assert "missing" not in err and not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("floor", ["nan", "inf", "-inf"])
    def test_ndcg_floor_must_be_finite_and_is_checked_before_reading(
        self, tmp_path, capsys, floor
    ):
        assert main([
            "sweep", "--method", "pufr", "--alpha-grid", "1.0",
            "--run", str(tmp_path / "missing.run"), "--sigmas", str(tmp_path / "s"),
            "--neutrality", str(tmp_path / "n"), "--qrels", str(tmp_path / "q"),
            f"--ndcg-floor={floor}", "--output", str(tmp_path / "o.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument --ndcg-floor: must be finite, got {floor!r}\n")
        assert "missing" not in err and not (tmp_path / "o.csv").exists()


class TestRunTag:
    """A tag that is not one whitespace-free field is refused while the
    arguments are parsed, before any file is read or written, since a reader
    could not split the lines back into 6 fields."""

    @pytest.mark.parametrize("tag", ["", "my tag"])
    def test_rerank(self, fixture_dir, tmp_path, capsys, tag):
        paths = fixture_paths(fixture_dir)
        out = tmp_path / "o.run"
        assert main([
            "rerank", "--run", str(paths["run"]), "--sigmas", str(paths["sigma"]),
            "--neutrality", str(paths["neutrality"]), "--method", "pufr",
            "--alpha", "1.0", "--tag", tag, "--output", str(out),
        ]) == 1
        assert "tag" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tag", ["", "my tag"])
    def test_laplace(self, tmp_path, capsys, tag):
        features_path, posterior_path = write_laplace_inputs(tmp_path, 2, 2)
        out = tmp_path / "o.run"
        assert main([
            "laplace", "--features", str(features_path), "--posterior", str(posterior_path),
            "--tag", tag, "--output", str(out), "--sigma-output", str(tmp_path / "o.sigma"),
        ]) == 1
        assert "tag" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tag", ["", "my tag"])
    def test_synth(self, tmp_path, capsys, tag):
        out = tmp_path / "fix"
        assert main(["synth", "--output", str(out), "--queries", "2", "--candidates", "3",
                     "--tag", tag]) == 1
        assert "argument --tag: run tag must be one field" in capsys.readouterr().err
        assert not out.exists()

    def test_rerank_reports_the_tag_before_a_missing_run(self, tmp_path, capsys):
        out = tmp_path / "o.run"
        assert main([
            "rerank", "--neutrality", str(tmp_path / "absent"), "--method", "unfair",
            "--tag", "a b", "--output", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert "argument --tag: run tag must be one field without whitespace, got 'a b'" in err
        assert "required" not in err
        assert not out.exists()


class TestEmptyRunFile:
    """A run file with no data lines is one error for every command and method."""

    @pytest.fixture()
    def empty_run(self, tmp_path):
        path = tmp_path / "empty.run"
        path.write_text("# no data lines\n\n")
        return path

    @pytest.mark.parametrize("method", ["pufr", "uniform", "unfair", "fastar", "constrained"])
    def test_rerank_rejects_it_naming_the_file(
        self, fixture_dir, tmp_path, capsys, caplog, empty_run, method
    ):
        paths = fixture_paths(fixture_dir)
        out = tmp_path / "out.run"
        assert main([
            "rerank", "--run", str(empty_run), "--sigmas", str(paths["sigma"]),
            "--neutrality", str(paths["neutrality"]), "--method", method,
            "--alpha", "0.5", "--output", str(out),
        ]) == 1
        assert capsys.readouterr().err == f"error: {empty_run}: no data lines\n"
        assert not caplog.records  # reported once, not also logged
        assert not out.exists()

    def test_sweep_rejects_it_naming_the_file(self, fixture_dir, tmp_path, capsys, empty_run):
        paths = fixture_paths(fixture_dir)
        assert main([
            "sweep", "--run", str(empty_run), "--sigmas", str(paths["sigma"]),
            "--neutrality", str(paths["neutrality"]), "--qrels", str(paths["qrels"]),
            "--method", "pufr", "--alpha-grid", "0,1", "--output", str(tmp_path / "o.csv"),
        ]) == 1
        assert capsys.readouterr().err == f"error: {empty_run}: no data lines\n"

    def test_intervals_rejects_it_naming_the_file(self, fixture_dir, tmp_path, capsys, empty_run):
        paths = fixture_paths(fixture_dir)
        assert main([
            "intervals", "--run", str(empty_run), "--sigmas", str(paths["sigma"]),
            "--output", str(tmp_path / "o.csv"),
        ]) == 1
        assert capsys.readouterr().err == f"error: {empty_run}: no data lines\n"


class TestSweepCommand:
    def test_writes_csv_and_reports_floor_selection(self, fixture_dir, tmp_path, capsys):
        paths = fixture_paths(fixture_dir)
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--run", str(paths["run"]), "--sigmas", str(paths["sigma"]),
            "--neutrality", str(paths["neutrality"]), "--qrels", str(paths["qrels"]),
            "--method", "pufr", "--alpha-grid", "0,1,2", "--ndcg-floor", "0.0",
            "--output", str(out),
        ]
        assert main(argv) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("method,alpha,ndcg_cut_10")
        assert len(lines) == 4
        assert "best under" in capsys.readouterr().out

    @pytest.mark.parametrize("sigmas, pinned", [(True, (-1.366, 0.199)), (False, (1.466, 0.171))],
                             ids=["pufr reference", "unfair reference"])
    def test_fastar_is_t_tested_against_pufr_only_given_sigmas(self, tmp_path, sigmas, pinned):
        """A fastar row's t_stat and p_value compare nFaiRR at the smallest
        fairness cutoff with PUFR at the same alpha when --sigmas is given, and
        with the unfair order when it is not; the CSV does not say which."""
        config = SyntheticConfig(n_queries=12, n_candidates=10, seed=3)
        fix, out = tmp_path / "fix", tmp_path / "sweep.csv"
        assert main(["synth", "--output", str(fix), "--queries", "12", "--candidates", "10",
                     "--seed", "3"]) == 0
        paths = fixture_paths(fix)
        assert main([
            "sweep", "--run", str(paths["run"]), "--neutrality", str(paths["neutrality"]),
            "--qrels", str(paths["qrels"]), "--method", "fastar", "--alpha-grid", "0.5",
            *(["--sigmas", str(paths["sigma"])] if sigmas else []), "--output", str(out),
        ]) == 0
        header, row = out.read_text().splitlines()
        got = dict(zip(header.split(","), row.split(",")))

        corpus, _ = generate_synthetic(config)
        table = compute_m_table(config.n_candidates, 0.5)
        reference = (lambda q: pufr_rerank(q, PufrConfig.symmetric(0.5))) if sigmas else unfair_rank
        want = paired_t_test(
            {q.query_id: nfairr_at_k(fastar_rerank(q, table), 10) for q in corpus},
            {q.query_id: nfairr_at_k(reference(q), 10) for q in corpus},
        )
        assert (got["t_stat"], got["p_value"]) == (repr(want.t_statistic), repr(want.p_value))
        assert (round(want.t_statistic, 3), round(want.p_value, 3)) == pinned

    def test_bad_grid_is_a_usage_error(self, fixture_dir, tmp_path):
        paths = fixture_paths(fixture_dir)
        argv = [
            "sweep", "--run", str(paths["run"]), "--sigmas", str(paths["sigma"]),
            "--neutrality", str(paths["neutrality"]), "--qrels", str(paths["qrels"]),
            "--method", "pufr", "--alpha-grid", "2,1",
            "--output", str(tmp_path / "x.csv"),
        ]
        assert main(argv) == 1


class TestIntervalsCommand:
    def test_writes_interval_csv(self, fixture_dir, tmp_path):
        paths = fixture_paths(fixture_dir)
        out = tmp_path / "intervals.csv"
        argv = [
            "intervals", "--run", str(paths["run"]), "--sigmas", str(paths["sigma"]),
            "--output", str(out),
        ]
        assert main(argv) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rank,median_swaps_alpha_1,median_swaps_alpha_2"
        assert len(lines) == 11  # 10 candidate positions

    def test_a_grid_need_not_be_increasing(self, fixture_dir, tmp_path):
        paths = fixture_paths(fixture_dir)
        out = tmp_path / "intervals.csv"
        assert main([
            "intervals", "--run", str(paths["run"]), "--sigmas", str(paths["sigma"]),
            "--alpha-grid", "2,1", "--output", str(out),
        ]) == 0
        assert out.read_text().splitlines()[0] == "rank,median_swaps_alpha_2,median_swaps_alpha_1"


def write_laplace_inputs(directory, feature_dim, posterior_dim):
    """A two-query feature file and a posterior file of the given widths."""
    directory.mkdir(parents=True, exist_ok=True)
    features_path = directory / "features"
    features_path.write_text("".join(
        f"q{q} d{q}{d} " + " ".join(repr(0.5 * (q + d + j)) for j in range(feature_dim)) + "\n"
        for q in range(2) for d in range(2)
    ))
    posterior_path = directory / "posterior"
    posterior_path.write_text(
        f"theta {posterior_dim}" + " 0.5" * posterior_dim + "\n"
        f"fisher {posterior_dim}" + " 2.0" * posterior_dim + "\n"
    )
    return features_path, posterior_path


class TestLaplaceCommand:
    def test_scores_features_into_run_and_sigma_files(self, tmp_path):
        rng = np.random.default_rng(5)
        dim = 3
        theta = rng.normal(size=dim)
        fisher = np.abs(rng.normal(size=dim)) + 0.5
        features_path = tmp_path / "features"
        lines = []
        feature_map = {}
        for q in ("q1", "q2"):
            feature_map[q] = {}
            for d in range(4):
                vec = rng.normal(size=dim)
                feature_map[q][f"{q}-d{d}"] = vec
                lines.append(f"{q} {q}-d{d} " + " ".join(repr(float(v)) for v in vec))
        features_path.write_text("".join(line + "\n" for line in lines))
        posterior_path = tmp_path / "posterior"
        posterior_path.write_text(
            "theta {d} {t}\nfisher {d} {f}\ndamping 0.001\n".format(
                d=dim,
                t=" ".join(repr(float(v)) for v in theta),
                f=" ".join(repr(float(v)) for v in fisher),
            )
        )
        run_out = tmp_path / "out.run"
        sigma_out = tmp_path / "out.sigma"
        argv = [
            "laplace", "--features", str(features_path), "--posterior", str(posterior_path),
            "--mc-samples", "6000", "--seed", "11",
            "--output", str(run_out), "--sigma-output", str(sigma_out),
        ]
        assert main(argv) == 0
        corpus = fileio.parse_run_file(run_out)
        corpus = fileio.attach_sigmas(corpus, fileio.parse_sigma_file(sigma_out))
        posterior = fileio.parse_posterior_file(posterior_path)
        n = 6000
        for q in corpus:
            for c in rows(q):
                exact = analytic_predictive(posterior, feature_map[q.query_id][c.doc_id])
                assert c.mu == pytest.approx(exact.mu, abs=5 * exact.sigma / np.sqrt(n))
                assert c.sigma == pytest.approx(
                    exact.sigma, abs=5 * exact.sigma / np.sqrt(2 * n)
                )

    def test_reruns_are_bitwise_identical(self, tmp_path):
        features_path = tmp_path / "features"
        features_path.write_text("q1 d1 1.0 0.5\nq1 d2 -0.5 2.0\n")
        posterior_path = tmp_path / "posterior"
        posterior_path.write_text("theta 2 1.0 -1.0\nfisher 2 3.0 2.0\n")
        outputs = []
        for trial in range(2):
            run_out = tmp_path / f"r{trial}.run"
            sigma_out = tmp_path / f"r{trial}.sigma"
            assert main([
                "laplace", "--features", str(features_path),
                "--posterior", str(posterior_path), "--seed", "7",
                "--output", str(run_out), "--sigma-output", str(sigma_out),
            ]) == 0
            outputs.append((run_out.read_bytes(), sigma_out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_mc_samples_are_checked_before_reading(self, tmp_path, capsys):
        run_out, sigma_out = tmp_path / "o.run", tmp_path / "o.sigma"
        assert main([
            "laplace", "--features", str(tmp_path / "missing.features"),
            "--posterior", str(tmp_path / "missing.posterior"), "--mc-samples", "1",
            "--output", str(run_out), "--sigma-output", str(sigma_out),
        ]) == 1
        assert capsys.readouterr().err == "error: n_samples must be >= 2 for a sample variance\n"
        assert not run_out.exists() and not sigma_out.exists()

    def test_dimension_mismatch_names_both_files_before_scoring(self, tmp_path, capsys):
        features_path, _ = write_laplace_inputs(tmp_path, 3, 3)
        _, posterior_path = write_laplace_inputs(tmp_path / "two", 2, 2)
        run_out, sigma_out = tmp_path / "o.run", tmp_path / "o.sigma"
        assert main([
            "laplace", "--features", str(features_path), "--posterior", str(posterior_path),
            "--output", str(run_out), "--sigma-output", str(sigma_out),
        ]) == 1
        assert capsys.readouterr().err == (
            f"error: {features_path} has feature dimension 3 but "
            f"{posterior_path} has posterior dimension 2\n"
        )
        assert not run_out.exists() and not sigma_out.exists()


def _subcommand(name):
    (subparsers,) = [action for action in cli._build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices[name]


class TestConfigFlags:
    """The config types state their own defaults: the flags of `pufr synth`,
    `sweep` and `laplace` named after a config field set none."""

    @pytest.mark.parametrize("command, config", [
        ("synth", SyntheticConfig), ("sweep", SweepConfig), ("laplace", McConfig),
    ])
    def test_flags_named_after_config_fields_carry_no_default(self, command, config):
        fields = {field.name for field in dataclasses.fields(config)}
        flags = [action for action in _subcommand(command)._actions if action.dest in fields]
        assert {action.dest for action in flags} == fields
        assert [action.option_strings for action in flags
                if action.default is not argparse.SUPPRESS] == []

    @pytest.mark.parametrize("command, usage", [
        ("synth", "[--queries QUERIES]"), ("synth", "[--candidates CANDIDATES]"),
        ("laplace", "[--mc-samples MC_SAMPLES]"),
    ])
    def test_flags_renamed_to_their_field_keep_their_usage_text(self, command, usage):
        assert usage in _subcommand(command).format_usage()

    @pytest.mark.parametrize("command,flag,value,message", [
        ("synth", "--seed", "-1", "seed must be a 64-bit unsigned integer, got -1"),
        ("synth", "--seed", str(2**64), f"seed must be a 64-bit unsigned integer, got {2**64}"),
        ("synth", "--score-loc", "nan", "score_loc must be finite, got nan"),
        ("synth", "--score-loc", "inf", "score_loc must be finite, got inf"),
        ("laplace", "--seed", "-4", "seed must be a 64-bit unsigned integer, got -4"),
        ("laplace", "--seed", str(2**64), f"seed must be a 64-bit unsigned integer, got {2**64}"),
    ])
    def test_bad_config_names_the_field_before_writing(
        self, tmp_path, capsys, command, flag, value, message
    ):
        outputs = {
            "synth": ["--output", str(tmp_path / "fix")],
            "laplace": ["--features", str(tmp_path / "missing.features"),
                        "--posterior", str(tmp_path / "missing.posterior"),
                        "--output", str(tmp_path / "o.run"),
                        "--sigma-output", str(tmp_path / "o.sigma")],
        }[command]
        assert main([command, *outputs, flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["rerank", "--method", "pufr"]) == 1

    def test_missing_file(self, tmp_path):
        argv = [
            "intervals", "--run", str(tmp_path / "nope.run"),
            "--sigmas", str(tmp_path / "nope.sigma"),
            "--output", str(tmp_path / "out.csv"),
        ]
        assert main(argv) == 1

    def test_malformed_run_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.run"
        bad.write_text("only three fields\n")
        argv = [
            "intervals", "--run", str(bad), "--sigmas", str(bad),
            "--output", str(tmp_path / "out.csv"),
        ]
        assert main(argv) == 1
        assert "expected 6 fields" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
