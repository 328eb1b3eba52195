"""Byte-level regression test of `pufr rerank`, `pufr sweep` and `pufr laplace`.

A small hand-written corpus holds the edge cases: exact ``mu`` ties,
``-0.0`` scores tied with ``0.0`` in either group, zero sigmas, a one-group
query and a one-document query; alpha runs at 0 and -0.0 too. The expected
files in ``golden/`` are the bytes the commands wrote before queries became
columnar; sweep CSVs have their ``rerank_time_s`` column masked, since it is
a wall-clock time. The laplace files are checked against bytes assembled
per document from the sampling functions, against themselves written with
one and with two BLAS threads, and against themselves written from a
feature file parsed in one block, in small blocks by two processes and in
small blocks by one.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import pufr
from pufr import fileio
from pufr.baselines import unfair_rank
from pufr.cli import main
from pufr.synth import SyntheticConfig, generate_synthetic
from pufr.uncertainty import LastLayerPosterior, McConfig, derive_query_seed, sample_last_layers

import oracles

GOLDEN = Path(__file__).parent / "golden"

RUN = """\
q1 Q0 d3 1 2.5 t
q1 Q0 d1 2 2.5 t
q1 Q0 d2 3 1.0 t
q1 Q0 d4 4 0.0 t
q1 Q0 d5 5 -0.0 t
q1 Q0 d6 6 -1.5 t
q1 Q0 d7 7 -1.5 t
q2 Q0 p1 1 3.0 t
q2 Q0 p2 2 1.0 t
q2 Q0 p3 3 1.0 t
q3 Q0 x1 1 0.7 t
q4 Q0 d1 1 0.0 t
q4 Q0 e3 2 -0.0 t
q4 Q0 e2 3 -0.0 t
q4 Q0 e4 4 -2.0 t
q5 Q0 f2 1 -0.0 t
q5 Q0 f1 2 0.0 t
q5 Q0 f3 3 0.5 t
"""
SIGMA = """\
q1 d1 0.5
q1 d2 1.0
q1 d3 0.0
q1 d4 0.0
q1 d5 0.25
q1 d6 2.0
q1 d7 0.0
q2 p1 0.1
q2 p2 0.0
q2 p3 0.3
q3 x1 0.0
q4 d1 0.0
q4 e2 0.5
q4 e3 0.0
q4 e4 1.0
q5 f1 0.0
q5 f2 0.0
q5 f3 0.2
"""
NEUTRALITY = """\
d1 1.0
d2 0.0
d3 0.5
d4 1.0
d5 0.2
d6 1.0
d7 0.0
p1 1.0
p2 1.0
p3 1.0
x1 0.3
e2 1.0
e3 0.0
e4 0.4
f1 0.0
f2 0.1
f3 1.0
"""
QRELS = """\
q1 0 d2 1
q1 0 d4 2
q1 0 d6 1
q2 0 p3 1
q3 0 x1 1
q4 0 e2 1
q4 0 e4 2
q5 0 f1 1
"""

# (name, method, alpha or alpha grid, extra arguments, expected exit code)
RERANKS = (
    ("rerank_pufr_a0", "pufr", "0", (), 0),
    ("rerank_pufr_neg0", "pufr", "-0.0", (), 0),
    ("rerank_pufr_a1", "pufr", "1", (), 0),
    ("rerank_uniform", "uniform", "1.5", (), 0),
    ("rerank_unfair", "unfair", "0", (), 0),
    ("rerank_fastar", "fastar", "0.9", (), 0),
    ("rerank_constrained", "constrained", "0.95", ("--depth", "3"), 2),
)
SWEEPS = (
    ("sweep_pufr", "pufr", "0,0.5,1,4", (), 0),
    ("sweep_uniform", "uniform", "0,0.5,1,4", (), 0),
    ("sweep_unfair", "unfair", "0", (), 0),
    ("sweep_fastar", "fastar", "0,0.5,0.9", (), 0),
    ("sweep_constrained", "constrained", "0.5,0.95", ("--depth", "3"), 2),
)


def shuffled(text: str, seed: int) -> str:
    """The lines of ``text`` in another order, with comment and blank lines.
    Each query's first line keeps its place relative to the other queries'
    first lines, since queries are written in order of first appearance;
    every other line goes anywhere after its query's first line."""
    rng = random.Random(seed)
    lines, rest, first = [], [], set()
    for line in text.splitlines():
        query_id = line.split()[0]
        (rest if query_id in first else lines).append(line)
        first.add(query_id)
    rng.shuffle(rest)
    for line in rest:
        query_id = line.split()[0]
        start = next(i for i, kept in enumerate(lines) if kept.split()[0] == query_id)
        lines.insert(rng.randrange(start + 1, len(lines) + 1), line)
    for extra in ("# shuffled", "", "  # indented comment", "   "):
        lines.insert(rng.randrange(len(lines) + 1), extra)
    return "".join(line + "\n" for line in lines)


def write_corpus(directory: Path, run: str = RUN, sigma: str = SIGMA) -> list[str]:
    for name, text in (("run", run), ("sigma", sigma), ("neutrality", NEUTRALITY),
                       ("qrels", QRELS)):
        (directory / name).write_text(text, encoding="utf-8")
    return ["--run", str(directory / "run"), "--sigmas", str(directory / "sigma"),
            "--neutrality", str(directory / "neutrality")]


def mask_time(csv: str) -> str:
    lines = csv.splitlines(keepends=True)
    column = lines[0].split(",").index("rerank_time_s")
    masked = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        fields[column] = "*"
        masked.append(",".join(fields))
    return "".join(masked)


def run_command(directory: Path, kind: str, name: str, method: str, alpha: str,
                extra: tuple[str, ...], **files: str) -> tuple[int, str]:
    """Run one command on the corpus in ``directory``, with the run and sigma
    texts in ``files`` if given; returns (exit code, output text)."""
    corpus = write_corpus(directory, **files)
    out = directory / name
    if kind == "rerank":
        argv = ["rerank", *corpus, "--method", method, "--alpha", alpha, "--tag", method]
    else:
        argv = ["sweep", *corpus, "--qrels", str(directory / "qrels"), "--method", method,
                "--alpha-grid", alpha]
    code = main([*argv, *extra, "--output", str(out)])
    text = out.read_bytes().decode("utf-8")
    return code, text if kind == "rerank" else mask_time(text)


CASES = [("rerank", *case) for case in RERANKS] + [("sweep", *case) for case in SWEEPS]


@pytest.mark.parametrize("kind,name,method,alpha,extra,exit_code", CASES,
                         ids=[case[1] for case in CASES])
def test_output_bytes_are_unchanged(tmp_path, capsys, kind, name, method, alpha, extra,
                                    exit_code):
    code, text = run_command(tmp_path, kind, name, method, alpha, extra)
    assert code == exit_code, capsys.readouterr().err
    suffix = ".run" if kind == "rerank" else ".csv"
    assert text == (GOLDEN / (name + suffix)).read_text(encoding="utf-8")


@pytest.mark.parametrize("kind,name,method,alpha,extra,exit_code", CASES,
                         ids=[case[1] for case in CASES])
def test_line_order_and_comments_do_not_change_the_bytes(tmp_path, capsys, kind, name, method,
                                                          alpha, extra, exit_code):
    # queries recur later in both files; the sigma lines of q2 and q3 stay in
    # original-rank order and those of q1, q4 and q5 do not, so a sigma column
    # is joined both as it is and by doc id
    run, sigma = shuffled(RUN, 1), shuffled(SIGMA, 2)
    code, text = run_command(tmp_path, kind, name, method, alpha, extra, run=run, sigma=sigma)
    assert code == exit_code, capsys.readouterr().err
    suffix = ".run" if kind == "rerank" else ".csv"
    assert text == (GOLDEN / (name + suffix)).read_text(encoding="utf-8")


# q2 recurs after q1, its docs are out of id order, and c and b have the same
# feature row, so their means tie and the doc id breaks the tie
FEATURES = """\
q2 c 0.5 -1.0 2.0
q2 a 0.25 0.5 -0.75
q1 z 1.0 1.0 1.0
q2 b 0.5 -1.0 2.0
q1 y -2.0 0.0 0.5
q2 d -1.5 0.75 0.0
"""
THETA = (0.5, -0.25, 1.0)
FISHER = (2.0, 8.0, 4.0)


def test_laplace_bytes_are_the_per_document_moments(tmp_path):
    (tmp_path / "features").write_text(FEATURES, encoding="utf-8")
    (tmp_path / "posterior").write_text(
        f"theta 3 {' '.join(map(repr, THETA))}\nfisher 3 {' '.join(map(repr, FISHER))}\n",
        encoding="utf-8",
    )
    seed, n_samples = 5, 200
    assert main([
        "laplace", "--features", str(tmp_path / "features"),
        "--posterior", str(tmp_path / "posterior"), "--mc-samples", str(n_samples),
        "--seed", str(seed), "--output", str(tmp_path / "run"),
        "--sigma-output", str(tmp_path / "sigma"),
    ]) == 0

    features: dict[str, dict[str, np.ndarray]] = {}
    for line in FEATURES.splitlines():
        query_id, doc_id, *values = line.split()
        features.setdefault(query_id, {})[doc_id] = np.array(values, dtype=float)
    posterior = LastLayerPosterior(np.array(THETA), np.array(FISHER))
    run, sigma = [], []
    for query_id, docs in features.items():
        samples = sample_last_layers(
            posterior, McConfig(n_samples, seed=derive_query_seed(seed, query_id))
        )
        moments = {doc_id: oracles.predictive_moments(samples, h) for doc_id, h in docs.items()}
        ordered = sorted(moments, key=lambda doc_id: (-moments[doc_id][0], doc_id))
        for rank, doc_id in enumerate(ordered, start=1):
            mu, sd = moments[doc_id]
            run.append(f"{query_id} Q0 {doc_id} {rank} {mu!r} laplace\n")
            sigma.append(f"{query_id} {doc_id} {sd!r}\n")
    scores = {line.split()[2]: line.split()[4] for line in run}
    assert scores["b"] == scores["c"]
    assert (tmp_path / "run").read_text(encoding="utf-8") == "".join(run)
    assert (tmp_path / "sigma").read_text(encoding="utf-8") == "".join(sigma)


def test_laplace_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """One matrix-vector product over all 1,001 samples at d = 768 is split
    across BLAS threads at a row where the 1-thread kernel does not split, so
    scoring each document that way wrote other bits at 2 threads than at 1."""
    rng = np.random.default_rng(0)
    dim = 768
    lines = [
        f"q{q} q{q}-d{j} {' '.join(map(repr, rng.normal(size=dim).tolist()))}\n"
        for q in range(3) for j in range(30)
    ]
    (tmp_path / "features").write_text("".join(lines), encoding="utf-8")
    theta, fisher = rng.normal(size=dim), np.abs(rng.normal(size=dim)) + 0.5
    (tmp_path / "posterior").write_text(
        f"theta {dim} {' '.join(map(repr, theta.tolist()))}\n"
        f"fisher {dim} {' '.join(map(repr, fisher.tolist()))}\n",
        encoding="utf-8",
    )
    src = Path(pufr.__file__).resolve().parents[1]
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        out.mkdir()
        subprocess.run(
            [sys.executable, "-m", "pufr.cli", "laplace",
             "--features", str(tmp_path / "features"),
             "--posterior", str(tmp_path / "posterior"), "--mc-samples", "1001",
             "--seed", "0", "--output", str(out / "run"), "--sigma-output", str(out / "sigma")],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src)),
            check=True, timeout=300,
        )
        written.append(((out / "run").read_bytes(), (out / "sigma").read_bytes()))
    assert written[0] == written[1]


def test_laplace_bytes_do_not_depend_on_how_the_feature_file_is_split(tmp_path):
    """One process over one block, this process and a forked helper over
    blocks of 40 characters, and one process over those blocks on a host of
    one CPU write the same bytes."""
    (tmp_path / "features").write_text(FEATURES, encoding="utf-8")
    (tmp_path / "posterior").write_text(
        f"theta 3 {' '.join(map(repr, THETA))}\nfisher 3 {' '.join(map(repr, FISHER))}\n",
        encoding="utf-8",
    )
    written = []
    for block, cpus, forks in ((1 << 20, {0, 1}, 0), (40, {0, 1}, 1), (40, {0}, 0)):
        out = tmp_path / f"{block}_{len(cpus)}"
        out.mkdir()
        with mock.patch.object(fileio, "_BLOCK_CHARS", block), \
                mock.patch("os.sched_getaffinity", return_value=cpus, create=True), \
                mock.patch("os.fork", wraps=os.fork) as fork:
            assert main([
                "laplace", "--features", str(tmp_path / "features"),
                "--posterior", str(tmp_path / "posterior"), "--mc-samples", "200",
                "--seed", "5", "--output", str(out / "run"), "--sigma-output", str(out / "sigma"),
            ]) == 0
        assert fork.call_count == forks
        written.append(((out / "run").read_bytes(), (out / "sigma").read_bytes()))
    assert written[1] == written[0] and written[2] == written[0]


def test_synth_without_config_flags_writes_the_default_config(tmp_path):
    """`pufr synth` given no config flag writes what the library's writers
    write for ``generate_synthetic(SyntheticConfig())``."""
    assert main(["synth", "--output", str(tmp_path / "cli")]) == 0
    corpus, judgments = generate_synthetic(SyntheticConfig())
    lib = tmp_path / "lib"
    lib.mkdir()
    fileio.write_run_file(lib / "fixture.run", unfair_rank(corpus), tag="synth")
    fileio.write_sigma_file(lib / "fixture.sigma", corpus)
    fileio.write_neutrality_file(lib / "fixture.neutrality", corpus)
    fileio.write_qrels(lib / "fixture.qrels", judgments)
    for name in ("fixture.run", "fixture.sigma", "fixture.neutrality", "fixture.qrels"):
        assert (tmp_path / "cli" / name).read_bytes() == (lib / name).read_bytes()
