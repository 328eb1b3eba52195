"""Command-line surface of the toolkit.

Subcommands: ``rerank`` (one method, one alpha, emits a run file),
``sweep`` (emits a trade-off CSV whose t/p columns hold the paired t-test
against the reference method), ``intervals`` (per-rank interval
intersection CSV), ``laplace`` (features + posterior to run and sigma
files), and ``synth`` (writes a full fixture corpus). scipy is imported only
where used: ``sweep`` (``scipy.special`` for the t-test's p-value) and the
constrained method (``scipy.optimize``); no other command loads it.

Exit codes: 0 on success; 1 on usage or parse errors, including a run
file with no data lines; 2 when a re-ranking could not meet its fairness
floor on some query, or met it but the node cap cut the search that
certifies it optimal (the output is still written).
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from pathlib import Path
from typing import Sequence

from . import fileio
from .baselines import DEFAULT_DEPTH, unfair_rank
from .core import QueryCandidates, assign_groups, check_protected_threshold
from .sweep import (
    METHODS,
    REGISTRY,
    SweepConfig,
    check_interval_alphas,
    records_to_csv,
    report_interval_analysis,
    run_sweep,
    select_best_tradeoff,
)
from .synth import SyntheticConfig, generate_synthetic
from .uncertainty import DEFAULT_MC_SAMPLES, McConfig, score_query

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


def _alpha_grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("alpha grid is empty")
    return values


def _interval_alphas(text: str) -> tuple[float, ...]:
    try:
        return check_interval_alphas(_alpha_grid(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _cutoffs(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("cutoff list is empty")
    return values


def _run_tag(text: str) -> str:
    try:
        return fileio.check_run_tag(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _protected_threshold(text: str) -> float:
    try:
        return check_protected_threshold(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pufr",
        description="Debias ranked lists post hoc using predictive uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_corpus_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--run", required=True, help="input run file")
        p.add_argument("--sigmas", help="sigma file")
        p.add_argument("--neutrality", required=True, help="neutrality score file")
        p.add_argument(
            "--protected-threshold",
            type=_protected_threshold,
            default=1.0,
            help="neutrality at or above this value marks a doc protected (default 1.0)",
        )

    p = sub.add_parser("rerank", help="re-rank a run with one method at one alpha")
    add_corpus_args(p)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--tag", type=_run_tag, default="pufr")
    p.add_argument("--output", required=True, help="output run file")

    p = sub.add_parser("sweep", help="trade-off sweep over an alpha grid")
    add_corpus_args(p)
    p.add_argument("--qrels", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--alpha-grid", type=_alpha_grid, required=True)
    p.add_argument("--cutoffs-utility", type=_cutoffs, default=(10, 100))
    p.add_argument("--cutoffs-fairness", type=_cutoffs, default=(10, 50))
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument(
        "--ndcg-floor",
        type=_finite,
        default=None,
        help="also report the best-fairness row whose utility meets this floor",
    )
    p.add_argument("--output", required=True, help="output CSV")

    p = sub.add_parser("intervals", help="per-rank median interval intersection counts")
    p.add_argument("--run", required=True)
    p.add_argument("--sigmas", required=True)
    p.add_argument("--alpha-grid", type=_interval_alphas, default=(1.0, 2.0))
    p.add_argument("--output", required=True, help="output CSV")

    p = sub.add_parser("laplace", help="score queries from features and a posterior")
    p.add_argument("--features", required=True)
    p.add_argument("--posterior", required=True)
    p.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tag", type=_run_tag, default="laplace")
    p.add_argument("--output", required=True, help="output run file")
    p.add_argument("--sigma-output", required=True, help="output sigma file")

    p = sub.add_parser("synth", help="write a synthetic fixture corpus")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--queries", type=int, default=50)
    p.add_argument("--candidates", type=int, default=20)
    p.add_argument("--score-loc", type=float, default=0.0)
    p.add_argument("--score-spread", type=float, default=2.0)
    p.add_argument("--sigma-loc", type=float, default=0.3)
    p.add_argument("--sigma-spread", type=float, default=0.15)
    p.add_argument("--protected-fraction", type=float, default=0.5)
    p.add_argument("--relevance-correlation", type=float, default=0.7)
    p.add_argument("--bias-strength", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tag", type=_run_tag, default="synth")

    return parser


def _load_corpus(args: argparse.Namespace) -> list[QueryCandidates]:
    corpus = fileio.parse_run_file(args.run)
    if args.sigmas:
        corpus = fileio.attach_sigmas(corpus, fileio.parse_sigma_file(args.sigmas))
    elif REGISTRY[args.method].needs_sigma:
        raise ValueError(f"method {args.method!r} needs --sigmas")
    corpus = fileio.attach_neutrality(corpus, fileio.parse_neutrality_file(args.neutrality))
    return [assign_groups(q, args.protected_threshold) for q in corpus]


def _cmd_rerank(args: argparse.Namespace) -> int:
    method = REGISTRY[args.method]
    method.check((args.alpha,), args.depth)
    corpus = _load_corpus(args)
    rerank = method.prepare(corpus, args.depth)(args.alpha)
    results = [rerank(q) for q in corpus]
    fileio.write_run_file(args.output, [ranking for ranking, _ in results], tag=args.tag)
    problems = Counter(problem for _, problem in results)
    return _warn(problems["infeasible"], problems["exhausted"], "queries")


def _warn(infeasible: int, exhausted: int, unit: str) -> int:
    """Report uncertified re-rankings on stderr; the exit code for them."""
    if infeasible:
        print(f"warning: fairness floor infeasible for {infeasible} {unit}", file=sys.stderr)
    if exhausted:
        print(
            f"warning: node cap reached for {exhausted} {unit}: the fairness floor is met "
            f"but the ranking is not certified optimal",
            file=sys.stderr,
        )
    return EXIT_INFEASIBLE if infeasible or exhausted else EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = SweepConfig(
        method=args.method,
        alpha_grid=args.alpha_grid,
        cutoffs_utility=args.cutoffs_utility,
        cutoffs_fairness=args.cutoffs_fairness,
        depth=args.depth,
    )
    corpus = _load_corpus(args)
    judgments = fileio.parse_qrels(args.qrels)
    result = run_sweep(corpus, judgments, cfg)
    Path(args.output).write_text(records_to_csv(result.records), encoding="utf-8")
    if args.ndcg_floor is not None:
        best = select_best_tradeoff(
            result.records,
            args.ndcg_floor,
            utility_cutoff=max(args.cutoffs_utility),
            fairness_cutoff=max(args.cutoffs_fairness),
        )
        uc, fc = max(args.cutoffs_utility), max(args.cutoffs_fairness)
        if best is None:
            print(f"no alpha meets ndcg_cut_{uc} >= {args.ndcg_floor}")
        else:
            print(
                f"best under ndcg_cut_{uc} >= {args.ndcg_floor}: "
                f"alpha={best.alpha:g} nfairr{fc}={best.nfairr[fc]:.6f} "
                f"ndcg_cut_{uc}={best.ndcg[uc]:.6f}"
            )
    return _warn(result.infeasible_queries, result.exhausted_queries, "query re-rankings")


def _cmd_intervals(args: argparse.Namespace) -> int:
    corpus = fileio.attach_sigmas(
        fileio.parse_run_file(args.run), fileio.parse_sigma_file(args.sigmas)
    )
    Path(args.output).write_text(
        report_interval_analysis(corpus, args.alpha_grid), encoding="utf-8"
    )
    return EXIT_OK


def _cmd_laplace(args: argparse.Namespace) -> int:
    cfg = McConfig(n_samples=args.mc_samples, seed=args.seed)
    features = fileio.parse_features_file(args.features)
    if not features:
        raise ValueError(f"{args.features}: no feature rows")
    posterior = fileio.parse_posterior_file(args.posterior)
    first_query = next(iter(features.values()))
    feature_dim = len(next(iter(first_query.values())))
    if feature_dim != posterior.dim:
        raise ValueError(
            f"{args.features} has feature dimension {feature_dim} but "
            f"{args.posterior} has posterior dimension {posterior.dim}"
        )
    scored = [score_query(posterior, docs, query_id, cfg) for query_id, docs in features.items()]
    fileio.write_run_file(args.output, [unfair_rank(q) for q in scored], tag=args.tag)
    fileio.write_sigma_file(args.sigma_output, scored)
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = SyntheticConfig(
        n_queries=args.queries,
        n_candidates=args.candidates,
        score_loc=args.score_loc,
        score_spread=args.score_spread,
        sigma_loc=args.sigma_loc,
        sigma_spread=args.sigma_spread,
        protected_fraction=args.protected_fraction,
        relevance_correlation=args.relevance_correlation,
        bias_strength=args.bias_strength,
        seed=args.seed,
    )
    corpus, judgments = generate_synthetic(cfg)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_run_file(out / "fixture.run", [unfair_rank(q) for q in corpus], tag=args.tag)
    fileio.write_sigma_file(out / "fixture.sigma", corpus)
    fileio.write_neutrality_file(out / "fixture.neutrality", corpus)
    fileio.write_qrels(out / "fixture.qrels", judgments)
    print(f"wrote fixture corpus ({cfg.n_queries} queries) to {out}")
    return EXIT_OK


_COMMANDS = {
    "rerank": _cmd_rerank,
    "sweep": _cmd_sweep,
    "intervals": _cmd_intervals,
    "laplace": _cmd_laplace,
    "synth": _cmd_synth,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
