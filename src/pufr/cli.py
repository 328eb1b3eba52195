"""Command-line surface of the toolkit.

Subcommands: ``rerank`` (one method, one alpha, emits a run file),
``sweep`` (emits a trade-off CSV whose t/p columns hold the paired t-test
against the reference method), ``intervals`` (per-rank interval
intersection CSV), ``laplace`` (features + posterior to run and sigma
files), and ``synth`` (writes a full fixture corpus). scipy is imported only
where used: ``sweep`` (``scipy.special`` for the t-test's p-value) and the
constrained method (``scipy.optimize``); no other command loads it.

``laplace`` parses the feature file in two processes, then scores the queries
on two threads: a second thread draws the next query's Monte Carlo normals
while this one scores the current query (``uncertainty.score_queries``). No
thread is alive when the parse forks.

``rerank`` reads only the inputs its method uses (``sweep.Method``): the
run file alone for ``unfair``; the run and neutrality files for
``constrained``; those two plus group labels for ``fastar``; the run, sigma
and neutrality files and group labels for ``pufr`` and ``uniform``. A file
the method does not read is neither opened nor checked. ``sweep`` reads
every file it is given, since its metrics need neutrality and a sigma file
picks the PUFR t-test reference.

``sweep``, ``laplace`` and ``synth`` pass the flags named after fields of
``SweepConfig``, ``McConfig`` and ``SyntheticConfig`` to those types. Such a
flag has no default: when it is not given, the field keeps the type's own.

Exit codes: 0 on success; 1 on usage or parse errors, including a run
file with no data lines; 2 when a re-ranking could not meet its fairness
floor on some query, or met it but the node cap cut the search that
certifies it optimal (the output is still written).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence

from . import fileio
from .baselines import DEFAULT_DEPTH, unfair_rank
from .core import DEFAULT_PROTECTED_THRESHOLD, QueryCandidates, QueryStack, assign_groups
from .core import check_protected_threshold
from .sweep import (
    DEFAULT_INTERVAL_ALPHAS,
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
from .uncertainty import McConfig, score_queries

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


def _checked(check: Callable, parse: Callable[[str], Any] = str) -> Callable[[str], Any]:
    """An argparse type that parses a flag and passes it through a library
    check, reporting the check's ``ValueError`` as the flag's usage error."""

    def convert(text: str) -> Any:
        try:
            return check(parse(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _numbers(parse: Callable[[str], Any], kind: str, name: str) -> Callable[[str], tuple]:
    """An argparse type: a non-empty list of values split at commas or spaces."""

    def convert(text: str) -> tuple:
        try:
            values = tuple(map(parse, text.replace(",", " ").split()))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a list of {kind}: {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"{name} is empty")
        return values

    return convert


_alpha_grid = _numbers(float, "numbers", "alpha grid")
_cutoffs = _numbers(int, "integers", "cutoff list")
_interval_alphas = _checked(check_interval_alphas, _alpha_grid)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _config(cls: Any, args: argparse.Namespace) -> Any:
    """``cls`` built from the flags named after its fields; a flag that was not
    given is absent from ``args``, so its field keeps the type's default."""
    names = {field.name for field in dataclasses.fields(cls)}
    return cls(**{name: value for name, value in vars(args).items() if name in names})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pufr",
        description="Debias ranked lists post hoc using predictive uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_corpus_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--run", required=True, help="input run file")
        p.add_argument("--sigmas", default=None, help="sigma file")
        p.add_argument("--neutrality", required=True, help="neutrality score file")
        p.add_argument(
            "--protected-threshold",
            type=_checked(check_protected_threshold, float),
            default=DEFAULT_PROTECTED_THRESHOLD,
            help="neutrality at or above this value marks a doc protected (default %(default)s)",
        )

    # a flag of these commands with no default of its own is a config field:
    # absent from the parsed args unless given, so the config type's default holds
    config_parser = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = sub.add_parser("rerank", help="re-rank a run with one method at one alpha")
    add_corpus_args(p)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--tag", type=_checked(fileio.check_run_tag), default="pufr")
    p.add_argument("--output", required=True, help="output run file")

    p = config_parser("sweep", help="trade-off sweep over an alpha grid")
    add_corpus_args(p)
    p.add_argument("--qrels", required=True)
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--alpha-grid", type=_alpha_grid, required=True)
    p.add_argument("--cutoffs-utility", type=_cutoffs)
    p.add_argument("--cutoffs-fairness", type=_cutoffs)
    p.add_argument("--depth", type=int)
    p.add_argument("--ndcg-floor", type=_finite, default=None,
                   help="also report the best-fairness row whose utility meets this floor")
    p.add_argument("--output", required=True, help="output CSV")

    p = sub.add_parser("intervals", help="per-rank median interval intersection counts")
    p.add_argument("--run", required=True)
    p.add_argument("--sigmas", required=True)
    p.add_argument("--alpha-grid", type=_interval_alphas, default=DEFAULT_INTERVAL_ALPHAS)
    p.add_argument("--output", required=True, help="output CSV")

    p = config_parser("laplace", help="score queries from features and a posterior")
    p.add_argument("--features", required=True)
    p.add_argument("--posterior", required=True)
    p.add_argument("--mc-samples", type=int, dest="n_samples", metavar="MC_SAMPLES")
    p.add_argument("--seed", type=int)
    p.add_argument("--tag", type=_checked(fileio.check_run_tag), default="laplace")
    p.add_argument("--output", required=True, help="output run file")
    p.add_argument("--sigma-output", required=True, help="output sigma file")

    p = config_parser("synth", help="write a synthetic fixture corpus")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--queries", type=int, dest="n_queries", metavar="QUERIES")
    p.add_argument("--candidates", type=int, dest="n_candidates", metavar="CANDIDATES")
    for flag in ("--score-loc", "--score-spread", "--sigma-loc", "--sigma-spread",
                 "--protected-fraction", "--relevance-correlation", "--bias-strength"):
        p.add_argument(flag, type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--tag", type=_checked(fileio.check_run_tag), default="synth")

    return parser


def _load_corpus(
    args: argparse.Namespace, sigma: bool, neutrality: bool, groups: bool
) -> list[QueryCandidates]:
    """The run file joined with the sigma and neutrality files and labelled
    with groups, as asked; a file not asked for is not opened."""
    corpus = fileio.parse_run_file(args.run)
    if sigma:
        if not args.sigmas:
            raise ValueError(f"method {args.method!r} needs --sigmas")
        corpus = fileio.attach_sigmas(corpus, fileio.parse_sigma_file(args.sigmas))
    if neutrality:
        corpus = fileio.attach_neutrality(corpus, fileio.parse_neutrality_file(args.neutrality))
    if groups:
        corpus = [assign_groups(q, args.protected_threshold) for q in corpus]
    return corpus


def _cmd_rerank(args: argparse.Namespace) -> int:
    method = REGISTRY[args.method]
    method.check((args.alpha,), args.depth)
    corpus = _load_corpus(args, method.needs_sigma, method.needs_neutrality, method.needs_groups)
    ranked, problems = method.prepare(corpus, args.depth)(args.alpha)(QueryStack(corpus))
    fileio.write_run_file(args.output, ranked.rows(), tag=args.tag)
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
    cfg = _config(SweepConfig, args)
    # the metrics need neutrality, and given sigmas pick the PUFR t-test reference
    sigma = bool(args.sigmas) or REGISTRY[cfg.method].needs_sigma
    corpus = _load_corpus(args, sigma, neutrality=True, groups=True)
    judgments = fileio.parse_qrels(args.qrels)
    result = run_sweep(corpus, judgments, cfg)
    Path(args.output).write_text(records_to_csv(result.records), encoding="utf-8")
    if args.ndcg_floor is not None:
        uc, fc = max(cfg.cutoffs_utility), max(cfg.cutoffs_fairness)
        best = select_best_tradeoff(
            result.records, args.ndcg_floor, utility_cutoff=uc, fairness_cutoff=fc
        )
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
    cfg = _config(McConfig, args)
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
    scored = score_queries(posterior, features, cfg)
    fileio.write_run_file(args.output, [unfair_rank(q) for q in scored], tag=args.tag)
    fileio.write_sigma_file(args.sigma_output, scored)
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _config(SyntheticConfig, args)
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
