"""Output checks for the benchmark.

Everything here reads the program's files with plain Python and numpy and
recomputes what it can without calling ``pufr``: input-order metrics, the
PUFR clamped scores, interval overlap counts, constrained-solver
feasibility and the exact Laplace predictive moments. Each check returns a
list of error strings; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

# The sweep CSV's per-query re-rank time is wall-clock, so digests mask it.
MASKED_COLUMNS = ("rerank_time_s",)
METRIC_TOL = 1e-9
PROTECTED_THRESHOLD = 1.0
FEASIBILITY_TOL = 1e-9
INFEASIBLE_RE = re.compile(r"fairness floor infeasible for (\d+) ")
SWEEP_HEADER = (
    "method,alpha,ndcg_cut_10,ndcg_cut_100,nfairr10,nfairr50,rerank_time_s,t_stat,p_value"
)


def digest(path: Path) -> str:
    """SHA-256 of a file, with wall-clock CSV columns masked."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        lines = data.decode("utf-8").splitlines()
        header = lines[0].split(",") if lines else []
        masked = [i for i, name in enumerate(header) if name in MASKED_COLUMNS]
        if masked:
            out = [lines[0]]
            for line in lines[1:]:
                cells = line.split(",")
                for i in masked:
                    if i < len(cells):
                        cells[i] = "*"
                out.append(",".join(cells))
            data = "".join(line + "\n" for line in out).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# -- readers ---------------------------------------------------------------


def _rows(path: Path) -> list[list[str]]:
    return [
        line.split()
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]


def read_run(path: Path) -> dict[str, list[tuple[str, float, int, str]]]:
    """Run file as query -> [(doc, score, rank, tag)] in file order."""
    run: dict[str, list[tuple[str, float, int, str]]] = {}
    for fields in _rows(path):
        qid, _, doc, rank, score, tag = fields
        run.setdefault(qid, []).append((doc, float(score), int(rank), tag))
    return run


@dataclass(frozen=True)
class Query:
    """One input query with its documents in original-rank order."""

    query_id: str
    docs: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray
    neutrality: np.ndarray

    @property
    def protected(self) -> np.ndarray:
        return self.neutrality >= PROTECTED_THRESHOLD


@dataclass(frozen=True)
class Fixture:
    queries: tuple[Query, ...]
    qrels: dict[str, dict[str, int]]
    run_path: Path


def read_fixture(directory: Path) -> Fixture:
    run = read_run(directory / "fixture.run")
    sigmas = {(q, d): float(s) for q, d, s in _rows(directory / "fixture.sigma")}
    neutrality = {d: float(v) for d, v in _rows(directory / "fixture.neutrality")}
    qrels: dict[str, dict[str, int]] = {}
    for qid, _, doc, grade in _rows(directory / "fixture.qrels"):
        qrels.setdefault(qid, {})[doc] = int(grade)
    queries = []
    for qid, entries in run.items():
        ordered = sorted(entries, key=lambda e: (-e[1], e[0]))
        docs = tuple(e[0] for e in ordered)
        queries.append(
            Query(
                query_id=qid,
                docs=docs,
                mu=np.array([e[1] for e in ordered]),
                sigma=np.array([sigmas[(qid, d)] for d in docs]),
                neutrality=np.array([neutrality[d] for d in docs]),
            )
        )
    return Fixture(queries=tuple(queries), qrels=qrels, run_path=directory / "fixture.run")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# -- oracles ---------------------------------------------------------------


def pufr_scores(query: Query, alpha: float, sigma: np.ndarray | None = None) -> np.ndarray:
    """Clamped PUFR scores: protected docs raised by alpha*sigma and capped by
    every higher-ranked protected doc, non-protected docs lowered and floored
    by every lower-ranked one."""
    sigma = query.sigma if sigma is None else sigma
    scores = np.empty_like(query.mu)
    up = np.flatnonzero(query.protected)
    scores[up] = np.minimum.accumulate(query.mu[up] + alpha * sigma[up])
    down = np.flatnonzero(~query.protected)[::-1]
    scores[down] = np.maximum.accumulate(query.mu[down] - alpha * sigma[down])
    return scores


def order_by(scores: np.ndarray) -> np.ndarray:
    """Indices sorted by score descending, ties by original rank."""
    return np.lexsort((np.arange(len(scores)), -scores))


def uniform_sigma(fixture: Fixture) -> float:
    total = 0.0
    count = 0
    for query in fixture.queries:
        for value in query.sigma.tolist():
            total += value
            count += 1
    return total / count


def ndcg(query: Query, order: np.ndarray, qrels: dict[str, int], k: int) -> float:
    gains = np.array([qrels.get(query.docs[i], 0) for i in order[:k]], dtype=float)
    dcg = float(np.sum(gains / np.log2(np.arange(2, len(gains) + 2))))
    ideal = np.sort(np.array(list(qrels.values()), dtype=float))[::-1][:k]
    idcg = float(np.sum(ideal / np.log2(np.arange(2, len(ideal) + 2))))
    return 0.0 if idcg == 0.0 else dcg / idcg


def nfairr(query: Query, order: np.ndarray, k: int) -> float:
    neut = query.neutrality[order[:k]]
    fairr = float(np.sum(neut / np.arange(1, len(neut) + 1)))
    best = np.sort(query.neutrality)[::-1][:k]
    ideal = float(np.sum(best / np.arange(1, len(best) + 1)))
    return 1.0 if ideal == 0.0 else fairr / ideal


def mean_metrics(fixture: Fixture, orders: Sequence[np.ndarray]) -> dict[str, float]:
    """Mean nDCG@{10,100} and nFaiRR@{10,50} of one ranking per query."""
    n = len(fixture.queries)
    out = {}
    for k in (10, 100):
        out[f"ndcg_cut_{k}"] = sum(
            ndcg(q, o, fixture.qrels.get(q.query_id, {}), k)
            for q, o in zip(fixture.queries, orders)
        ) / n
    for k in (10, 50):
        out[f"nfairr{k}"] = sum(nfairr(q, o, k) for q, o in zip(fixture.queries, orders)) / n
    return out


def input_orders(fixture: Fixture) -> list[np.ndarray]:
    return [np.arange(len(q.docs)) for q in fixture.queries]


def interval_medians(fixture: Fixture, alpha: float) -> list[int]:
    """Per-rank lower-median count of other docs whose closed interval
    [mu - alpha*sigma, mu + alpha*sigma] overlaps the doc's own."""
    per_query = []
    for q in fixture.queries:
        lo = q.mu - alpha * q.sigma
        hi = q.mu + alpha * q.sigma
        starts_before_end = np.searchsorted(np.sort(lo), hi, side="right")
        ends_before_start = np.searchsorted(np.sort(hi), lo, side="left")
        per_query.append((starts_before_end - ends_before_start - 1).tolist())
    depth = max(len(c) for c in per_query)
    medians = []
    for idx in range(depth):
        values = sorted(c[idx] for c in per_query if len(c) > idx)
        medians.append(values[(len(values) - 1) // 2])
    return medians


def infeasible_count(fixture: Fixture, alphas: Sequence[float], depth: int) -> int:
    """Re-rankings whose fairness floor no window order can meet: the
    neutrality-descending window misses alpha times the pool's ideal."""
    count = 0
    for q in fixture.queries:
        d = min(depth, len(q.docs))
        exposure = 1.0 / np.arange(1, d + 1)
        ideal = float(np.sum(np.sort(q.neutrality)[::-1][:d] * exposure))
        fairest = float(np.sum(np.sort(q.neutrality[:d])[::-1] * exposure))
        count += sum(fairest < a * ideal - FEASIBILITY_TOL for a in alphas)
    return count


# -- checks ----------------------------------------------------------------


def check_permutation(fixture: Fixture, path: Path) -> list[str]:
    """Each query of the output lists exactly its input documents, ranked 1..n."""
    out = read_run(path)
    errors = []
    expected = {q.query_id: set(q.docs) for q in fixture.queries}
    if list(out) != [q.query_id for q in fixture.queries]:
        errors.append(f"{path.name}: query ids or their order differ from the input")
    for qid, entries in out.items():
        if {e[0] for e in entries} != expected.get(qid) or len(entries) != len(expected[qid]):
            errors.append(f"{path.name}: query {qid} is not a permutation of its input")
        if [e[2] for e in entries] != list(range(1, len(entries) + 1)):
            errors.append(f"{path.name}: query {qid} ranks are not 1..n in order")
    return errors


def check_pufr_run(fixture: Fixture, path: Path, alpha: float, uniform: bool) -> list[str]:
    """No swap within a group, and the exact clamped scores and order."""
    errors = check_permutation(fixture, path)
    if errors:
        return errors
    out = read_run(path)
    sigma_mean = uniform_sigma(fixture) if uniform else None
    for q in fixture.queries:
        entries = out[q.query_id]
        position = {d: i for i, d in enumerate(q.docs)}
        got = np.array([position[e[0]] for e in entries])
        for label, mask in (("protected", q.protected), ("non-protected", ~q.protected)):
            members = got[mask[got]]
            if not np.all(np.diff(members) > 0):
                errors.append(f"{path.name}: query {q.query_id}: swap within the {label} group")
        sigma = None if sigma_mean is None else np.full_like(q.sigma, sigma_mean)
        scores = pufr_scores(q, alpha, sigma)
        order = order_by(scores)
        if not np.array_equal(got, order):
            errors.append(f"{path.name}: query {q.query_id}: order differs from the oracle")
        elif [e[1] for e in entries] != scores[order].tolist():
            errors.append(f"{path.name}: query {q.query_id}: scores differ from the oracle")
    return errors


def check_unfair_run(fixture: Fixture, path: Path, tag: str) -> list[str]:
    """Score order reproduces the input run line for line, up to the tag."""
    expected = [
        line.rsplit(" ", 1)[0] + f" {tag}"
        for line in fixture.run_path.read_text(encoding="utf-8").splitlines()
    ]
    if path.read_text(encoding="utf-8").splitlines() != expected:
        return [f"{path.name}: does not reproduce the input order"]
    return []


def check_sweep(
    fixture: Fixture,
    path: Path,
    method: str,
    grid: Sequence[float],
    oracle: Callable[[float], list[np.ndarray] | None],
) -> list[str]:
    """Shape and ranges of a sweep CSV; rows whose rankings the oracle knows
    must carry the oracle's metrics (alpha 0 reproduces the input order)."""
    header, rows = read_csv(path)
    if ",".join(header) != SWEEP_HEADER:
        return [f"{path.name}: unexpected header {header}"]
    if [r[0] for r in rows] != [method] * len(grid):
        return [f"{path.name}: expected {len(grid)} {method!r} rows"]
    errors = []
    for row, alpha in zip(rows, grid):
        values = dict(zip(header[1:], (float(v) for v in row[1:])))
        if values["alpha"] != alpha:
            errors.append(f"{path.name}: alpha {values['alpha']} where {alpha} expected")
        for name in header[2:6]:
            if not 0.0 <= values[name] <= 1.0:
                errors.append(f"{path.name}: alpha {alpha}: {name} outside [0, 1]")
        if not (math.isfinite(values["rerank_time_s"]) and values["rerank_time_s"] > 0.0):
            errors.append(f"{path.name}: alpha {alpha}: bad rerank_time_s")
        orders = oracle(alpha)
        if orders is None:
            continue
        for name, want in mean_metrics(fixture, orders).items():
            if abs(values[name] - want) > METRIC_TOL:
                errors.append(
                    f"{path.name}: alpha {alpha}: {name} {values[name]!r} != oracle {want!r}"
                )
        if alpha == 0.0 and (values["t_stat"] != 0.0 or values["p_value"] != 1.0):
            errors.append(f"{path.name}: alpha 0 differs from its reference ranking")
    return errors


def pufr_oracle(fixture: Fixture, uniform: bool) -> Callable[[float], list[np.ndarray]]:
    sigma_mean = uniform_sigma(fixture) if uniform else None

    def orders(alpha: float) -> list[np.ndarray]:
        return [
            order_by(
                pufr_scores(q, alpha, None if sigma_mean is None else np.full_like(q.sigma, sigma_mean))
            )
            for q in fixture.queries
        ]

    return orders


def fastar_oracle(fixture: Fixture) -> Callable[[float], list[np.ndarray] | None]:
    """Quota p = 0 keeps the score order; p = 1 puts every protected doc first."""

    def orders(alpha: float) -> list[np.ndarray] | None:
        if alpha == 0.0:
            return input_orders(fixture)
        if alpha == 1.0:
            return [
                np.concatenate([np.flatnonzero(q.protected), np.flatnonzero(~q.protected)])
                for q in fixture.queries
            ]
        return None

    return orders


def check_intervals(fixture: Fixture, path: Path, alphas: Sequence[float]) -> list[str]:
    header, rows = read_csv(path)
    want_header = ["rank"] + [f"median_swaps_alpha_{a:g}" for a in alphas]
    if header != want_header:
        return [f"{path.name}: unexpected header {header}"]
    columns = [interval_medians(fixture, a) for a in alphas]
    expected = [[str(i + 1)] + [str(c[i]) for c in columns] for i in range(len(columns[0]))]
    if rows != expected:
        return [f"{path.name}: interval counts differ from the oracle"]
    return []


def check_infeasible_report(stderr: str, expected: int) -> list[str]:
    match = INFEASIBLE_RE.search(stderr)
    reported = int(match.group(1)) if match else 0
    if reported != expected:
        return [f"constrained sweep reported {reported} infeasible re-rankings, oracle {expected}"]
    return []


def check_laplace(
    run_path: Path,
    sigma_path: Path,
    doc_ids: dict[str, list[str]],
    features: np.ndarray,
    theta: np.ndarray,
    precision: np.ndarray,
    n_samples: int,
) -> list[str]:
    """Ranked by mean score, every document scored, and the Monte Carlo
    moments within six standard errors of the exact linear-Gaussian ones."""
    errors = []
    run = read_run(run_path)
    sigmas = {(q, d): float(s) for q, d, s in _rows(sigma_path)}
    if list(run) != list(doc_ids):
        return [f"{run_path.name}: query ids differ from the feature file"]
    for qi, (qid, docs) in enumerate(doc_ids.items()):
        entries = run[qid]
        if sorted(e[0] for e in entries) != sorted(docs):
            errors.append(f"{run_path.name}: query {qid} is not a permutation of its features")
            continue
        scores = [e[1] for e in entries]
        if any(a < b for a, b in zip(scores, scores[1:])):
            errors.append(f"{run_path.name}: query {qid} is not sorted by score")
        row = {d: j for j, d in enumerate(docs)}
        index = [row[e[0]] for e in entries]
        feats = features[qi, index]
        exact_mu = feats @ theta
        exact_sigma = np.sqrt((feats * feats) @ (1.0 / precision))
        try:
            got_sigma = np.array([sigmas[(qid, e[0])] for e in entries])
        except KeyError as exc:
            errors.append(f"{sigma_path.name}: missing sigma for {exc}")
            continue
        if np.any(np.abs(np.array(scores) - exact_mu) > 6 * exact_sigma / math.sqrt(n_samples)):
            errors.append(f"{run_path.name}: query {qid}: mean off the exact predictive")
        if np.any(np.abs(got_sigma - exact_sigma) > 6 * exact_sigma / math.sqrt(2 * n_samples)):
            errors.append(f"{sigma_path.name}: query {qid}: sigma off the exact predictive")
    if len(sigmas) != sum(len(d) for d in doc_ids.values()):
        errors.append(f"{sigma_path.name}: expected one sigma per scored document")
    return errors
