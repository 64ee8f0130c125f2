"""Ranking quality metrics for query/gallery evaluation.

All metrics honour the eligibility rule: gallery images sharing both
identity and cloth index with the query are removed from its ranking before
scoring, so trivial same-clothes matches never count.  Queries left without
a single positive are excluded from the averages and reported separately.

* CMC@k: fraction of queries whose first correct match sits at rank <= k.
* AP: mean, over a query's positives, of the precision at each positive's
  rank; mAP averages AP over the evaluated queries.
* AUC: mean of CMC@1..k_max, a single-number summary of the curve head.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .datastore import DatasetBundle, Split, write_csv, write_json
from .reranker import RankedList, RankingConfig, rerank_pipeline, window_rerank
from .retrieval import DISTANCE_BLOCK, eligible_mask
from .verifier import prefix_scores

SWEEP_HEADER = ("L", "rank1", "rank10")
PER_QUERY_HEADER = ("query_index", "first_hit_rank", "average_precision")


@dataclass(frozen=True)
class QueryMetric:
    """Per-query outcome; fields are None for excluded queries."""

    query_index: int
    first_hit_rank: int | None
    average_precision: float | None


@dataclass
class EvalReport:
    """Aggregate metrics plus per-query detail.

    ``cmc[i]`` is CMC@(i+1); ``excluded_queries`` lists queries with no
    eligible positive in the gallery.
    """

    cmc: list[float]
    map_score: float
    auc: float
    num_evaluated: int
    excluded_queries: list[int]
    per_query: list[QueryMetric] = field(default_factory=list)

    def to_json_dict(self, config: dict | None = None) -> dict:
        out = {
            "cmc": self.cmc,
            "map": self.map_score,
            "auc": self.auc,
            "num_evaluated": self.num_evaluated,
            "excluded_queries": self.excluded_queries,
        }
        if config is not None:
            out["config"] = config
        return out

    def write_json(self, path: str | Path, config: dict | None = None) -> None:
        write_json(path, self.to_json_dict(config))

    def write_per_query_csv(self, path: str | Path,
                            config_comment: str | None = None) -> None:
        # An excluded query's rank and AP are empty fields.
        write_csv(path, PER_QUERY_HEADER, (
            np.array([qm.query_index for qm in self.per_query], dtype=np.int64),
            np.array(["" if qm.first_hit_rank is None else str(qm.first_hit_rank)
                      for qm in self.per_query], dtype=str),
            np.array(["" if qm.average_precision is None else repr(qm.average_precision)
                      for qm in self.per_query], dtype=str)), config_comment)


def evaluate(bundle: DatasetBundle, ranked: list[RankedList], k_max: int = 10,
             query_role: str = "Q", gallery_role: str = "G") -> EvalReport:
    """Score ranked lists against identity labels.

    ``ranked`` must hold exactly one ranking per query of ``query_role``,
    in any order; a missing, duplicated or unknown query raises ValueError
    naming it.  A query without eligible gallery images may be missing: its
    ranking is empty, and it is reported under ``excluded_queries``.  Each ranking must be a permutation
    of its query's eligible gallery (same-identity-same-cloth images already
    removed); anything else -- ineligible entries, duplicates, omissions --
    raises ValueError naming the query.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    queries, gallery = bundle.splits[query_role], bundle.splits[gallery_role]
    present = {rl.query_index for rl in ranked}
    ranked = ranked + [RankedList(qi, np.empty(0, dtype=np.int64))
                       for qi in range(len(queries)) if qi not in present
                       and not eligible_mask(queries[qi:qi + 1], gallery).any()]
    _check_one_ranking_per_query(ranked, len(queries), query_role)
    return _score(queries, gallery, ranked, k_max)


def _score(queries: Split, gallery: Split, ranked: list[RankedList],
           k_max: int) -> EvalReport:
    """:func:`evaluate` with each query's ranking present once.  The
    eligibility mask is taken one ``DISTANCE_BLOCK`` of queries at a time."""
    first_hits: list[int] = []
    aps: list[float] = []
    excluded: list[int] = []
    per_query: list[QueryMetric] = []
    block = None
    for rl in sorted(ranked, key=lambda r: r.query_index):
        qi = rl.query_index
        order = np.asarray(rl.order)
        if qi // DISTANCE_BLOCK != block:
            block = qi // DISTANCE_BLOCK
            rows = slice(block * DISTANCE_BLOCK, (block + 1) * DISTANCE_BLOCK)
            allowed = eligible_mask(queries[rows], gallery)
        eligible = np.flatnonzero(allowed[qi % DISTANCE_BLOCK])
        # Sorted, a permutation of the eligible gallery is its index list;
        # checked before any lookup, so a bad index cannot wrap or raise.
        if not np.array_equal(np.sort(order), eligible):
            raise ValueError(
                f"ranking for query {qi} is not a permutation of "
                f"its {eligible.size} eligible gallery images"
            )
        labels = gallery.identity[order] == queries.identity[qi]
        num_pos = int(labels.sum())
        if num_pos == 0:
            excluded.append(qi)
            per_query.append(QueryMetric(qi, None, None))
            continue
        positions = np.flatnonzero(labels) + 1
        first_hit = int(positions[0])
        precisions = np.arange(1, num_pos + 1) / positions
        ap = float(precisions.mean())
        first_hits.append(first_hit)
        aps.append(ap)
        per_query.append(QueryMetric(qi, first_hit, ap))

    n = len(first_hits)
    hits = np.asarray(first_hits)
    cmc = [float((hits <= k).mean()) if n else 0.0 for k in range(1, k_max + 1)]
    map_score = float(np.mean(aps)) if n else 0.0
    auc = float(np.mean(cmc))
    return EvalReport(cmc=cmc, map_score=map_score, auc=auc, num_evaluated=n,
                      excluded_queries=excluded, per_query=per_query)


def _check_one_ranking_per_query(ranked: list[RankedList], num_queries: int,
                                 query_role: str) -> None:
    counts = Counter(rl.query_index for rl in ranked)
    faults = {
        "missing": [qi for qi in range(num_queries) if qi not in counts],
        "duplicated": sorted(qi for qi, n in counts.items() if n > 1),
        "unknown": sorted(qi for qi in counts if not 0 <= qi < num_queries),
    }
    detail = "; ".join(f"{len(qis)} {what}: {qis[:20]}"
                       + (" ..." if len(qis) > 20 else "")
                       for what, qis in faults.items() if qis)
    if detail:
        raise ValueError(f"expected one ranking per {query_role} query "
                         f"(0..{num_queries - 1}); queries {detail}")


# ---------------------------------------------------------------------------
# window-size sweep


def sweep_L(bundle: DatasetBundle, scorer, config: RankingConfig,
            L_values: Sequence[int], include_kreciprocal: bool = False,
            metric: str = "euclidean", query_role: str = "Q", gallery_role: str = "G"
            ) -> list[tuple[int, float, float]]:
    """Rank-1/Rank-10 as a function of the window size L, at fixed Q.

    ``scorer`` follows the protocol of :func:`~rvrank.verifier.prefix_scores`.
    Its scores are computed once per query (the scored prefix depends only
    on Q) and reused across all L values.  Returns (L, rank1, rank10)
    rows in the order given.
    """
    cfg = config.clamped()
    base = rerank_pipeline(bundle, None, cfg,
                           stages=("kreciprocal",) if include_kreciprocal else (),
                           metric=metric, query_role=query_role,
                           gallery_role=gallery_role)
    queries, gallery = bundle.splits[query_role], bundle.splits[gallery_role]
    scores = prefix_scores(scorer, queries, gallery, [rl.order for rl in base], cfg.Q)

    rows: list[tuple[int, float, float]] = []
    for L in L_values:
        run_cfg = replace(cfg, L=int(L)).clamped()
        ranked = [RankedList(rl.query_index, window_rerank(rl.order, s, run_cfg.L, run_cfg.Q))
                  for rl, s in zip(base, scores)]
        report = _score(queries, gallery, ranked, k_max=10)
        rows.append((int(L), report.cmc[0], report.cmc[9]))
    return rows


def write_sweep_csv(path: str | Path, rows: list[tuple[int, float, float]],
                    config_comment: str | None = None) -> None:
    table = np.array(rows, dtype=[("L", np.int64), ("rank1", np.float64),
                                  ("rank10", np.float64)])
    write_csv(path, SWEEP_HEADER, [table[name] for name in SWEEP_HEADER], config_comment)
