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

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .datastore import DatasetBundle, write_csv, write_json
from .retrieval import DISTANCE_BLOCK, eligible_mask

if TYPE_CHECKING:
    from .reranker import RankedList

SWEEP_HEADER = ("L", "rank1", "rank10")
PER_QUERY_HEADER = ("query_index", "first_hit_rank", "average_precision")


@dataclass
class EvalReport:
    """Aggregate metrics plus two per-query columns.

    ``cmc[i]`` is CMC@(i+1).  ``first_hit_rank[q]`` is the 1-based rank of
    query q's first positive and ``average_precision[q]`` its AP; a query
    with no eligible positive in the gallery is excluded, with rank 0 and
    AP NaN.
    """

    cmc: list[float]
    map_score: float
    auc: float
    first_hit_rank: np.ndarray
    average_precision: np.ndarray

    @property
    def num_evaluated(self) -> int:
        return int(np.count_nonzero(self.first_hit_rank))

    @property
    def excluded_queries(self) -> list[int]:
        return np.flatnonzero(self.first_hit_rank == 0).tolist()

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
        excluded = self.first_hit_rank == 0
        write_csv(path, PER_QUERY_HEADER, (
            np.arange(len(excluded), dtype=np.int64),
            np.where(excluded, "", self.first_hit_rank.astype(str)),
            np.where(excluded, "", np.array(
                [repr(ap) for ap in self.average_precision.tolist()], dtype=str))),
            config_comment)


def evaluate(bundle: DatasetBundle, ranked: Sequence[RankedList], k_max: int = 10,
             query_role: str = "Q", gallery_role: str = "G") -> EvalReport:
    """Score ranked lists against identity labels.

    ``ranked[i]`` ranks query ``i`` of ``query_role``; a list of another
    length than the queries raises ValueError naming both counts.  Each
    ranking must be a permutation of its query's eligible gallery
    (same-identity-same-cloth images already removed, so a query without
    eligible images has an empty one); anything else -- ineligible entries,
    duplicates, omissions -- raises ValueError naming the query.  The
    eligibility mask is taken one ``DISTANCE_BLOCK`` of queries at a time.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    queries, gallery = bundle.splits[query_role], bundle.splits[gallery_role]
    if len(ranked) != len(queries):
        raise ValueError(f"expected one ranking per {query_role} query: got "
                         f"{len(ranked)} rankings for {len(queries)} queries")
    first_hit_rank = np.zeros(len(queries), dtype=np.int64)
    average_precision = np.full(len(queries), np.nan)
    for qi, rl in enumerate(ranked):
        if qi % DISTANCE_BLOCK == 0:
            allowed = eligible_mask(queries[qi:qi + DISTANCE_BLOCK], gallery)
        order = np.asarray(rl.order)
        eligible = np.flatnonzero(allowed[qi % DISTANCE_BLOCK])
        # Sorted, a permutation of the eligible gallery is its index list;
        # checked before any lookup, so a bad index cannot wrap or raise.
        if not np.array_equal(np.sort(order), eligible):
            raise ValueError(
                f"ranking for query {qi} is not a permutation of "
                f"its {eligible.size} eligible gallery images"
            )
        positions = np.flatnonzero(gallery.identity[order] == queries.identity[qi]) + 1
        if len(positions):
            first_hit_rank[qi] = positions[0]
            average_precision[qi] = (np.arange(1, len(positions) + 1) / positions).mean()

    evaluated = first_hit_rank > 0
    hits = first_hit_rank[evaluated]
    n = len(hits)
    cmc = [float((hits <= k).mean()) if n else 0.0 for k in range(1, k_max + 1)]
    map_score = float(average_precision[evaluated].mean()) if n else 0.0
    auc = float(np.mean(cmc))
    return EvalReport(cmc=cmc, map_score=map_score, auc=auc, first_hit_rank=first_hit_rank,
                      average_precision=average_precision)


def write_sweep_csv(path: str | Path, rows: list[tuple[int, float, float]],
                    config_comment: str | None = None) -> None:
    table = np.array(rows, dtype=[("L", np.int64), ("rank1", np.float64),
                                  ("rank10", np.float64)])
    write_csv(path, SWEEP_HEADER, [table[name] for name in SWEEP_HEADER], config_comment)
