"""Brute-force retrieval and pair dataset construction.

Retrieval compares query features against gallery features with an exact
distance matrix, applies the eligibility rule (a gallery image with the same
identity *and* the same cloth index as the query never competes), and keeps
the top-P nearest candidates per query.  Candidate scores are negated
distances, so higher is always better downstream.

Pair datasets reuse the same machinery:

* evaluation pairs label each retrieved candidate 1 (same identity) or 0,
* training pairs collect, per train-split anchor, up to P nearest
  same-identity/different-cloth positives and up to P nearest
  different-identity negatives from the train split itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .datastore import DatasetBundle, Split, read_csv

METRICS = ("euclidean", "cosine")

PAIR_HEADER = ("query_role", "query_index", "rank", "cand_role", "cand_index",
               "score", "label")

_COSINE_EPS = 1e-12


@dataclass(frozen=True)
class Pair:
    """One (query, candidate) row of a pair dataset.

    ``rank`` is 1-based within the query's list; for training pairs the
    positive and negative sub-lists are ranked independently.  ``label`` is
    1 when both images share an identity, else 0.
    """

    query_role: str
    query_index: int
    rank: int
    cand_role: str
    cand_index: int
    score: float
    label: int


@dataclass
class PairSet:
    """A pair dataset plus its provenance tag (train, valid or test)."""

    pairs: list[Pair] = field(default_factory=list)
    provenance: str = ""

    def by_query(self) -> dict[tuple[str, int], list[Pair]]:
        """Group pairs per query, preserving file/rank order."""
        out: dict[tuple[str, int], list[Pair]] = {}
        for p in self.pairs:
            out.setdefault((p.query_role, p.query_index), []).append(p)
        return out


def distance_matrix(query_feats: np.ndarray, gallery_feats: np.ndarray,
                    metric: str = "euclidean") -> np.ndarray:
    """Exact pairwise distances, (n_query, n_gallery), float64.

    ``euclidean`` is the L2 distance; ``cosine`` is 1 - cosine similarity
    with zero-norm rows guarded by a small epsilon.
    """
    q = np.asarray(query_feats, dtype=np.float64)
    g = np.asarray(gallery_feats, dtype=np.float64)
    if metric == "euclidean":
        qq = (q * q).sum(axis=1)[:, None]
        gg = (g * g).sum(axis=1)[None, :]
        sq = qq + gg - 2.0 * (q @ g.T)
        np.maximum(sq, 0.0, out=sq)
        return np.sqrt(sq)
    if metric == "cosine":
        qn = np.linalg.norm(q, axis=1)[:, None]
        gn = np.linalg.norm(g, axis=1)[None, :]
        denom = np.maximum(qn * gn, _COSINE_EPS)
        return 1.0 - (q @ g.T) / denom
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def eligible_mask(queries: Split, gallery: Split) -> np.ndarray:
    """(n_query, n_gallery) boolean mask: True where the candidate may compete.

    A gallery image is ineligible exactly when it shares both the identity
    and the cloth index of the query.  (Within one split this also removes
    the query itself.)
    """
    return ~((queries.identity[:, None] == gallery.identity[None, :])
             & (queries.cloth[:, None] == gallery.cloth[None, :]))


def masked_order(row: np.ndarray, allowed: np.ndarray,
                 limit: int | None = None) -> np.ndarray:
    """Indices of the entries ``allowed`` permits, by ascending ``row``
    value with ties to the lower index; at most ``limit`` of them."""
    order = np.argsort(row, kind="stable")
    return order[allowed[order]][:limit]


def top_candidates(queries: Split, gallery: Split, num_candidates: int,
                   metric: str = "euclidean") -> list[tuple[np.ndarray, np.ndarray]]:
    """Top-P eligible candidates per query, nearest first, as aligned
    ``(gallery indices, scores)`` arrays; a score is -distance.

    Ties in distance break towards the lower gallery index.  Queries with
    fewer than P eligible gallery images get shorter arrays.
    """
    if num_candidates < 1:
        raise ValueError(f"num_candidates must be >= 1, got {num_candidates}")
    if not len(gallery):
        raise ValueError("empty gallery")
    dist = distance_matrix(queries.features, gallery.features, metric)
    allowed = eligible_mask(queries, gallery)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for row, ok in zip(dist, allowed):
        kept = masked_order(row, ok, num_candidates)
        out.append((kept, -row[kept]))
    return out


def build_eval_pairs(bundle: DatasetBundle, query_role: str, gallery_role: str,
                     num_candidates: int = 20, metric: str = "euclidean") -> PairSet:
    """Labelled top-P candidate pairs for a query/gallery role combination."""
    queries = bundle.splits[query_role]
    gallery = bundle.splits[gallery_role]
    lists = top_candidates(queries, gallery, num_candidates, metric)
    pairs: list[Pair] = []
    for qi, (identity, (kept, scores)) in enumerate(zip(queries.identity, lists)):
        labels = (gallery.identity[kept] == identity).astype(int)
        for rank, (gi, score, label) in enumerate(
                zip(kept.tolist(), scores.tolist(), labels.tolist()), start=1):
            pairs.append(Pair(query_role, qi, rank, gallery_role, gi, score, label))
    provenance = {"VQ": "valid", "Q": "test"}.get(query_role,
                                                  f"{query_role}-{gallery_role}")
    return PairSet(pairs, provenance)


def build_train_pairs(bundle: DatasetBundle, num_candidates: int = 20,
                      metric: str = "euclidean") -> tuple[PairSet, list[int]]:
    """Anchor/positive/negative pairs mined from the train split.

    Per anchor: the nearest ``num_candidates`` same-identity different-cloth
    images become positives (label 1), the nearest ``num_candidates``
    different-identity images become negatives (label 0).  Anchors without at
    least one positive and one negative are dropped; the second return value
    lists their indices.
    """
    train = bundle.splits["T"]
    # One float64 array as both operands: numpy computes ``a @ a.T`` as a
    # symmetric product, so dist is exactly symmetric.
    feats = train.features.astype(np.float64)
    dist = distance_matrix(feats, feats, metric)
    ids, cloths = train.identity, train.cloth

    pairs: list[Pair] = []
    dropped: list[int] = []
    for ai, row in enumerate(dist):
        same = ids == ids[ai]
        pos_mask, neg_mask = same & (cloths != cloths[ai]), ~same
        if not pos_mask.any() or not neg_mask.any():
            dropped.append(ai)
            continue
        # One sort serves both lists: every candidate is a positive or a negative.
        order = masked_order(row, pos_mask | neg_mask)
        is_pos = pos_mask[order]
        for kept, label in ((order[is_pos][:num_candidates], 1),
                             (order[~is_pos][:num_candidates], 0)):
            for rank, (j, d) in enumerate(zip(kept.tolist(), row[kept].tolist()),
                                          start=1):
                pairs.append(Pair("T", ai, rank, "T", j, -d, label))
    return PairSet(pairs, "train"), dropped


def candidates_from_pairs(pair_set: PairSet) -> dict[int, np.ndarray]:
    """Recover each query's candidate gallery indices, in rank order, from
    an eval pair set: ``{query_index: gallery indices}``."""
    out = {qi: np.array([p.cand_index for p in sorted(plist, key=lambda p: p.rank)])
           for (_, qi), plist in pair_set.by_query().items()}
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# CSV serialisation


def write_pairs_csv(path: str | Path, pair_set: PairSet,
                    config_comment: str | None = None) -> None:
    """Write a pair set; float scores use repr so reads round-trip exactly."""
    with open(path, "w", newline="") as fh:
        if config_comment is not None:
            fh.write(f"# {config_comment}\n")
        fh.write(",".join(PAIR_HEADER) + "\n")
        for p in pair_set.pairs:
            fh.write(f"{p.query_role},{p.query_index},{p.rank},{p.cand_role},"
                     f"{p.cand_index},{p.score!r},{p.label}\n")


def _parse_pair_row(raw: list[str]) -> Pair:
    qr, qi, rank, cr, ci, score, label = raw
    return Pair(qr, int(qi), int(rank), cr, int(ci), float(score), int(label))


def read_pairs_csv(path: str | Path) -> PairSet:
    pairs = list(read_csv(path, PAIR_HEADER, _parse_pair_row))
    query_roles = {p.query_role for p in pairs}
    provenance = ""
    if len(query_roles) == 1:
        provenance = {"T": "train", "VQ": "valid", "Q": "test"}.get(
            query_roles.pop(), "")
    return PairSet(pairs, provenance)
