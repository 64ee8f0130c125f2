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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .datastore import ROLES, DatasetBundle, Split, check_rows, read_csv, write_csv

METRICS = ("euclidean", "cosine")

_COSINE_EPS = 1e-12

#: One row of a pair dataset.  ``rank`` is 1-based within the query's list
#: (training pairs rank their positive and negative sub-lists
#: independently), ``score`` is -distance and ``label`` is 1 when both images
#: share an identity, else 0.
PAIR_DTYPE = np.dtype([("query_role", "U2"), ("query_index", np.int64),
                       ("rank", np.int64), ("cand_role", "U2"),
                       ("cand_index", np.int64), ("score", np.float64),
                       ("label", np.int64)])

PAIR_HEADER = PAIR_DTYPE.names


@dataclass
class PairSet:
    """A pair dataset: one :data:`PAIR_DTYPE` row per pair, in file order."""

    pairs: np.ndarray


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
    value with ties to the lower index; at most ``limit`` of them, as an
    array of their own that keeps no longer ordering alive.

    With a ``limit`` below the allowed count, ``np.partition`` finds the
    limit-th smallest allowed value and only the entries at or below it
    (ties at the cut included) are sorted: the same order as sorting every
    allowed entry.  A NaN cut sorts them all, as NaN sorts last.
    """
    kept = np.flatnonzero(allowed)
    values = row[kept]
    if limit is not None and 0 < limit < len(kept):
        cut = np.partition(values, limit - 1)[limit - 1]
        if not np.isnan(cut):
            near = values <= cut
            kept, values = kept[near], values[near]
    order = kept[np.argsort(values, kind="stable")]
    return order if limit is None or len(order) <= limit else order[:limit].copy()


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


def _ranked_pairs(query_role: str, queries: Split, cand_role: str, cands: Split,
                  runs: list[tuple[int, np.ndarray, np.ndarray]]) -> PairSet:
    """One pair per candidate of each ``(query index, candidate indices,
    scores)`` run, ranked from 1 within its run and labelled 1 when the query
    and the candidate share an identity."""
    if not runs:
        return PairSet(np.empty(0, dtype=PAIR_DTYPE))
    query_index, cand_index, scores = zip(*runs)
    counts = [len(kept) for kept in cand_index]
    pairs = np.empty(sum(counts), dtype=PAIR_DTYPE)
    pairs["query_role"], pairs["cand_role"] = query_role, cand_role
    pairs["query_index"] = np.repeat(query_index, counts)
    pairs["rank"] = np.concatenate([np.arange(1, n + 1) for n in counts])
    pairs["cand_index"] = np.concatenate(cand_index)
    pairs["score"] = np.concatenate(scores)
    pairs["label"] = (queries.identity[pairs["query_index"]]
                      == cands.identity[pairs["cand_index"]])
    return PairSet(pairs)


def build_eval_pairs(bundle: DatasetBundle, query_role: str, gallery_role: str,
                     num_candidates: int = 20, metric: str = "euclidean") -> PairSet:
    """Labelled top-P candidate pairs for a query/gallery role combination."""
    queries = bundle.splits[query_role]
    gallery = bundle.splits[gallery_role]
    lists = top_candidates(queries, gallery, num_candidates, metric)
    return _ranked_pairs(query_role, queries, gallery_role, gallery,
                         [(qi, kept, scores) for qi, (kept, scores) in enumerate(lists)])


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

    runs: list[tuple[int, np.ndarray, np.ndarray]] = []
    dropped: list[int] = []
    for ai, row in enumerate(dist):
        same = ids == ids[ai]
        pos_mask, neg_mask = same & (cloths != cloths[ai]), ~same
        if not pos_mask.any() or not neg_mask.any():
            dropped.append(ai)
            continue
        for mask in (pos_mask, neg_mask):
            kept = masked_order(row, mask, num_candidates)
            runs.append((ai, kept, -row[kept]))
    return _ranked_pairs("T", train, "T", train, runs), dropped


def query_runs(pairs: np.ndarray) -> list[np.ndarray]:
    """Row numbers of each query's pairs in rank order (equal ranks in file
    order); queries are numbered by their ``(query_role, query_index)``'s
    first appearance and come in that order."""
    _, first, inverse = np.unique(pairs[["query_role", "query_index"]],
                                  return_index=True, return_inverse=True)
    number = np.argsort(np.argsort(first))[inverse]
    order = np.lexsort((pairs["rank"], number))
    return np.split(order, np.flatnonzero(np.diff(number[order], prepend=-1)))[1:]


def candidates_from_pairs(pair_set: PairSet) -> dict[int, np.ndarray]:
    """Recover each query's candidate gallery indices, in rank order, from
    an eval pair set: ``{query_index: gallery indices}``."""
    pairs = pair_set.pairs
    runs = [(int(pairs["query_index"][run[0]]), pairs["cand_index"][run])
            for run in query_runs(pairs)]
    return dict(sorted(runs, key=lambda run: run[0]))


# ---------------------------------------------------------------------------
# CSV serialisation


def write_pairs_csv(path: str | Path, pair_set: PairSet,
                    config_comment: str | None = None) -> None:
    """Write a pair set; float scores use repr so reads round-trip exactly."""
    write_csv(path, PAIR_HEADER, [pair_set.pairs[name] for name in PAIR_HEADER],
              config_comment)


def read_pairs_csv(path: str | Path) -> PairSet:
    """Read a pair set; an unknown role or a label other than 0 or 1 raises
    ValueError naming the file and line."""
    path = Path(path)
    columns, lines = read_csv(path, PAIR_HEADER, (str, int, int, str, int, float, int))
    qr, cr, label = columns[0], columns[3], columns[6]
    check_rows([
        (~np.isin(qr, ROLES) | ~np.isin(cr, ROLES), lambda i: (
            f"{path}: line {lines[i]}: unknown role "
            f"{str(qr[i] if qr[i] not in ROLES else cr[i])!r} "
            f"(expected one of {', '.join(ROLES)})")),
        ((label != 0) & (label != 1),
         lambda i: f"{path}: line {lines[i]}: label must be 0 or 1, got {label[i]}")])
    pairs = np.empty(len(lines), dtype=PAIR_DTYPE)
    for name, column in zip(PAIR_HEADER, columns):
        pairs[name] = column
    return PairSet(pairs)
