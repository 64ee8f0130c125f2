"""Brute-force retrieval and pair dataset construction.

Retrieval compares query features against gallery features with an exact
distance matrix, applies the eligibility rule (a gallery image with the same
identity *and* the same cloth index as the query never competes), and keeps
the top-P nearest candidates per query.

Pair datasets reuse the same machinery:

* evaluation pairs label each retrieved candidate 1 (same identity) or 0,
* training pairs collect, per train-split anchor, up to P nearest
  same-identity/different-cloth positives and up to P nearest
  different-identity negatives from the train split itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .datastore import ROLES, DatasetBundle, Split, check_rows, read_csv, write_csv

METRICS = ("euclidean", "cosine")

_COSINE_EPS = 1e-12

#: One row of a pair dataset.  ``rank`` is 1-based within the query's list
#: (training pairs rank their positive and negative sub-lists
#: independently) and ``label`` is 1 when both images share an identity,
#: else 0.
PAIR_DTYPE = np.dtype([("query_role", "U2"), ("query_index", np.int64),
                       ("rank", np.int64), ("cand_role", "U2"),
                       ("cand_index", np.int64), ("label", np.int64)])

PAIR_HEADER = PAIR_DTYPE.names


@dataclass
class PairSet:
    """A pair dataset: one :data:`PAIR_DTYPE` row per pair, in file order."""

    pairs: np.ndarray


#: Rows per block of :func:`distance_matrix`: every distance product is
#: taken in blocks of this many rows counted from row 0.
DISTANCE_BLOCK = 64


def distance_matrix(query_feats: np.ndarray, gallery_feats: np.ndarray,
                    metric: str = "euclidean") -> np.ndarray:
    """Exact pairwise distances, (n_query, n_gallery), float64.

    ``euclidean`` is the L2 distance ``sqrt(max(|q|² + |g|² - 2 q·g, 0))``;
    ``cosine`` is 1 - cosine similarity with zero-norm rows guarded by a
    small epsilon.  The rows come in ``DISTANCE_BLOCK``-row blocks counted
    from row 0: each block is its own product ``q[rows] @ g.T``, written into
    the result and turned into distances there, so the peak stays near one
    n_query x n_gallery array.  Rows ``r0:r0 + DISTANCE_BLOCK`` of the
    result, for ``r0`` a multiple of the block, are therefore bit for bit
    ``distance_matrix(q[r0:r0 + DISTANCE_BLOCK], g)``.  With one array as
    both operands the matrix need not be exactly symmetric: a block of
    ``a @ a.T`` can round a cell differently from its mirror.
    """
    q = np.asarray(query_feats, dtype=np.float64)
    g = np.asarray(gallery_feats, dtype=np.float64)
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if metric == "euclidean":
        qq, gg = (q * q).sum(axis=1), (g * g).sum(axis=1)
    else:
        qn, gn = np.linalg.norm(q, axis=1), np.linalg.norm(g, axis=1)
    dist = np.empty((len(q), len(g)))
    for start in range(0, len(q), DISTANCE_BLOCK):
        rows = slice(start, start + DISTANCE_BLOCK)
        block = np.matmul(q[rows], g.T, out=dist[rows])
        if metric == "euclidean":
            # (qq + gg) + (-2 m) rounds as (qq + gg) - 2 m does.
            block *= -2.0
            block += qq[rows, None] + gg
            np.maximum(block, 0.0, out=block)
            np.sqrt(block, out=block)
        else:
            block /= np.maximum(qn[rows, None] * gn, _COSINE_EPS)
            np.subtract(1.0, block, out=block)
    return dist


class DistanceRows:
    """``distance_matrix(query_feats, gallery_feats, metric)`` read by row
    slices, each computed on demand: ``rows[r0:r1]`` is bit for bit that
    slice of the whole matrix, and no more than the ``DISTANCE_BLOCK``-aligned
    rows enclosing it is ever held.  With ``zero_diagonal`` every cell
    ``(i, i)`` reads 0, as after ``np.fill_diagonal(matrix, 0.0)``.
    Iterating yields the rows in order, one block computed at a time.
    """

    def __init__(self, query_feats: np.ndarray, gallery_feats: np.ndarray,
                 metric: str = "euclidean", zero_diagonal: bool = False) -> None:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
        self.q = np.asarray(query_feats, dtype=np.float64)
        self.g = np.asarray(gallery_feats, dtype=np.float64)
        self.metric = metric
        self.zero_diagonal = zero_diagonal
        self.shape = (len(self.q), len(self.g))

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, step = rows.indices(len(self.q))
        if step != 1:
            raise ValueError(f"DistanceRows takes contiguous row slices, got step {step}")
        stop = max(start, stop)
        # Whole blocks only: a shorter last block is a different product,
        # which BLAS may round differently.
        r0 = start - start % DISTANCE_BLOCK
        r1 = stop + -stop % DISTANCE_BLOCK
        block = distance_matrix(self.q[r0:r1], self.g, self.metric)
        if self.zero_diagonal:
            own = np.arange(r0, min(r0 + len(block), len(self.g)))
            block[own - r0, own] = 0.0
        return block[start - r0:stop - r0]


def eligible_mask(queries: Split, gallery: Split) -> np.ndarray:
    """(n_query, n_gallery) boolean mask: True where the candidate may compete.

    A gallery image is ineligible exactly when it shares both the identity
    and the cloth index of the query.  (Within one split this also removes
    the query itself.)
    """
    return ~((queries.identity[:, None] == gallery.identity[None, :])
             & (queries.cloth[:, None] == gallery.cloth[None, :]))


def masked_orders(block: np.ndarray, allowed: np.ndarray,
                  limit: int | None = None) -> list[np.ndarray]:
    """For each row of ``block``: the indices of the entries its row of
    ``allowed`` permits, by ascending value with ties to the lower index and
    NaN last; at most ``limit`` of them.

    Without a ``limit`` the block takes one unstable ``np.argsort``; the
    rows where equal values meet then sort each run of them (NaNs form one
    run) by index, and each row keeps its allowed entries along that order,
    which is the order of sorting only them.  With a ``limit``, each row
    holding more allowed entries than that finds its limit-th smallest
    allowed value with one ``np.partition`` of the block's rows, disallowed
    entries read as +inf; the entries at or below each row's cut (ties at
    the cut included; with a NaN cut, every allowed entry) take one stable
    sort by (row, value) (see :func:`_cut_entries`).  A limited order is an
    array of its own that keeps nothing of the block's size alive.
    """
    n = block.shape[1]
    if limit is None:
        order = np.argsort(block, axis=1)
        values = np.take_along_axis(block, order, axis=1)
        # A run opens at every change of value; the NaNs, sorted last, are one.
        opens = (values[:, 1:] != values[:, :-1]) & ~np.isnan(values[:, :-1])
        del values
        tied = np.flatnonzero(~opens.all(axis=1))
        if len(tied):
            runs = np.zeros((len(tied), n), dtype=np.intp)
            np.cumsum(opens[tied], axis=1, out=runs[:, 1:])
            runs *= n
            runs += order[tied]
            runs.sort(axis=1)
            order[tied] = runs % n
        ok = np.take_along_axis(allowed, order, axis=1)
        return np.split(order[ok], np.cumsum(ok.sum(axis=1)))[:-1]
    row, col = _cut_entries(block, allowed, limit)
    starts = np.searchsorted(row, np.arange(len(block) + 1))
    return [col[a:min(b, a + limit)].copy() for a, b in zip(starts[:-1], starts[1:])]


def _cut_entries(block: np.ndarray, allowed: np.ndarray,
                 limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The allowed entries at or below each row's cut (see
    :func:`masked_orders`) as flat int64 columns ``(row, column)``, rows
    ascending and each row's entries in order.  Ties at the cut can leave a
    row more than ``limit`` entries; its first ``limit`` are its order."""
    n = block.shape[1]
    over = np.flatnonzero(allowed.sum(axis=1) > limit)
    keep = allowed
    if len(over):
        # Every row over the limit, as is common, is read through views.
        rows = slice(None) if len(over) == len(block) else over
        values = np.where(allowed[rows], block[rows], np.inf)
        values.partition(limit - 1, axis=1)
        cut = np.full((len(block), 1), np.inf)
        cut[over, 0] = values[:, limit - 1]
        del values
        # Allowed and not above the cut: a NaN entry or cut keeps the
        # entry, and NaN sorts last.
        keep = allowed > (block > cut)
    kept = np.flatnonzero(keep)
    row, col = np.divmod(kept, n)
    # Each row's columns come ascending and lexsort is stable, so equal
    # values keep the lower column first.
    return row, col[np.lexsort((block.ravel()[kept], row))]


def blocked_orders(dist: np.ndarray | DistanceRows, queries: Split, gallery: Split,
                   limit: int | None = None) -> Iterator[np.ndarray]:
    """Each query's eligible gallery by ascending ``dist`` row, ties to the
    lower index, at most ``limit`` entries (see :func:`masked_orders`),
    taking the rows and the eligibility mask one ``DISTANCE_BLOCK`` of
    queries at a time."""
    for r0 in range(0, len(queries), DISTANCE_BLOCK):
        rows = slice(r0, r0 + DISTANCE_BLOCK)
        yield from masked_orders(dist[rows], eligible_mask(queries[rows], gallery), limit)


def top_candidates(queries: Split, gallery: Split, num_candidates: int,
                   metric: str = "euclidean") -> list[np.ndarray]:
    """Top-P eligible candidates per query: an array of gallery indices,
    nearest first.

    Ties in distance break towards the lower gallery index.  Queries with
    fewer than P eligible gallery images get shorter arrays.
    """
    if num_candidates < 1:
        raise ValueError(f"num_candidates must be >= 1, got {num_candidates}")
    if not len(gallery):
        raise ValueError("empty gallery")
    return list(blocked_orders(DistanceRows(queries.features, gallery.features, metric),
                               queries, gallery, num_candidates))


def concatenated_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])``
    as int64, from a fixed number of whole-array steps."""
    sizes = stops - starts
    out = np.repeat(np.asarray(starts - np.cumsum(sizes) + sizes, dtype=np.int64), sizes)
    out += np.arange(len(out))
    return out


def _ranked_pairs(query_role: str, queries: Split, cand_role: str, cands: Split,
                  runs: list[tuple[int, np.ndarray]]) -> PairSet:
    """One pair per candidate of each ``(query index, candidate indices)``
    run, ranked from 1 within its run and labelled 1 when the query and the
    candidate share an identity."""
    if not runs:
        return PairSet(np.empty(0, dtype=PAIR_DTYPE))
    query_index, cand_index = zip(*runs)
    counts = np.array([len(kept) for kept in cand_index], dtype=np.int64)
    pairs = np.empty(counts.sum(), dtype=PAIR_DTYPE)
    pairs["query_role"], pairs["cand_role"] = query_role, cand_role
    pairs["query_index"] = np.repeat(query_index, counts)
    pairs["rank"] = concatenated_ranges(np.ones_like(counts), counts + 1)
    pairs["cand_index"] = np.concatenate(cand_index)
    pairs["label"] = (queries.identity[pairs["query_index"]]
                      == cands.identity[pairs["cand_index"]])
    return PairSet(pairs)


def build_eval_pairs(bundle: DatasetBundle, query_role: str, gallery_role: str,
                     num_candidates: int = 20, metric: str = "euclidean") -> PairSet:
    """Labelled top-P candidate pairs for a query/gallery role combination."""
    queries = bundle.splits[query_role]
    gallery = bundle.splits[gallery_role]
    if not len(gallery):
        raise ValueError(f"empty gallery: role {gallery_role} holds no images to rank "
                         f"the {query_role} queries against")
    lists = top_candidates(queries, gallery, num_candidates, metric)
    return _ranked_pairs(query_role, queries, gallery_role, gallery, list(enumerate(lists)))


def _mine_block(block: np.ndarray, rows: slice, ids: np.ndarray, cloths: np.ndarray,
                limit: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Train pairs of the anchors ``rows``, whose distance rows are
    ``block``: ``(usable, columns)``, where ``usable`` flags each anchor with
    a positive and a negative and ``columns`` are the flat query index,
    rank, candidate index and label of the usable anchors' pairs, anchor
    after anchor, each one's positives and then its negatives ranked from 1.
    Every temporary of the block goes when it returns."""
    same = ids[rows, None] == ids
    pos_mask, neg_mask = same & (cloths[rows, None] != cloths), ~same
    usable = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    sides = [_cut_entries(block, mask, limit) for mask in (pos_mask, neg_mask)]
    anchor, cand = (np.concatenate(side) for side in zip(*sides))
    label = np.repeat([True, False], [len(sides[0][0]), len(sides[1][0])])
    # Each entry's 0-based place in its anchor's positives or negatives.
    rank = np.concatenate([np.arange(len(row)) - np.searchsorted(row, row) for row, _ in sides])
    # Stable: an anchor's positives stay ahead of its negatives.
    order = np.argsort(anchor, kind="stable")
    order = order[usable[anchor[order]] & (rank[order] < limit)]
    return usable, [column[order] for column in (anchor + rows.start, rank + 1, cand, label)]


def build_train_pairs(bundle: DatasetBundle, num_candidates: int = 20,
                      metric: str = "euclidean") -> tuple[PairSet, list[int]]:
    """Anchor/positive/negative pairs mined from the train split.

    Per anchor: the nearest ``num_candidates`` same-identity different-cloth
    images become positives (label 1), the nearest ``num_candidates``
    different-identity images become negatives (label 0).  Anchors without at
    least one positive and one negative are dropped; the second return value
    lists their indices.  Each block of anchors leaves flat columns, copied
    once into the pair array.
    """
    if num_candidates < 1:
        raise ValueError(f"num_candidates must be >= 1, got {num_candidates}")
    train = bundle.splits["T"]
    # One float64 array as both operands: a split that fits in one block
    # then takes numpy's symmetric ``a @ a.T``.  A larger one need not give
    # an exactly symmetric matrix, and no code needs it to: each anchor
    # selects from its own row.
    feats = train.features.astype(np.float64)
    dist = DistanceRows(feats, feats, metric)
    columns: dict[str, list[np.ndarray]] = {"query_index": [], "rank": [],
                                            "cand_index": [], "label": []}
    dropped: list[int] = []
    for r0 in range(0, len(train), DISTANCE_BLOCK):
        rows = slice(r0, r0 + DISTANCE_BLOCK)
        usable, block_columns = _mine_block(dist[rows], rows, train.identity, train.cloth,
                                            num_candidates)
        dropped += (r0 + np.flatnonzero(~usable)).tolist()
        for blocks, column in zip(columns.values(), block_columns):
            blocks.append(column)
    # Only the columns are held while the pair array is filled.
    del dist, feats
    pairs = np.empty(sum(map(len, columns["label"])), dtype=PAIR_DTYPE)
    pairs["query_role"] = pairs["cand_role"] = "T"
    for name in list(columns):
        # Each field's blocks go as soon as they are copied in; the empty
        # head serves a train split with no images, which has no blocks.
        np.concatenate([np.empty(0, np.int64), *columns.pop(name)], out=pairs[name])
    return PairSet(pairs), dropped


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
    """Write a pair set, one CSV row per pair."""
    write_csv(path, PAIR_HEADER, [pair_set.pairs[name] for name in PAIR_HEADER],
              config_comment)


def read_pairs_csv(path: str | Path) -> PairSet:
    """Read a pair set; an unknown role, a label other than 0 or 1 or a
    repeated (query role, query index, candidate role, candidate index)
    raises ValueError naming the file and line."""
    path = Path(path)
    columns, lines = read_csv(path, PAIR_HEADER, (str, int, int, str, int, int))
    qr, qi, _, cr, ci, label = columns
    keys = (qr, qi, cr, ci)
    order = np.lexsort(keys[::-1])  # stable: a repeated pair's rows stay in file order
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:]] = np.logical_and.reduce([k[order][1:] == k[order][:-1] for k in keys])
    check_rows([
        (~np.isin(qr, ROLES) | ~np.isin(cr, ROLES), lambda i: (
            f"{path}: line {lines[i]}: unknown role "
            f"{str(qr[i] if qr[i] not in ROLES else cr[i])!r} "
            f"(expected one of {', '.join(ROLES)})")),
        ((label != 0) & (label != 1),
         lambda i: f"{path}: line {lines[i]}: label must be 0 or 1, got {label[i]}"),
        (repeat, lambda i: (
            f"{path}: line {lines[i]}: repeats the pair of line "
            f"{lines[np.logical_and.reduce([k == k[i] for k in keys]).argmax()]} "
            f"({qr[i]} {qi[i]} -> {cr[i]} {ci[i]})"))])
    pairs = np.empty(len(lines), dtype=PAIR_DTYPE)
    for name, column in zip(PAIR_HEADER, columns):
        pairs[name] = column
    return PairSet(pairs)
