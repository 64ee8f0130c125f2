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
from typing import Callable, Iterator

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
#: taken in blocks of this many rows counted from row 0.  Not sized by
#: :func:`~rvrank.datastore.block_rows`: OpenBLAS can round a product cell
#: differently with another row count, so the blocks define the distances.
DISTANCE_BLOCK = 64


def _norms(feats: np.ndarray, metric: str) -> np.ndarray:
    """Each row's squared norm for ``euclidean``, its norm for ``cosine``."""
    if metric == "euclidean":
        return (feats * feats).sum(axis=1)
    return np.linalg.norm(feats, axis=1)


def _finish(product: np.ndarray, query_norms: np.ndarray | float,
            gallery_norms: np.ndarray, metric: str) -> None:
    """Turn products ``q·g`` into distances in place, cell by cell from the
    :func:`_norms` of the cell's two rows, so any subset of cells gets the
    bits of the whole block."""
    if metric == "euclidean":
        # (qq + gg) + (-2 m) rounds as (qq + gg) - 2 m does.
        product *= -2.0
        product += query_norms + gallery_norms
        np.maximum(product, 0.0, out=product)
        np.sqrt(product, out=product)
    else:
        product /= np.maximum(query_norms * gallery_norms, _COSINE_EPS)
        np.subtract(1.0, product, out=product)


def _finish_rows(block: np.ndarray, query_norms: np.ndarray, gallery_norms: np.ndarray,
                 metric: str) -> None:
    """:func:`_finish` a block of products row by row: no temporary the
    size of the block."""
    for row, norm in zip(block, query_norms):
        _finish(row, norm, gallery_norms, metric)


def distance_matrix(query_feats: np.ndarray, gallery_feats: np.ndarray,
                    metric: str = "euclidean", *, out: np.ndarray | None = None,
                    finish: bool = True) -> np.ndarray:
    """Exact pairwise distances, (n_query, n_gallery), float64.

    ``euclidean`` is the L2 distance ``sqrt(max(|q|² + |g|² - 2 q·g, 0))``;
    ``cosine`` is 1 - cosine similarity with zero-norm rows guarded by a
    small epsilon.  The rows come in ``DISTANCE_BLOCK``-row blocks counted
    from row 0: each block is its own product ``q[rows] @ g.T``, written into
    the result and turned into distances there row by row, so the peak
    stays near one n_query x n_gallery array.  Rows ``r0:r0 +
    DISTANCE_BLOCK`` of the result, for ``r0`` a multiple of the block, are
    therefore bit for bit ``distance_matrix(q[r0:r0 + DISTANCE_BLOCK], g)``.
    With one array as both operands the matrix need not be exactly
    symmetric: a block of ``a @ a.T`` can round a cell differently from its
    mirror.

    ``out`` is the array to write into instead of a new one, and
    ``finish=False`` leaves the products ``q·g`` there, for a caller that
    finishes only the cells it reads (:class:`DistanceRows` does both).
    """
    q = np.asarray(query_feats, dtype=np.float64)
    g = np.asarray(gallery_feats, dtype=np.float64)
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    dist = np.empty((len(q), len(g))) if out is None else out
    if finish:
        query_norms, gallery_norms = _norms(q, metric), _norms(g, metric)
    for start in range(0, len(q), DISTANCE_BLOCK):
        rows = slice(start, start + DISTANCE_BLOCK)
        block = np.matmul(q[rows], g.T, out=dist[rows])
        if finish:
            _finish_rows(block, query_norms[rows], gallery_norms, metric)
    return dist


class DistanceRows:
    """``distance_matrix(query_feats, gallery_feats, metric)`` read on
    demand: ``rows[r0:r1]`` is bit for bit that slice of the whole matrix,
    and ``rows.cells(i, j)`` its cells ``(i[k], j[k])``.  With
    ``zero_diagonal`` every cell ``(i, i)`` reads 0, as after
    ``np.fill_diagonal(matrix, 0.0)``.

    The norms are computed once, when the view is made.  Each read takes
    the products of the ``DISTANCE_BLOCK``-aligned rows enclosing it into
    one buffer that every read reuses, so what a read returns holds until
    the next read (copy it to keep it), and the view holds no more than the
    aligned rows of its widest read.  A read finishes into distances only
    what it returns: the rows of a slice, the cells of ``cells``.  Only
    contiguous row slices are read; the view is not iterable.
    """

    __iter__ = None

    def __init__(self, query_feats: np.ndarray, gallery_feats: np.ndarray,
                 metric: str = "euclidean", zero_diagonal: bool = False) -> None:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
        self.q = np.asarray(query_feats, dtype=np.float64)
        self.g = np.asarray(gallery_feats, dtype=np.float64)
        self.metric = metric
        self.zero_diagonal = zero_diagonal
        self.shape = (len(self.q), len(self.g))
        self.query_norms, self.gallery_norms = _norms(self.q, metric), _norms(self.g, metric)
        self.buffer = np.empty((0, len(self.g)))

    def _products(self, start: int, stop: int) -> tuple[int, np.ndarray]:
        """``(r0, block)``: the products of rows ``r0:r1`` in the buffer,
        the aligned rows enclosing ``start:stop``.  Whole blocks only: a
        shorter last block is a different product, which BLAS may round
        differently."""
        r0 = start - start % DISTANCE_BLOCK
        r1 = min(stop + -stop % DISTANCE_BLOCK, len(self.q))
        if len(self.buffer) < r1 - r0:
            self.buffer = np.empty((r1 - r0, len(self.g)))
        return r0, distance_matrix(self.q[r0:r1], self.g, self.metric,
                                   out=self.buffer[:r1 - r0], finish=False)

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, step = rows.indices(len(self.q))
        if step != 1:
            raise ValueError(f"DistanceRows takes contiguous row slices, got step {step}")
        stop = max(start, stop)
        r0, block = self._products(start, stop)
        dist = block[start - r0:stop - r0]
        _finish_rows(dist, self.query_norms[start:stop], self.gallery_norms, self.metric)
        if self.zero_diagonal:
            own = np.arange(start, min(stop, len(self.g)))
            dist[own - start, own] = 0.0
        return dist

    def cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The distances at ``(rows[k], cols[k])`` as a new float64 array:
        the products of the aligned rows enclosing ``rows``, finished only
        at these cells."""
        if not len(rows):
            return np.empty(0)
        r0, block = self._products(int(rows.min()), int(rows.max()) + 1)
        values = block[rows - r0, cols]
        _finish(values, self.query_norms[rows], self.gallery_norms[cols], self.metric)
        if self.zero_diagonal:
            values[rows == cols] = 0.0
        return values


def eligible_mask(queries: Split, gallery: Split) -> np.ndarray:
    """(n_query, n_gallery) boolean mask: True where the candidate may compete.

    A gallery image is ineligible exactly when it shares both the identity
    and the cloth index of the query.  (Within one split this also removes
    the query itself.)
    """
    return ~((queries.identity[:, None] == gallery.identity[None, :])
             & (queries.cloth[:, None] == gallery.cloth[None, :]))


def masked_orders(block: np.ndarray, allowed: np.ndarray) -> list[np.ndarray]:
    """The full-order kernel.  For each row of ``block``: the indices of
    every entry its row of ``allowed`` permits, by ascending value with ties
    to the lower index and NaN last, as views of one array per block.

    The block takes one unstable ``np.argsort``; the rows where equal values
    meet then sort each run of them (NaNs form one run) by index, and each
    row keeps its allowed entries along that order, which is the order of
    sorting only them.  Top-P selections go through :func:`mine_block`.
    """
    n = block.shape[1]
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


def _cut_entries(block: np.ndarray, allowed: np.ndarray | None,
                 limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The allowed entries at or below each row's cut as flat int64 columns
    ``(row, column)``, rows ascending, each row's entries by ascending value
    with ties to the lower column and NaN last.  A row with more than
    ``limit`` allowed entries cuts at the limit-th smallest of them (one
    ``np.partition``, disallowed entries read as +inf; a NaN cut keeps them
    all); ties at the cut can leave it more than ``limit`` entries.
    ``allowed`` None allows every entry: every row is then over the limit
    or none is, and the block is partitioned as it is."""
    n = block.shape[1]
    keep = allowed
    if allowed is None:
        if n > limit:
            keep = ~(block > np.partition(block, limit - 1, axis=1)[:, [limit - 1]])
    else:
        over = np.flatnonzero(allowed.sum(axis=1) > limit)
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
    kept = np.arange(block.size) if keep is None else np.flatnonzero(keep)
    row, col = np.divmod(kept, n)
    # Each row's columns come ascending and lexsort is stable, so equal
    # values keep the lower column first.
    return row, col[np.lexsort((block.ravel()[kept], row))]


def blocked_orders(dist: np.ndarray | DistanceRows, queries: Split,
                   gallery: Split) -> Iterator[np.ndarray]:
    """Each query's whole eligible gallery by ascending ``dist`` row, ties
    to the lower index (see :func:`masked_orders`), taking the rows and the
    eligibility mask one ``DISTANCE_BLOCK`` of queries at a time."""
    for r0 in range(0, len(queries), DISTANCE_BLOCK):
        rows = slice(r0, r0 + DISTANCE_BLOCK)
        yield from masked_orders(dist[rows], eligible_mask(queries[rows], gallery))


def require_gallery(gallery: Split, query_role: str, gallery_role: str) -> None:
    """Raise ValueError naming ``gallery_role`` when it holds no images."""
    if not len(gallery):
        raise ValueError(f"empty gallery: role {gallery_role} holds no images to rank "
                         f"the {query_role} queries against")


def top_candidates(queries: Split, gallery: Split, num_candidates: int,
                   metric: str = "euclidean") -> list[np.ndarray]:
    """Top-P eligible candidates per query: an array of gallery indices,
    nearest first, ties to the lower index.  These are the candidates of
    :func:`build_eval_pairs`, split per query: a query with fewer than P
    eligible gallery images gets a shorter array (one with none an empty
    one), and zero queries give ``[]``.
    """
    if not len(gallery):
        raise ValueError("empty gallery")
    pairs = _eval_pairs("", queries, "", gallery, num_candidates, metric).pairs
    # The split's last piece, always empty, goes: zero queries give [].
    ends = np.cumsum(np.bincount(pairs["query_index"], minlength=len(queries)))
    return np.split(pairs["cand_index"], ends)[:-1]


def concatenated_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``np.concatenate([np.arange(a, b) for a, b in zip(starts, stops)])``
    as int64, from a fixed number of whole-array steps."""
    sizes = stops - starts
    out = np.repeat(np.asarray(starts - np.cumsum(sizes) + sizes, dtype=np.int64), sizes)
    out += np.arange(len(out))
    return out


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of a 1-D integer array, by one sort.  The
    first ``np.unique`` call of a process imports ``numpy.ma``, 9-13 ms."""
    values = np.sort(values)
    opens = np.ones(len(values), dtype=bool)
    opens[1:] = values[1:] != values[:-1]
    return values[opens]


def first_appearance_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, bounds)``: the rows of each distinct value of the 1-D array
    ``keys`` (a structured one compares field by field) in row order,
    values by first appearance, back to back; value ``g``'s rows are
    ``order[bounds[g]:bounds[g + 1]]``."""
    by_value = np.argsort(keys, kind="stable")
    sorted_keys = keys[by_value]
    opens = np.ones(len(keys), dtype=bool)
    opens[1:] = sorted_keys[1:] != sorted_keys[:-1]
    runs = np.append(np.flatnonzero(opens), len(keys))
    appearance = np.argsort(by_value[runs[:-1]])
    starts, stops = runs[:-1][appearance], runs[1:][appearance]
    return (by_value[concatenated_ranges(starts, stops)],
            np.cumsum(np.append(0, stops - starts)))


def mine_block(block: np.ndarray, rows: slice,
               masks: Callable[[slice], list[np.ndarray | None]],
               limit: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The top-P kernel.  ``(usable, columns)`` for the queries ``rows``,
    whose distance rows are ``block``: ``usable`` flags the queries with an
    entry under every mask of ``masks(rows)``; ``columns`` are the flat
    query index, rank and candidate index of their pairs, query after query,
    each query's entries under each mask in turn (by ascending value, ties
    to the lower index, NaN last; see :func:`_cut_entries`) ranked from 1,
    at most ``limit``.  A mask None allows every entry.  The masks are made
    here, so every temporary of the block goes when it returns."""
    sides = [_cut_entries(block, mask, limit) for mask in masks(rows)]
    # Every query with an allowed entry keeps at least its smallest one.
    usable = np.logical_and.reduce(
        [np.bincount(row, minlength=len(block)) > 0 for row, _ in sides])
    query, cand = (np.concatenate(side) for side in zip(*sides))
    # Each entry's 0-based place in its query's entries under its mask.
    rank = np.concatenate([np.arange(len(row)) - np.searchsorted(row, row) for row, _ in sides])
    # Stable: a query's entries keep the order of the masks.
    order = np.argsort(query, kind="stable")
    order = order[usable[query[order]] & (rank[order] < limit)]
    return usable, [column[order] for column in (query + rows.start, rank + 1, cand)]


def _block_pairs(dist: DistanceRows, query_role: str, queries: Split, cand_role: str,
                 cands: Split, masks: Callable[[slice], list[np.ndarray]],
                 limit: int) -> tuple[PairSet, list[int]]:
    """``(pairs, dropped)``: the pairs of :func:`mine_block` of every
    ``DISTANCE_BLOCK`` of ``queries``, labelled 1 where query and candidate
    share an identity, and the queries left out.  Only the blocks' flat
    columns are held, once ``dist`` is dropped, while the pairs are filled."""
    if limit < 1:
        raise ValueError(f"num_candidates must be >= 1, got {limit}")
    columns: dict[str, list[np.ndarray]] = {"query_index": [], "rank": [], "cand_index": []}
    dropped: list[int] = []
    for r0 in range(0, len(queries), DISTANCE_BLOCK):
        rows = slice(r0, r0 + DISTANCE_BLOCK)
        usable, block_columns = mine_block(dist[rows], rows, masks, limit)
        dropped += (r0 + np.flatnonzero(~usable)).tolist()
        for blocks, column in zip(columns.values(), block_columns):
            blocks.append(column)
    del dist
    pairs = np.empty(sum(map(len, columns["rank"])), dtype=PAIR_DTYPE)
    pairs["query_role"], pairs["cand_role"] = query_role, cand_role
    for name in list(columns):
        # Each field's blocks go as soon as they are copied in; the empty
        # head serves a role with no images, which has no blocks.
        np.concatenate([np.empty(0, np.int64), *columns.pop(name)], out=pairs[name])
    pairs["label"] = (queries.identity[pairs["query_index"]]
                      == cands.identity[pairs["cand_index"]])
    return PairSet(pairs), dropped


def _eval_pairs(query_role: str, queries: Split, gallery_role: str, gallery: Split,
                limit: int, metric: str) -> PairSet:
    """The top-``limit`` eligible candidates of every query as pairs."""
    return _block_pairs(DistanceRows(queries.features, gallery.features, metric), query_role,
                        queries, gallery_role, gallery,
                        lambda rows: [eligible_mask(queries[rows], gallery)], limit)[0]


def build_eval_pairs(bundle: DatasetBundle, query_role: str, gallery_role: str,
                     num_candidates: int = 20, metric: str = "euclidean") -> PairSet:
    """Labelled top-P candidate pairs for a query/gallery role combination,
    ranked from 1 in :func:`top_candidates`' order."""
    require_gallery(bundle.splits[gallery_role], query_role, gallery_role)
    return _eval_pairs(query_role, bundle.splits[query_role], gallery_role,
                       bundle.splits[gallery_role], num_candidates, metric)


def build_train_pairs(bundle: DatasetBundle, num_candidates: int = 20,
                      metric: str = "euclidean") -> tuple[PairSet, list[int]]:
    """Anchor/positive/negative pairs mined from the train split.

    Per anchor: the nearest ``num_candidates`` same-identity different-cloth
    images become positives (label 1), the nearest ``num_candidates``
    different-identity images become negatives (label 0), each side ranked
    from 1.  Anchors without at least one positive and one negative are
    dropped; the second return value lists their indices.
    """
    train = bundle.splits["T"]

    def masks(rows: slice) -> list[np.ndarray]:
        same = train.identity[rows, None] == train.identity
        # The negatives take the buffer of ``same``: one block array fewer.
        return [same & (train.cloth[rows, None] != train.cloth),
                np.logical_not(same, out=same)]

    # One float64 array as both operands (a split of one block then takes
    # numpy's symmetric ``a @ a.T``; no code needs the matrix symmetric),
    # built in the call so that it goes before the pair array is filled.
    return _block_pairs(DistanceRows(*[train.features.astype(np.float64)] * 2, metric),
                        "T", train, "T", train, masks, num_candidates)


def query_runs(pairs: np.ndarray) -> list[np.ndarray]:
    """Row numbers of each query's pairs in rank order (equal ranks in file
    order); queries are grouped by their ``(query_role, query_index)`` with
    :func:`first_appearance_groups` and come in that order."""
    order, bounds = first_appearance_groups(pairs[["query_role", "query_index"]])
    # Each query's rows come in file order, and lexsort is stable.
    query = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    order = order[np.lexsort((pairs["rank"][order], query))]
    return [order[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


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
