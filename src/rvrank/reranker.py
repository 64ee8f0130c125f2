"""Ranking strategies that reorder retrieval results.

Two stages, composable in a fixed order:

* **k-reciprocal re-ranking** rewrites the query/gallery distance matrix
  from k-reciprocal neighbourhood overlap (Jaccard distance on soft
  neighbourhood vectors) blended with the original distances.
* **windowed verification** slides a window of size L over the first Q
  positions of the current ranking: repeatedly emit the highest
  verifier-scored image in the window and refill from the next rank.
  Positions beyond Q are never touched, so the work per query is bounded by
  Q verifier calls regardless of gallery size.

Every query's output is a full permutation of its eligible gallery, tagged
with the stage provenance (``retrieval``, ``kreciprocal``, ``window`` or
``composed`` when both stages ran).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .datastore import DatasetBundle, ImageRecord, check_rows, read_csv, write_csv
from .retrieval import distance_matrix, eligible_mask, masked_order
from .verifier import VerifierModel, prefix_scores

STAGE_NAMES = ("kreciprocal", "window")

RANKED_HEADER = ("query_index", "rank", "gallery_index", "stage_provenance")

#: A scorer takes (query record, candidate record) and returns a similarity.
Scorer = Callable[[ImageRecord, ImageRecord], float]


@dataclass(frozen=True)
class RankingConfig:
    """Knobs shared by retrieval and the ranking stages.

    P bounds the retrieved candidate list, L is the verification window
    size, Q the re-ranked depth; k1/k2/lam parameterise k-reciprocal
    re-ranking.
    """

    P: int = 20
    L: int = 10
    Q: int = 20
    k1: int = 20
    k2: int = 6
    lam: float = 0.3

    def clamped(self) -> "RankingConfig":
        """Return a copy satisfying L <= Q <= P, warning on every adjustment.

        Values that cannot be fixed by clamping (non-positive sizes, a blend
        outside [0, 1]) raise ValueError.
        """
        if self.P < 1 or self.L < 1 or self.Q < 1:
            raise ValueError(f"P, L and Q must be >= 1, got P={self.P} L={self.L} Q={self.Q}")
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError(f"k1 and k2 must be >= 1, got k1={self.k1} k2={self.k2}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        cfg = self
        if cfg.Q > cfg.P:
            warnings.warn(f"Q={cfg.Q} exceeds P={cfg.P}; clamping Q to {cfg.P}")
            cfg = replace(cfg, Q=cfg.P)
        if cfg.L > cfg.Q:
            warnings.warn(f"L={cfg.L} exceeds Q={cfg.Q}; clamping L to {cfg.Q}")
            cfg = replace(cfg, L=cfg.Q)
        return cfg


@dataclass
class RankedList:
    """Full gallery permutation for one query, as an int64 array of gallery
    indices best first, plus how it was produced."""

    query_index: int
    order: np.ndarray
    provenance: str


def window_rerank(order: np.ndarray, scores: np.ndarray, L: int, Q: int,
                  query_index: int = -1) -> RankedList:
    """Reorder the first Q entries of a ranking with an L-wide score window.

    ``scores[i]`` scores ``order[i]`` for each of the first ``min(Q,
    len(order))`` positions; any other length raises ValueError.  The window
    starts as the first L positions.  Each step emits the highest-scoring
    position (ties fall to the better retrieval rank) and pulls the next
    position after L into the window, until ranks 1..Q are re-emitted.
    Entries beyond Q keep their retrieval order.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if Q < L:
        raise ValueError(f"Q must be >= L, got L={L} Q={Q}")
    order = np.asarray(order, dtype=np.int64)
    depth = min(Q, len(order))
    if len(scores) != depth:
        raise ValueError(f"expected {depth} scores, one per entry of the "
                         f"re-ranked depth, got {len(scores)}")
    score = np.asarray(scores, dtype=np.float64).tolist()
    window = list(range(min(L, depth)))
    refill = len(window)
    emitted: list[int] = []
    while window:
        # max() keeps the first of equal scores: the better retrieval rank.
        best = max(window, key=score.__getitem__)
        window.remove(best)
        emitted.append(best)
        if refill < depth:
            window.append(refill)
            refill += 1
    return RankedList(query_index, np.concatenate([order[emitted], order[depth:]]),
                      "window")


# ---------------------------------------------------------------------------
# k-reciprocal re-ranking


#: Most (query entry, gallery entry) overlap terms the Jaccard step holds
#: at once; a block of queries stops before it would pass this.
_JACCARD_BLOCK = 1 << 19

#: Sparse neighbourhood vectors: CSR ``(indptr, columns, values)``, each
#: row's columns ascending.
Vectors = tuple[np.ndarray, np.ndarray, np.ndarray]


def _neighbours(d: np.ndarray, count: int) -> np.ndarray:
    """(n, count) indices: each image's ``count`` nearest images, itself at
    distance 0, in ``argsort(kind="stable")`` order."""
    n = d.shape[0]
    everything = np.ones(n, dtype=bool)
    out = np.empty((n, count), dtype=np.intp)
    for i in range(n):
        row = d[i].copy()
        row[i] = 0.0
        out[i] = masked_order(row, everything, count)
    return out


def _reciprocal(heads: np.ndarray) -> np.ndarray:
    """Mask over ``heads``: True where ``heads[i, p]`` has i among its own
    heads, so row i's True entries are R(i, k) for k + 1 heads per row."""
    n, width = heads.shape
    owner = np.repeat(np.arange(n), width)
    return np.isin(heads.ravel() * n + owner,
                   owner * n + heads.ravel()).reshape(n, width)


def _csr(keys: np.ndarray, values: np.ndarray, n: int) -> Vectors:
    """CSR rows from sorted unique ``row * n + column`` keys."""
    counts = np.bincount(keys // n, minlength=n)
    return np.concatenate([[0], np.cumsum(counts)]), keys % n, values


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, positions)``: how many entries each of the CSR rows
    ``rows`` stores, and where they are, row after row."""
    lengths = indptr[rows + 1] - indptr[rows]
    skip = np.repeat(indptr[rows] - (np.cumsum(lengths) - lengths), lengths)
    return lengths, np.arange(len(skip)) + skip


def _neighbourhood_vectors(d: np.ndarray, initial: np.ndarray, k1: int) -> Vectors:
    """Each image's k1-reciprocal set R(i, k1), grown by every half-k1 set
    R(j, k1/2) of a member j that shares more than 2/3 of its entries with
    R(i, k1), weighted ``exp(-d)`` and normalised to sum 1."""
    n = d.shape[0]
    heads, half_heads = initial[:, :k1 + 1], initial[:, :int(np.around(k1 / 2)) + 1]
    half = _reciprocal(half_heads)
    # R(i, k1) as keys i * n + j; each of its members j's half set as keys
    # i * n + c, one row per (pair, c).
    owner, at = np.nonzero(_reciprocal(heads))
    j = heads[owner, at]
    recip = owner * n + j
    pair, slot = np.nonzero(half[j])
    member = owner[pair] * n + half_heads[j[pair], slot]
    overlap = np.bincount(pair[np.isin(member, recip)], minlength=len(recip))
    expands = overlap > (2.0 / 3.0) * half.sum(axis=1)[j]
    keys = np.unique(np.concatenate([recip, member[expands[pair]]]))
    rows, cols = keys // n, keys % n
    weights = np.exp(-np.where(rows == cols, 0.0, d[rows, cols]))
    # Each row's sum adds its weights in ascending column order.
    return _csr(keys, weights / np.bincount(rows, weights, minlength=n)[rows], n)


def _expand(vectors: Vectors, heads: np.ndarray) -> Vectors:
    """Local query expansion: each row becomes the mean of its heads' rows,
    summed in head order and then divided, as the dense mean does."""
    indptr, cols, values = vectors
    n, k2 = heads.shape
    parts = [_row_entries(indptr, heads[:, p]) for p in range(k2)]
    keys, slots = np.unique(np.concatenate(
        [np.repeat(np.arange(n) * n, lengths) + cols[at] for lengths, at in parts]),
        return_inverse=True)
    summed = np.zeros(len(keys))
    for (_, at), part in zip(parts, np.split(slots, np.cumsum(
            [len(at) for _, at in parts])[:-1])):
        summed[part] += values[at]
    return _csr(keys, summed / k2, n)


def _jaccard(vectors: Vectors, num_queries: int) -> np.ndarray:
    """``1 - s / (2 - s)`` per (query row, gallery row), s the sum of
    ``min`` over their shared columns, through an inverted index over the
    gallery rows' columns.  Each sum adds its terms in ascending column
    order, starting from 0."""
    indptr, cols, values = vectors
    n = len(indptr) - 1
    num_gallery = n - num_queries
    # Gallery entries by column, each column's rows ascending.
    first = indptr[num_queries]
    by_col = first + np.argsort(cols[first:], kind="stable")
    col_ptr = np.concatenate([[0], np.cumsum(np.bincount(cols[first:], minlength=n))])
    col_rows = np.repeat(np.arange(n), np.diff(indptr))[by_col] - num_queries
    col_values = values[by_col]

    query_base = np.repeat(np.arange(num_queries) * num_gallery,
                           np.diff(indptr[:num_queries + 1]))
    # terms[q]: how many overlap terms the queries before q add up.
    terms = np.cumsum(np.r_[0, np.diff(col_ptr)[cols[:first]]])[indptr[:num_queries + 1]]
    out = np.empty((num_queries, num_gallery))
    q0 = 0
    while q0 < num_queries:
        q1 = max(q0 + 1, int(np.searchsorted(terms, terms[q0] + _JACCARD_BLOCK,
                                             side="right")) - 1)
        entries = slice(indptr[q0], indptr[q1])
        lengths, at = _row_entries(col_ptr, cols[entries])
        # bincount adds in array order, and each query's entries come in
        # ascending column order.
        overlap = np.bincount(
            np.repeat(query_base[entries] - q0 * num_gallery, lengths) + col_rows[at],
            weights=np.minimum(np.repeat(values[entries], lengths), col_values[at]),
            minlength=(q1 - q0) * num_gallery).reshape(q1 - q0, -1)
        out[q0:q1] = 1.0 - overlap / (2.0 - overlap)
        q0 = q1
    return out


def kreciprocal_rerank(dist: np.ndarray, num_queries: int, k1: int = 20,
                       k2: int = 6, lam: float = 0.3) -> np.ndarray:
    """Rewrite query/gallery distances from k-reciprocal neighbourhood overlap.

    ``dist`` is the square distance matrix over queries followed by gallery
    images (zero diagonal).  Neighbourhood vectors get Gaussian weights
    ``exp(-d)`` normalised to sum 1, are expanded by half-k1 reciprocal sets
    with a strict 2/3 overlap rule, then locally query-expanded by averaging
    each image's top-k2 vectors (a no-op at k2=1).  The Jaccard distance
    ``1 - sum(min)/(2 - sum(min))`` between the query vector and each
    gallery vector is blended with the original distance:
    ``lam * original + (1 - lam) * jaccard``, so lam=1 returns the original
    query/gallery block unchanged.

    Each image keeps only its top ``max(k1 + 1, k2)`` neighbours, the
    vectors are sparse rows and only query rows get a Jaccard row, so the
    memory beyond ``dist`` and the returned block is O(n * k1 * k2).
    """
    d = np.asarray(dist, dtype=np.float64)
    n = d.shape[0]
    if d.ndim != 2 or d.shape[1] != n:
        raise ValueError(f"dist must be square, got shape {d.shape}")
    if not 0 < num_queries < n:
        raise ValueError(f"num_queries must lie in (0, {n}), got {num_queries}")
    if np.abs(np.diagonal(d)).max() > 1e-6:
        raise ValueError("dist diagonal must be zero (self-distances)")
    if k1 > n - 1:
        warnings.warn(f"k1={k1} exceeds the {n - 1} available neighbours; clamping")
        k1 = n - 1
    if k2 > n:
        warnings.warn(f"k2={k2} exceeds the {n} available images; clamping")
        k2 = n

    initial = _neighbours(d, max(k1 + 1, k2))
    vectors = _neighbourhood_vectors(d, initial, k1)
    if k2 > 1:
        vectors = _expand(vectors, initial[:, :k2])
    return lam * d[:num_queries, num_queries:] + (1.0 - lam) * _jaccard(vectors, num_queries)


# ---------------------------------------------------------------------------
# pipeline


def rerank_pipeline(bundle: DatasetBundle, scorer: VerifierModel | Scorer | None,
                    config: RankingConfig,
                    stages: Sequence[str] = ("kreciprocal", "window"),
                    candidates: dict[int, np.ndarray] | None = None,
                    metric: str = "euclidean", query_role: str = "Q",
                    gallery_role: str = "G") -> list[RankedList]:
    """Retrieve, then apply the requested ranking stages per query.

    ``stages`` is any subset of ``("kreciprocal", "window")``; order is
    fixed (k-reciprocal first).  ``scorer`` may be a VerifierModel, a plain
    ``(query, candidate) -> float`` callable, or None when the window stage
    is not requested.  When ``candidates`` (a previously retrieved top-P
    set, ``{query_index: gallery indices}``) is supplied, it is checked
    against the freshly computed retrieval prefix and a ValueError names the
    first query that disagrees, or that ``query_role`` does not have.

    The window stage scores exactly ``min(Q, eligible)`` candidates per
    query, through :func:`~rvrank.verifier.prefix_scores`.
    """
    for stage in stages:
        if stage not in STAGE_NAMES:
            raise ValueError(f"unknown stage {stage!r}; expected subset of {STAGE_NAMES}")
    if "window" in stages and scorer is None:
        raise ValueError("the window stage requires a scorer")
    cfg = config.clamped()
    queries = bundle.splits[query_role]
    gallery = bundle.splits[gallery_role]
    unknown = sorted(set(candidates or ()) - set(range(len(queries))))
    if unknown:
        raise ValueError(f"candidate list for query {unknown[0]}, but the bundle has "
                         f"{len(queries)} {query_role} queries")
    if not len(queries):
        return []
    allowed = eligible_mask(queries, gallery)
    # k-reciprocal re-ranking replaces the retrieval orders, so they are
    # computed only when the candidate check or a pipeline without it reads them.
    if candidates is not None or "kreciprocal" not in stages:
        base_dist = distance_matrix(queries.features, gallery.features, metric)
        orders = [masked_order(row, ok) for row, ok in zip(base_dist, allowed)]

    if candidates is not None:
        for qi, order in enumerate(orders):
            got = candidates.get(qi)
            if got is None:
                raise ValueError(f"no candidate list for query {qi}")
            if not np.array_equal(got, order[:len(got)]):
                raise ValueError(
                    f"candidate list for query {qi} does not match the "
                    f"current retrieval ranking; rebuild the candidates"
                )

    if "kreciprocal" in stages:
        # One float64 array as both operands, as in build_train_pairs.
        union = np.vstack([queries.features, gallery.features]).astype(np.float64)
        union_dist = distance_matrix(union, union, metric)
        np.fill_diagonal(union_dist, 0.0)
        new_dist = kreciprocal_rerank(union_dist, len(queries),
                                      k1=cfg.k1, k2=cfg.k2, lam=cfg.lam)
        orders = [masked_order(row, ok) for row, ok in zip(new_dist, allowed)]

    if "window" in stages:
        scores = prefix_scores(scorer, bundle.dims, queries, gallery, orders, cfg.Q)
        orders = [window_rerank(order, s, cfg.L, cfg.Q).order
                  for order, s in zip(orders, scores)]

    ran = [stage for stage in STAGE_NAMES if stage in stages]
    provenance = "composed" if len(ran) == 2 else (ran[0] if ran else "retrieval")
    return [RankedList(qi, order, provenance) for qi, order in enumerate(orders)]


# ---------------------------------------------------------------------------
# CSV serialisation


def write_ranked_csv(path: str | Path, ranked: list[RankedList],
                     config_comment: str | None = None) -> None:
    lengths = np.array([len(rl.order) for rl in ranked], dtype=np.int64)
    rows = int(lengths.sum())
    query = np.repeat(np.array([rl.query_index for rl in ranked], dtype=np.int64), lengths)
    names = np.array([rl.provenance for rl in ranked], dtype=str)
    # A pipeline tags every query with one provenance: a stride-0 column
    # holds it once, not once per row (4 bytes per character per row).
    if len(set(names.tolist())) == 1:
        provenance = np.broadcast_to(names[:1], (rows,))
    else:
        provenance = np.repeat(names, lengths)
    rank = np.arange(1, rows + 1)
    rank -= np.repeat(np.cumsum(lengths) - lengths, lengths)
    gallery = np.concatenate([np.empty(0, np.int64)] + [rl.order for rl in ranked])
    write_csv(path, RANKED_HEADER, (query, rank, gallery, provenance), config_comment)


def read_ranked_csv(path: str | Path) -> list[RankedList]:
    """Read a ranked CSV back into one :class:`RankedList` per query, in
    query order.  Each query's ranks must be dense from 1 and its
    provenance one value; a fault raises ValueError naming the file and
    line."""
    path = Path(path)
    (q, r, g, prov), lines = read_csv(path, RANKED_HEADER, (int, int, int, str))
    if not len(q):
        return []
    # Rows as write_ranked_csv writes them need no sort.
    if not ((q[1:] > q[:-1]) | ((q[1:] == q[:-1]) & (r[1:] > r[:-1]))).all():
        by_rank = np.lexsort((r, q))
        q, r, g, prov, lines = (col[by_rank] for col in (q, r, g, prov, lines))
    starts = np.flatnonzero(np.r_[True, q[1:] != q[:-1]])
    # Row by row: the position of its query's first row.
    first = np.repeat(starts, np.diff(np.r_[starts, len(q)]))
    rules = [(r != np.arange(1, len(q) + 1) - first,
              lambda i: f"{path}: line {lines[i]}: query {q[i]}: ranks are not dense from 1")]
    # A pipeline tags every query with one provenance: a uniform column
    # needs no comparison row by row.
    if not (prov == prov[0]).all():
        rules.append((prov != prov[first], lambda i: (
            f"{path}: line {lines[i]}: query {q[i]}: mixed stage_provenance values "
            f"{sorted(set(prov[q == q[i]].tolist()))}")))
    check_rows(rules)
    return [RankedList(qi, order, name) for qi, order, name in zip(
        q[starts].tolist(), np.split(g, starts[1:]), prov[starts].tolist())]
