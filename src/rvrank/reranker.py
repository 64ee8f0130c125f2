"""Ranking strategies that reorder retrieval results.

Two stages, composable in a fixed order:

* **k-reciprocal re-ranking** rewrites the query/gallery distance matrix
  from k-reciprocal neighbourhood overlap (Jaccard distance on soft
  neighbourhood vectors) blended with the original distances.
* **windowed verification** slides a window of size L over the first Q
  positions of the current ranking: repeatedly emit the highest
  verifier-scored image in the window and refill from the next rank.
  Positions beyond Q are never touched, so the work per query is bounded by
  Q scored pairs regardless of gallery size.

Every query's output is a full permutation of its eligible gallery, and a
list of rankings holds query ``i``'s at position ``i``.  A ranked file
(magic ``RVK1``) holds every query's order as int64, behind the query and
gallery roles it ranked; its ``.config.json`` sidecar records the stages
that ran.  :func:`sweep_L` scores the window stage at several widths.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .datastore import BinaryHeader, DatasetBundle, check_rows
from .evaluation import evaluate
from .retrieval import DISTANCE_BLOCK, DistanceRows, blocked_orders, masked_orders
from .verifier import prefix_scores

STAGE_NAMES = ("kreciprocal", "window")

RANKED_MAGIC = b"RVK1"


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

    def __post_init__(self) -> None:
        """Values that cannot be fixed by clamping (non-positive sizes, a
        blend outside [0, 1]) raise ValueError."""
        if self.P < 1 or self.L < 1 or self.Q < 1:
            raise ValueError(f"P, L and Q must be >= 1, got P={self.P} L={self.L} Q={self.Q}")
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError(f"k1 and k2 must be >= 1, got k1={self.k1} k2={self.k2}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")

    def clamped(self) -> "RankingConfig":
        """Return a copy satisfying L <= Q <= P, warning on every adjustment."""
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
    indices best first.  A list of them ranks query ``i`` at position ``i``."""

    order: np.ndarray


def window_rerank(order: np.ndarray, scores: np.ndarray, L: int, Q: int) -> np.ndarray:
    """Reorder the first Q entries of a ranking with an L-wide score window,
    returning the re-ranked order as an int64 array.

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
    return np.concatenate([order[emitted], order[depth:]])


# ---------------------------------------------------------------------------
# k-reciprocal re-ranking


#: Most (query entry, gallery entry) overlap terms, and most (query, gallery)
#: cells, the Jaccard step holds at once; a block of queries stops before
#: it would pass either.
_JACCARD_BLOCK = 1 << 15

#: Rows the set steps (:func:`_neighbourhood_vectors`, :func:`_expand`) take
#: at once; :func:`_neighbourhood_vectors` reads that many distance rows.
_SET_ROWS = 128

#: Sparse neighbourhood vectors: CSR ``(indptr, columns, values)``, each
#: row's columns ascending.
Vectors = tuple[np.ndarray, np.ndarray, np.ndarray]


def _neighbours(dist: np.ndarray | DistanceRows, num_queries: int, count: int,
                lam: float) -> tuple[np.ndarray, np.ndarray]:
    """``(initial, blend)``: (n, count) indices, each image's ``count``
    nearest images with itself at distance 0, and the (queries, gallery)
    array ``lam * dist[q, num_queries:]`` that the Jaccard step adds to.
    Reads ``dist`` one ``DISTANCE_BLOCK`` of rows at a time and checks each
    block's diagonal."""
    n = dist.shape[0]
    initial = np.empty((n, count), dtype=np.intp)
    blend = np.empty((num_queries, n - num_queries))
    for r0 in range(0, n, DISTANCE_BLOCK):
        d = np.array(dist[r0:r0 + DISTANCE_BLOCK], dtype=np.float64)
        own = np.arange(len(d))
        if (np.abs(d[own, r0 + own]) > 1e-6).any():
            raise ValueError("dist diagonal must be zero (self-distances)")
        d[own, r0 + own] = 0.0
        initial[r0:r0 + len(d)] = masked_orders(d, np.ones(d.shape, dtype=bool), count)
        if r0 < num_queries:
            np.multiply(lam, d[:num_queries - r0, num_queries:],
                        out=blend[r0:r0 + DISTANCE_BLOCK])
    return initial, blend


def _isin(keys: np.ndarray, among: np.ndarray) -> np.ndarray:
    """``np.isin(keys, among)`` through one sort of ``among`` and a binary search."""
    among = np.sort(among)
    return among.take(np.searchsorted(among, keys), mode="clip") == keys


def _reciprocal(heads: np.ndarray) -> np.ndarray:
    """Mask over ``heads``: True where ``heads[i, p]`` has i among its own
    heads, so row i's True entries are R(i, k) for k + 1 heads per row."""
    n, width = heads.shape
    owner = np.repeat(np.arange(n), width)
    return _isin(heads.ravel() * n + owner, owner * n + heads.ravel()).reshape(n, width)


def _csr(n: int, block: Callable) -> Vectors:
    """CSR rows from ``block(r0, r1)``: rows r0..r1-1 as sorted unique
    ``row * n + column`` keys and their values, ``_SET_ROWS`` rows a call."""
    keys, values = map(np.concatenate, zip(*(
        block(r0, min(r0 + _SET_ROWS, n)) for r0 in range(0, n, _SET_ROWS))))
    counts = np.bincount(keys // n, minlength=n)
    return np.concatenate([[0], np.cumsum(counts)]), keys % n, values


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, positions)``: how many entries each of the CSR rows
    ``rows`` stores, and where they are, row after row."""
    lengths = indptr[rows + 1] - indptr[rows]
    skip = np.repeat(indptr[rows] - (np.cumsum(lengths) - lengths), lengths)
    return lengths, np.arange(len(skip)) + skip


def _neighbourhood_vectors(dist: np.ndarray | DistanceRows, initial: np.ndarray,
                           k1: int) -> Vectors:
    """Each image's k1-reciprocal set R(i, k1), grown by every half-k1 set
    R(j, k1/2) of a member j that shares more than 2/3 of its entries with
    R(i, k1), weighted ``exp(-dist)`` and normalised to sum 1; each block of
    rows reads its weights from ``dist[r0:r1]``."""
    n = dist.shape[0]
    heads, half_heads = initial[:, :k1 + 1], initial[:, :int(np.around(k1 / 2)) + 1]
    half = _reciprocal(half_heads)
    owners, at = np.nonzero(_reciprocal(heads))
    members = heads[owners, at]

    def block(r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
        # R(i, k1) as keys i * n + j; each of its members j's half set as
        # keys i * n + c, one row per (pair, c).
        lo, hi = np.searchsorted(owners, [r0, r1])
        owner, j = owners[lo:hi], members[lo:hi]
        recip = owner * n + j
        pair, slot = np.nonzero(half[j])
        member = owner[pair] * n + half_heads[j[pair], slot]
        overlap = np.bincount(pair[_isin(member, recip)], minlength=len(recip))
        expands = overlap > (2.0 / 3.0) * half.sum(axis=1)[j]
        keys = np.unique(np.concatenate([recip, member[expands[pair]]]))
        rows, cols = keys // n, keys % n
        d = np.asarray(dist[r0:r1], dtype=np.float64)
        weights = np.exp(-np.where(rows == cols, 0.0, d[rows - r0, cols]))
        # Each row's sum adds its weights in ascending column order.
        return keys, weights / np.bincount(rows - r0, weights)[rows - r0]
    return _csr(n, block)


def _expand(vectors: Vectors, heads: np.ndarray) -> Vectors:
    """Local query expansion: each row becomes the mean of its heads' rows,
    summed in head order and then divided, as the dense mean does."""
    indptr, cols, values = vectors
    n, k2 = heads.shape

    def block(r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
        parts = [_row_entries(indptr, heads[r0:r1, p]) for p in range(k2)]
        keys, slots = np.unique(np.concatenate(
            [np.repeat(np.arange(r0, r1) * n, lengths) + cols[at] for lengths, at in parts]),
            return_inverse=True)
        summed = np.zeros(len(keys))
        for (_, at), part in zip(parts, np.split(slots, np.cumsum(
                [len(at) for _, at in parts])[:-1])):
            summed[part] += values[at]
        return keys, summed / k2
    return _csr(n, block)


def _jaccard(vectors: Vectors, num_queries: int, out: np.ndarray, lam: float) -> np.ndarray:
    """Add ``(1 - lam) * (1 - s / (2 - s))`` per (query row, gallery row)
    into ``out`` and return it, s the sum of ``min`` over their shared
    columns, through an inverted index over the gallery rows' columns.  Each
    sum adds its terms in ascending column order, starting from 0."""
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
    q0 = 0
    while q0 < num_queries:
        q1 = max(q0 + 1, min(q0 + _JACCARD_BLOCK // num_gallery, int(np.searchsorted(
            terms, terms[q0] + _JACCARD_BLOCK, side="right")) - 1))
        entries = slice(indptr[q0], indptr[q1])
        lengths, at = _row_entries(col_ptr, cols[entries])
        # bincount adds in array order, and each query's entries come in
        # ascending column order.
        overlap = np.bincount(
            np.repeat(query_base[entries] - q0 * num_gallery, lengths) + col_rows[at],
            weights=np.minimum(np.repeat(values[entries], lengths), col_values[at]),
            minlength=(q1 - q0) * num_gallery).reshape(q1 - q0, -1)
        jaccard = 1.0 - overlap / (2.0 - overlap)
        out[q0:q1] += (1.0 - lam) * jaccard
        q0 = q1
    return out


def kreciprocal_rerank(dist: np.ndarray | DistanceRows, num_queries: int, k1: int = 20,
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

    ``dist`` is read only through ``dist.shape`` and row slices
    ``dist[r0:r1]``, so it may be any object that computes its rows on
    demand, such as :class:`~rvrank.retrieval.DistanceRows`.  The steps run
    by blocks of rows or queries; each image keeps only its top
    ``max(k1 + 1, k2)`` neighbours, the vectors are sparse rows and only
    query rows get a Jaccard row.  Beyond ``dist`` and the returned block
    the memory is therefore O(block * n + n * k1 * k2).  On a 1,800-image
    union (450 queries) the call peaks at 0.34-0.38 x the bytes of the
    n x n float64 matrix, output included (tracemalloc); given a
    ``DistanceRows`` view, nothing of that size is ever built.
    """
    shape = dist.shape
    n = shape[0]
    if len(shape) != 2 or shape[1] != n:
        raise ValueError(f"dist must be square, got shape {shape}")
    if not 0 < num_queries < n:
        raise ValueError(f"num_queries must lie in (0, {n}), got {num_queries}")
    # The clamps warn only after the first pass: its diagonal check is the
    # graver fault and is reported first.
    initial, out = _neighbours(dist, num_queries, max(min(k1, n - 1) + 1, min(k2, n)), lam)
    if k1 > n - 1:
        warnings.warn(f"k1={k1} exceeds the {n - 1} available neighbours; clamping")
        k1 = n - 1
    if k2 > n:
        warnings.warn(f"k2={k2} exceeds the {n} available images; clamping")
        k2 = n

    vectors = _neighbourhood_vectors(dist, initial, k1)
    if k2 > 1:
        vectors = _expand(vectors, initial[:, :k2])
    return _jaccard(vectors, num_queries, out, lam)


# ---------------------------------------------------------------------------
# pipeline


def _check_candidates(candidates: dict[int, np.ndarray], qi: int, order: np.ndarray) -> None:
    """Raise ValueError unless query ``qi``'s candidate list is the prefix
    of its retrieval ``order``; a query without eligible gallery images has
    no candidate rows."""
    if qi not in candidates:
        if len(order):
            raise ValueError(f"no candidate list for query {qi}")
    elif not np.array_equal(candidates[qi], order[:len(candidates[qi])]):
        raise ValueError(
            f"candidate list for query {qi} does not match the "
            f"current retrieval ranking; rebuild the candidates"
        )


def rerank_pipeline(bundle: DatasetBundle, scorer: Callable[..., np.ndarray] | None,
                    config: RankingConfig,
                    stages: Sequence[str] = ("kreciprocal", "window"),
                    candidates: dict[int, np.ndarray] | None = None,
                    metric: str = "euclidean", query_role: str = "Q",
                    gallery_role: str = "G") -> list[RankedList]:
    """Retrieve, then apply the requested ranking stages per query.

    ``stages`` is any subset of ``("kreciprocal", "window")``; order is
    fixed (k-reciprocal first).  ``scorer`` follows the protocol of
    :func:`~rvrank.verifier.prefix_scores` (a VerifierModel does), and may
    be None when the window stage is not requested.  When ``candidates``
    (a previously retrieved top-P set, ``{query_index: gallery indices}``)
    is supplied, it is checked against the freshly computed retrieval
    prefix and a ValueError names the first query that disagrees, that
    ``query_role`` does not have, or that has eligible gallery images but
    no list.

    The window stage passes exactly ``min(Q, eligible)`` pairs per query to
    the scorer, through :func:`~rvrank.verifier.prefix_scores`.
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
    # k-reciprocal re-ranking replaces the retrieval orders, so they are
    # computed only when the candidate check or a pipeline without it reads
    # them, kept only in the latter, and cut to the longest candidate list
    # (at least 1) in the former.
    orders = []
    if candidates is not None or "kreciprocal" not in stages:
        limit = (max([len(c) for c in candidates.values()] + [1])
                 if "kreciprocal" in stages else None)
        retrieved = blocked_orders(DistanceRows(queries.features, gallery.features, metric),
                                   queries, gallery, limit)
        for qi, order in enumerate(retrieved):
            if candidates is not None:
                _check_candidates(candidates, qi, order)
            if "kreciprocal" not in stages:
                orders.append(order)

    if "kreciprocal" in stages:
        # Each image's neighbours and weights are read from its own row, so
        # the union matrix need not be exactly symmetric, and it is not:
        # distance_matrix's row blocks can round a cell and its mirror apart.
        union = np.vstack([queries.features, gallery.features]).astype(np.float64)
        orders = list(blocked_orders(
            kreciprocal_rerank(DistanceRows(union, union, metric, zero_diagonal=True),
                               len(queries), k1=cfg.k1, k2=cfg.k2, lam=cfg.lam),
            queries, gallery))

    if "window" in stages:
        scores = prefix_scores(scorer, queries, gallery, orders, cfg.Q)
        for qi, s in enumerate(scores):
            orders[qi] = window_rerank(orders[qi], s, cfg.L, cfg.Q)

    return [RankedList(order) for order in orders]


def sweep_L(bundle: DatasetBundle, scorer, config: RankingConfig,
            L_values: Sequence[int], include_kreciprocal: bool = False,
            metric: str = "euclidean", query_role: str = "Q", gallery_role: str = "G"
            ) -> list[tuple[int, float, float]]:
    """Rank-1/Rank-10 as a function of the window size L, at fixed Q.

    ``scorer`` follows the protocol of :func:`~rvrank.verifier.prefix_scores`.
    Its scores are computed once per query (the scored prefix depends only
    on Q) and reused across all L values; each width's rankings are scored
    by :func:`~rvrank.evaluation.evaluate`.  Returns (L, rank1, rank10)
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
        ranked = [RankedList(window_rerank(rl.order, s, run_cfg.L, run_cfg.Q))
                  for rl, s in zip(base, scores)]
        report = evaluate(bundle, ranked, k_max=10, query_role=query_role,
                          gallery_role=gallery_role)
        rows.append((int(L), report.cmc[0], report.cmc[9]))
    return rows


# ---------------------------------------------------------------------------
# the ranked file


def write_ranked_csv(path: str | Path, ranked: list[RankedList], query_role: str = "Q",
                     gallery_role: str = "G") -> None:
    """Write an RVK1 ranked file: ``ranked[i]`` must rank query ``i``.

    Layout (little-endian): magic, the u32 query count, the query and then
    the gallery role token, each a u8 length and its ASCII bytes, one int64
    order length per query, then every order back to back as int64.  The
    orders are written as they are, so nothing of the file's size is built.
    """
    orders = [np.ascontiguousarray(rl.order, dtype="<i8") for rl in ranked]
    # Packed before the file opens: a value that does not fit leaves no file.
    header = RANKED_MAGIC + struct.pack("<I", len(orders)) + b"".join(
        struct.pack("<B", len(token)) + token
        for token in (query_role.encode("ascii"), gallery_role.encode("ascii")))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.array([len(order) for order in orders], dtype="<i8"))
        fh.writelines(orders)


def read_ranked_csv(path: str | Path,
                    roles: tuple[str, str] | None = None) -> list[RankedList]:
    """Read an RVK1 ranked file back into one :class:`RankedList` per query,
    in query order; each order is a read-only view of the file's bytes.

    With ``roles``, the ``(query, gallery)`` roles ``eval`` was given, the
    file's roles must be those.  A wrong magic, a truncated header, a
    negative length, lengths the payload does not hold exactly or other
    roles raise ValueError naming the file, and the query where there is one.
    """
    with BinaryHeader(path, RANKED_MAGIC) as header:
        (count,) = header.take("<I")
        found = []
        for _ in range(2):
            (size,) = header.take("<B")
            found.append(header.take(f"<{size}s")[0].decode("ascii", "replace"))
        if roles is not None and tuple(found) != tuple(roles):
            raise ValueError(
                f"{header.path}: ranked with --query-role {found[0]} --gallery-role "
                f"{found[1]}, but eval got --query-role {roles[0]} --gallery-role {roles[1]}")
        lengths = np.array(header.take(f"<{count}q"), dtype=np.int64)
        held = (header.size - header.offset) // 8
        check_rows([(lengths < 0, lambda q: f"{header.path}: query {q}: negative order "
                                            f"length {lengths[q]}")])
        # Each length is capped at one past the payload, so the sum cannot wrap.
        ends = np.cumsum(np.minimum(lengths, held + 1))
        check_rows([(ends > held, lambda q: (
            f"{header.path}: query {q}: its order of {lengths[q]} entries ends past the "
            f"{held} int64 entries the file holds after the lengths"))])
        total = int(ends[-1]) if count else 0
        orders = np.frombuffer(header.payload(8 * total, f"{count} orders of {total} int64 "
                                                         "entries in all"), dtype="<i8")
    return [RankedList(order) for order in np.split(orders, ends)[:-1]]
