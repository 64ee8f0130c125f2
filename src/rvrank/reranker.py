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

import csv
import re
import warnings
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .datastore import DatasetBundle, ImageRecord, read_csv, write_csv
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


def _reciprocal_sets(initial: np.ndarray, k: int) -> list[np.ndarray]:
    """R(i, k): the top-k neighbours of i (self included) that also have i in
    their own top-k."""
    heads = initial[:, :k + 1]
    out = []
    for i in range(initial.shape[0]):
        fwd = heads[i]
        back = heads[fwd]
        out.append(fwd[(back == i).any(axis=1)])
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
    """
    d = np.asarray(dist, dtype=np.float64)
    n = d.shape[0]
    if d.ndim != 2 or d.shape[1] != n:
        raise ValueError(f"dist must be square, got shape {d.shape}")
    if not 0 < num_queries < n:
        raise ValueError(f"num_queries must lie in (0, {n}), got {num_queries}")
    if np.abs(np.diagonal(d)).max() > 1e-6:
        raise ValueError("dist diagonal must be zero (self-distances)")
    d = d.copy()
    np.fill_diagonal(d, 0.0)
    if k1 > n - 1:
        warnings.warn(f"k1={k1} exceeds the {n - 1} available neighbours; clamping")
        k1 = n - 1
    if k2 > n:
        warnings.warn(f"k2={k2} exceeds the {n} available images; clamping")
        k2 = n

    initial = np.argsort(d, kind="stable", axis=1)
    recip = _reciprocal_sets(initial, k1)
    half = _reciprocal_sets(initial, int(np.around(k1 / 2)))

    vectors = np.zeros((n, n))
    for i in range(n):
        members = set(recip[i].tolist())
        for j in recip[i]:
            candidate = half[j]
            overlap = np.intersect1d(candidate, recip[i], assume_unique=False).size
            if overlap > (2.0 / 3.0) * candidate.size:
                members.update(candidate.tolist())
        idx = np.fromiter(members, dtype=np.intp, count=len(members))
        weights = np.exp(-d[i, idx])
        vectors[i, idx] = weights / weights.sum()

    if k2 > 1:
        vectors = vectors[initial[:, :k2]].mean(axis=1)

    nonzero_rows: list[np.ndarray] = [np.flatnonzero(vectors[:, j]) for j in range(n)]
    jaccard = np.zeros((num_queries, n - num_queries))
    for qi in range(num_queries):
        overlap = np.zeros(n)
        for j in np.flatnonzero(vectors[qi]):
            rows = nonzero_rows[j]
            overlap[rows] += np.minimum(vectors[qi, j], vectors[rows, j])
        jaccard[qi] = (1.0 - overlap / (2.0 - overlap))[num_queries:]

    return lam * d[:num_queries, num_queries:] + (1.0 - lam) * jaccard


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
    first query that disagrees.

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
    if not len(queries):
        return []
    base_dist = distance_matrix(queries.features, gallery.features, metric)
    allowed = eligible_mask(queries, gallery)
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
    # One joined chunk per query: a generator of single rows writes slower.
    write_csv(path, RANKED_HEADER,
              ("".join(f"{rl.query_index},{rank},{gi},{rl.provenance}\n"
                       for rank, gi in enumerate(rl.order.tolist(), start=1))
               for rl in ranked),
              config_comment)


#: At most 18 digits per integer field on the fast path: 10**18 - 1 fits
#: int64, so no field can overflow.
_FAST_DIGITS = 18


def _digit_column(body: np.ndarray, begin: np.ndarray,
                  end: np.ndarray) -> np.ndarray | None:
    """The integer each ``body[begin:end]`` spells, or None unless every
    field is 1 to 18 plain ASCII digits.  Built one digit place at a time,
    units first, so temporaries stay O(rows)."""
    width = end - begin
    if width.min() < 1 or width.max() > _FAST_DIGITS:
        return None
    value = np.zeros(len(end), dtype=np.int64)
    for place in range(int(width.max())):
        # A field narrower than this place reads a byte before it: count 0.
        byte = np.take(body, end - 1 - place, mode="clip")
        digit = np.where(width > place, byte - np.uint8(ord("0")), np.uint8(0))
        if (digit > 9).any():
            return None
        value += digit * np.int64(10 ** place)
    return value


def _parse_ranked_bytes(data: bytes) -> tuple | None:
    """Columns ``(query, rank, gallery, codes, names)`` of a well-formed
    ranked CSV, parsed from its bytes, or None to leave the file to
    :func:`~rvrank.datastore.read_csv`.

    ``csv.reader`` reads the head (comment lines up to and including the
    header), so a quoted ``# config:`` line parses as it does there.  The
    body must be rows of three integer fields of plain digits and one
    ``[A-Za-z0-9_]+`` provenance token that is the same on every row, with
    no blank line and a newline at the end of the file.  The whole file
    must be ASCII with no CR or NUL byte.
    """
    if not data.isascii() or b"\r" in data or b"\0" in data or not data.endswith(b"\n"):
        return None
    start = 0

    def lines():
        nonlocal start
        while start < len(data):
            end = data.index(b"\n", start) + 1
            line, start = data[start:end].decode("ascii"), end
            yield line

    try:
        for raw in csv.reader(lines()):
            if raw and not raw[0].startswith("#"):
                break
        else:
            return None
    except csv.Error:
        return None
    if tuple(raw) != RANKED_HEADER:
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=start)
    ends = np.flatnonzero(body == ord("\n"))
    empty = np.zeros(0, dtype=np.int64)
    if not len(ends):
        return empty, empty, empty, empty, []
    begins = np.r_[0, ends[:-1] + 1]
    commas = np.flatnonzero(body == ord(","))
    if len(commas) != 3 * len(ends):
        return None
    # Commas are sorted, so three per row with each row's three inside it
    # means exactly three in every row.
    commas = commas.reshape(-1, 3)
    if (commas[:, 0] < begins).any() or (commas[:, 2] > ends).any():
        return None
    query = _digit_column(body, begins, commas[:, 0])
    rank = _digit_column(body, commas[:, 0] + 1, commas[:, 1])
    gallery = _digit_column(body, commas[:, 1] + 1, commas[:, 2])
    if query is None or rank is None or gallery is None:
        return None
    token = bytes(body[commas[0, 2] + 1:ends[0]])
    # The pattern holds one newline, so its matches cannot overlap: one per
    # row means every row's last field is the token.
    if (not re.fullmatch(rb"[A-Za-z0-9_]+", token)
            or data.count(b"," + token + b"\n", start) != len(ends)):
        return None
    return query, rank, gallery, np.zeros(len(ends), dtype=np.int64), [token.decode()]


def _read_ranked_rows(path: Path) -> tuple:
    """The same columns as :func:`_parse_ranked_bytes`, row by row through
    :func:`~rvrank.datastore.read_csv`, for any file it accepts."""
    queries: list[int] = []
    ranks: list[int] = []
    gallery: list[int] = []
    provenance: list[int] = []
    codes: dict[str, int] = {}

    def collect(raw: list[str]) -> None:
        queries.append(int(raw[0]))
        ranks.append(int(raw[1]))
        gallery.append(int(raw[2]))
        provenance.append(codes.setdefault(raw[3], len(codes)))

    # Rows stream into columns: a ranked.csv holds one row per eligible
    # gallery image per query, too many to hold as row objects.
    deque(read_csv(path, RANKED_HEADER, collect), maxlen=0)
    try:
        q, r, g = (np.array(col, dtype=np.int64) for col in (queries, ranks, gallery))
    except OverflowError:
        raise ValueError(f"{path}: an index or rank does not fit in int64") from None
    return q, r, g, np.array(provenance, dtype=np.int64), list(codes)


def read_ranked_csv(path: str | Path) -> list[RankedList]:
    """Read a ranked CSV back into one :class:`RankedList` per query, in
    query order.

    A file as :func:`write_ranked_csv` writes it is parsed from its bytes
    with numpy; any other file goes through
    :func:`~rvrank.datastore.read_csv`, which accepts the same files and
    names the file and line of a fault.  Either way each query's ranks
    must be dense from 1 and its provenance one value.
    """
    path = Path(path)
    columns = _parse_ranked_bytes(path.read_bytes())
    q, r, g, c, names = columns if columns is not None else _read_ranked_rows(path)
    if not len(q):
        return []
    by_rank = np.lexsort((r, q))
    q, c = q[by_rank], c[by_rank]
    starts = np.flatnonzero(np.r_[True, q[1:] != q[:-1]])
    out: list[RankedList] = []
    for qi, rank, order, prov in zip(q[starts].tolist(), *(
            np.split(col, starts[1:]) for col in (r[by_rank], g[by_rank], c))):
        if not np.array_equal(rank, np.arange(1, len(rank) + 1)):
            raise ValueError(f"{path}: query {qi}: ranks are not dense from 1")
        if (prov != prov[0]).any():
            provs = sorted({names[k] for k in prov.tolist()})
            raise ValueError(f"{path}: query {qi}: mixed stage_provenance values {provs}")
        out.append(RankedList(qi, order, names[prov[0]]))
    return out
