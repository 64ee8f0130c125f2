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
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .datastore import DatasetBundle, ImageRecord, read_csv
from .retrieval import CandidateList, distance_matrix, eligible_mask, masked_order
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
    re-ranking and margin the verifier's training hinge.
    """

    P: int = 20
    L: int = 10
    Q: int = 20
    margin: float = 0.3
    k1: int = 20
    k2: int = 6
    lam: float = 0.3

    def clamped(self) -> "RankingConfig":
        """Return a copy satisfying L <= Q <= P, warning on every adjustment.

        Values that cannot be fixed by clamping (non-positive sizes, a blend
        outside [0, 1], a negative margin) raise ValueError.
        """
        if self.P < 1 or self.L < 1 or self.Q < 1:
            raise ValueError(f"P, L and Q must be >= 1, got P={self.P} L={self.L} Q={self.Q}")
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError(f"k1 and k2 must be >= 1, got k1={self.k1} k2={self.k2}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if self.margin < 0.0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
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
    """Full gallery permutation for one query plus how it was produced."""

    query_index: int
    order: list[int]
    provenance: str


def _score_lookup(score_of) -> Callable[[int], float]:
    raw = score_of if callable(score_of) else score_of.__getitem__

    def score(gi: int) -> float:
        try:
            return raw(gi)
        except (KeyError, IndexError):
            raise ValueError(f"no score for gallery entry {gi} inside the "
                             f"re-ranked depth") from None

    return score


def window_rerank(retrieval_order: Sequence[int], score_of, L: int, Q: int,
                  query_index: int = -1) -> RankedList:
    """Reorder the first Q entries of a ranking with an L-wide score window.

    The window starts as the first L entries.  Each step emits the
    highest-scoring entry (ties fall to the better retrieval rank) and pulls
    the next entry after position L into the window, until ranks 1..Q are
    re-emitted.  Entries beyond Q keep their retrieval order.  ``score_of``
    may be a mapping, a sequence indexed by gallery index, or a callable.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if Q < L:
        raise ValueError(f"Q must be >= L, got L={L} Q={Q}")
    order = list(retrieval_order)
    depth = min(Q, len(order))
    width = min(L, depth)
    head, tail = order[:depth], order[depth:]
    score = _score_lookup(score_of)
    window = head[:width]
    supply = deque(head[width:])
    out: list[int] = []
    while window:
        best = 0
        for pos in range(1, len(window)):
            if score(window[pos]) > score(window[best]):
                best = pos
        out.append(window.pop(best))
        if supply:
            window.append(supply.popleft())
    return RankedList(query_index, out + tail, "window")


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
                    candidates: list[CandidateList] | None = None,
                    metric: str = "euclidean", query_role: str = "Q",
                    gallery_role: str = "G") -> list[RankedList]:
    """Retrieve, then apply the requested ranking stages per query.

    ``stages`` is any subset of ``("kreciprocal", "window")``; order is
    fixed (k-reciprocal first).  ``scorer`` may be a VerifierModel, a plain
    ``(query, candidate) -> float`` callable, or None when the window stage
    is not requested.  When ``candidates`` (a previously retrieved top-P
    set) is supplied, it is checked against the freshly computed retrieval
    prefix and a ValueError names the first query that disagrees.

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
    orders = [masked_order(row, ok).tolist() for row, ok in zip(base_dist, allowed)]

    if candidates is not None:
        by_query = {c.query_index: c for c in candidates}
        for qi, order in enumerate(orders):
            cand = by_query.get(qi)
            if cand is None:
                raise ValueError(f"no candidate list for query {qi}")
            got = [e.gallery_index for e in cand.entries]
            if got != order[: len(got)]:
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
        orders = [masked_order(row, ok).tolist() for row, ok in zip(new_dist, allowed)]

    if "window" in stages:
        score_maps = prefix_scores(
            scorer, bundle.dims, queries,
            [[(gi, gallery[gi]) for gi in order[:cfg.Q]] for order in orders])
        orders = [window_rerank(order, score_of, cfg.L, cfg.Q).order
                  for order, score_of in zip(orders, score_maps)]

    ran = [stage for stage in STAGE_NAMES if stage in stages]
    provenance = "composed" if len(ran) == 2 else (ran[0] if ran else "retrieval")
    return [RankedList(qi, order, provenance) for qi, order in enumerate(orders)]


# ---------------------------------------------------------------------------
# CSV serialisation


def write_ranked_csv(path: str | Path, ranked: list[RankedList],
                     config_comment: str | None = None) -> None:
    with open(path, "w", newline="") as fh:
        if config_comment is not None:
            fh.write(f"# {config_comment}\n")
        fh.write(",".join(RANKED_HEADER) + "\n")
        for rl in ranked:
            for rank, gi in enumerate(rl.order, start=1):
                fh.write(f"{rl.query_index},{rank},{gi},{rl.provenance}\n")


def read_ranked_csv(path: str | Path) -> list[RankedList]:
    path = Path(path)
    rows: dict[int, list[tuple[int, int, str]]] = {}

    def group(raw: list[str]) -> None:
        rows.setdefault(int(raw[0]), []).append((int(raw[1]), int(raw[2]), raw[3]))

    # Rows are grouped as they stream past: a ranked.csv holds one row per
    # eligible gallery image per query, too many to hold twice.
    deque(read_csv(path, RANKED_HEADER, group), maxlen=0)
    out: list[RankedList] = []
    for qi in sorted(rows):
        entries = sorted(rows[qi])
        ranks = [r for r, _, _ in entries]
        if ranks != list(range(1, len(ranks) + 1)):
            raise ValueError(f"{path}: query {qi}: ranks are not dense from 1")
        provs = {p for _, _, p in entries}
        if len(provs) != 1:
            raise ValueError(f"{path}: query {qi}: mixed stage_provenance values {sorted(provs)}")
        out.append(RankedList(qi, [g for _, g, _ in entries], provs.pop()))
    return out
