"""Shared fixtures: tiny hand-built bundles, the frozen benchmark scenario
and scalar-loop reference oracles."""

from __future__ import annotations

import os

# One BLAS thread, as the benchmark runs: OpenBLAS reads this when numpy is
# first imported, and its default thread pool makes wall-clock fits such as
# test_acceptance's scoring-cost test noisy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from rvrank import verifier
from rvrank.datastore import build_bundle
from rvrank.retrieval import PAIR_HEADER
from rvrank.synthgen import SynthConfig, generate


class PeakMemory:
    """``with PeakMemory() as peak:`` traces the block's allocations with
    tracemalloc; ``peak.bytes`` is then the most they held at once."""

    bytes: int

    def __enter__(self) -> "PeakMemory":
        tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        self.bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


# The acceptance scenario: tuned once so that plain retrieval is well below
# 0.6 rank-1 while the planted part details make verification easy, then
# frozen.  42 test identities in confuser groups of 4.
SCENARIO = SynthConfig(n_identities=140, clothes_per_identity=3,
                       images_per_cloth=2, confuser_group_size=4,
                       feature_dim=32, part_dim=8, part_count=15,
                       identity_shift=0.2, cloth_shift=1.0, general_noise=0.3,
                       detail_noise=0.0, part_dropout=0.0, seed=0)


@pytest.fixture(scope="session")
def scenario():
    """(bundle, ground truth) for the frozen scenario; generated once."""
    return generate(SCENARIO)


def random_bundle(rng: np.random.Generator, *, n_query: int = 4,
                  n_gallery: int = 12, n_identities: int = 5, n_cloths: int = 3,
                  dims: tuple[int, int, int] = (6, 4, 5),
                  part_presence: float = 1.0):
    """A random two-split (Q/G) bundle for metric and ranking tests."""
    d, dp, k = dims
    rows = []
    feats = []
    present = []
    parts = []
    for role, count in (("Q", n_query), ("G", n_gallery)):
        for i in range(count):
            rows.append((i, role, int(rng.integers(n_identities)),
                         int(rng.integers(n_cloths)), int(rng.integers(4))))
            feats.append(rng.normal(size=d))
            present.append(rng.random(k) < part_presence)
            parts.append(rng.normal(size=(k, dp)))
    return build_bundle(rows, np.stack(feats), np.stack(present), np.stack(parts))


def eligible_orders(rng: np.random.Generator, bundle) -> list[list[int]]:
    """A random full permutation of the eligible gallery per query."""
    gallery = bundle.splits["G"]
    orders = []
    for query in bundle.splits["Q"]:
        elig = [g.index for g in gallery
                if not (g.identity == query.identity and g.cloth == query.cloth)]
        orders.append([elig[i] for i in rng.permutation(len(elig))])
    return orders


def stable_order(row: np.ndarray, allowed: np.ndarray, limit: int | None = None) -> list[int]:
    """The reference for one row of ``retrieval.masked_orders``: the allowed
    entries' indices by one stable argsort of their values, then the first
    ``limit``."""
    kept = np.flatnonzero(allowed)
    return kept[np.argsort(row[kept], kind="stable")][:limit].tolist()


def oracle_metrics(bundle, orders, k_max):
    """Scalar-loop CMC / mAP / AUC reference, no vectorisation."""
    gallery = bundle.splits["G"]
    cmc_hits = [0] * k_max
    aps = []
    excluded = []
    for query, order in zip(bundle.splits["Q"], orders):
        labels = [int(gallery[g].identity == query.identity) for g in order]
        if sum(labels) == 0:
            excluded.append(query.index)
            continue
        first = labels.index(1) + 1
        for k in range(1, k_max + 1):
            if first <= k:
                cmc_hits[k - 1] += 1
        seen = 0
        precisions = []
        for rank, lab in enumerate(labels, start=1):
            if lab:
                seen += 1
                precisions.append(seen / rank)
        aps.append(sum(precisions) / len(precisions))
    n = len(aps)
    cmc = [h / n if n else 0.0 for h in cmc_hits]
    map_score = sum(aps) / n if n else 0.0
    auc = sum(cmc) / k_max
    return cmc, map_score, auc, excluded


def train_bundle(rng: np.random.Generator, *, n_identities: int = 4,
                 n_cloths: int = 2, images_per_cloth: int = 2,
                 dims: tuple[int, int, int] = (5, 3, 4)):
    """A random train-split-only bundle (plus empty eval splits)."""
    d, dp, k = dims
    rows = []
    feats = []
    present = []
    parts = []
    i = 0
    for ident in range(n_identities):
        for cloth in range(n_cloths):
            for slot in range(images_per_cloth):
                rows.append((i, "T", ident, cloth, slot))
                feats.append(rng.normal(size=d))
                present.append(np.ones(k, dtype=bool))
                parts.append(rng.normal(size=(k, dp)))
                i += 1
    return build_bundle(rows, np.stack(feats), np.stack(present), np.stack(parts))


def oracle_fuse(query, cand):
    """Scalar-loop pair fusion: the global ``[|a-b|; a*b]`` list plus one
    ``(jointly present, fused list)`` per part slot, zeros when absent."""
    a = [float(x) for x in query.global_feature]
    b = [float(x) for x in cand.global_feature]
    fused = [abs(x - y) for x, y in zip(a, b)] + [x * y for x, y in zip(a, b)]
    parts = []
    for j in range(len(query.part_present)):
        va = [float(x) for x in query.part_vectors[j]]
        vb = [float(x) for x in cand.part_vectors[j]]
        joint = bool(query.part_present[j] and cand.part_present[j])
        vec = ([abs(x - y) for x, y in zip(va, vb)] + [x * y for x, y in zip(va, vb)]
               if joint else [0.0] * (2 * len(va)))
        parts.append((joint, vec))
    return fused, parts


def _dense_tanh(weights, biases, x):
    return [math.tanh(sum(w * v for w, v in zip(row, x)) + b)
            for row, b in zip(weights, biases)]


def oracle_scores(model, query, cand):
    """Scalar-loop verifier: ``(score, sim_G, sim_S, contributions)``.

    ``sim_S`` is None and every contribution NaN when no part is jointly
    present; the score is then ``sim_G``.
    """
    fused, parts = oracle_fuse(query, cand)
    hidden = _dense_tanh(model.global_hidden_w, model.global_hidden_b, fused)
    sim_g = math.tanh(sum(w * h for w, h in zip(model.global_out_w, hidden))
                      + float(model.global_out_b))
    contrib = []
    for j, (joint, vec) in enumerate(parts):
        if not joint:
            contrib.append(math.nan)
            continue
        u = _dense_tanh(model.part_hidden_w, model.part_hidden_b, vec)
        contrib.append(sum(m * h for m, h in zip(model.part_mix_w[j], u))
                       + float(model.part_mix_b[j]))
    present = [c for c in contrib if not math.isnan(c)]
    sim_s = None
    if present:
        sim_s = math.tanh(math.exp(float(model.out_log_gain)) * max(present)
                          + float(model.out_bias))
    return (sim_g if sim_s is None else sim_s), sim_g, sim_s, contrib


def blocked_global_forward(model, gx, block):
    """The global head as whole-array expressions on each ``block``-row
    slice of ``gx`` counted from row 0, the block definition of
    ``verifier._forward_global`` (it uses ``verifier.SCORE_CHUNK``), in its
    ``(sim_G, (gx, hidden, sim_G))`` return form."""
    starts = range(0, len(gx), block)
    h = np.concatenate([np.empty((0, model.hidden_global)),
                        *(np.tanh(gx[r:r + block] @ model.global_hidden_w.T
                                  + model.global_hidden_b) for r in starts)])
    s = np.tanh(np.concatenate([np.empty(0), *(h[r:r + block] @ model.global_out_w
                                               for r in starts)])
                + model.global_out_b)
    return s, (gx, h, s)


def triplet_loss(model, gx, px, present, pos_index, neg_index, margin):
    """Summed dual hinge loss ``(total, global_term, part_term)`` over the
    triplets ``(pos_index[i], neg_index[i])`` of fused pair rows, from the
    verifier's forward pass alone: the losses without the backward pass.

    The part term skips triplets where either pair has no jointly present
    part (those pairs have no ``sim_S``).
    """
    lg, lp, *_ = verifier._loss_forward(model, gx, px, present, pos_index, neg_index, margin)
    return lg + lp, lg, lp


def pairwise(score):
    """A scorer of the ``prefix_scores`` protocol that calls ``score(query
    record, candidate record)`` once per pair it is passed."""
    def scorer(queries, query_index, gallery, gallery_index):
        return np.array([float(score(queries[q], gallery[g])) for q, g
                         in zip(query_index.tolist(), gallery_index.tolist())])
    return scorer


#: One row of a pair array as a tuple with named fields.
PairRow = namedtuple("PairRow", PAIR_HEADER)


def oracle_groups(pairs) -> dict[tuple[str, int], list[PairRow]]:
    """Scalar-loop query grouping of a pair array: each ``(query_role,
    query_index)``'s rows in file order, queries in first-appearance order."""
    out: dict[tuple[str, int], list[PairRow]] = {}
    for row in map(PairRow._make, pairs.tolist()):
        out.setdefault((row.query_role, row.query_index), []).append(row)
    return out


def pair_records(bundle, pairs, row):
    """The (query, candidate) records that row ``row`` of a pair array names."""
    p = PairRow._make(pairs[row].item())
    return (bundle.splits[p.query_role][p.query_index],
            bundle.splits[p.cand_role][p.cand_index])
