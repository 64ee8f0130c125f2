"""Window re-ranking, k-reciprocal re-ranking and pipeline tests.

The k-reciprocal comparison uses a deliberately naive dict/set oracle so the
vectorised implementation is checked against an independent reading of the
procedure.
"""

from __future__ import annotations

import math
import re
import struct

import numpy as np
import pytest

from conftest import PeakMemory, oracle_scores, pairwise, random_bundle, stable_order
from rvrank import reranker, retrieval, verifier
from rvrank.reranker import (
    RankedList,
    RankingConfig,
    kreciprocal_rerank,
    read_ranked_csv,
    rerank_pipeline,
    window_rerank,
    write_ranked_csv,
)
from rvrank.retrieval import (build_eval_pairs, candidates_from_pairs, distance_matrix,
                              eligible_mask, masked_orders)
from rvrank.synthgen import SynthConfig, generate
from rvrank.verifier import VerifierModel


class TestRankingConfig:
    def test_defaults_are_already_consistent(self):
        cfg = RankingConfig()
        assert cfg.clamped() == cfg

    def test_window_larger_than_depth_is_clamped(self):
        with pytest.warns(UserWarning, match="clamping L"):
            cfg = RankingConfig(L=15, Q=10).clamped()
        assert (cfg.L, cfg.Q) == (10, 10)

    def test_depth_larger_than_candidates_is_clamped(self):
        with pytest.warns(UserWarning, match="clamping Q"):
            cfg = RankingConfig(P=5, L=3, Q=9).clamped()
        assert (cfg.P, cfg.L, cfg.Q) == (5, 3, 5)

    def test_cascade_clamps_both(self):
        with pytest.warns(UserWarning):
            cfg = RankingConfig(P=4, L=8, Q=9).clamped()
        assert (cfg.L, cfg.Q) == (4, 4)

    @pytest.mark.parametrize("bad", [dict(P=0), dict(L=-1), dict(k1=0),
                                     dict(lam=1.5), dict(Q=0), dict(k2=0), dict(lam=-0.1)])
    def test_invalid_values_raise(self, bad):
        # Raised on construction, before anything reads a config.
        with pytest.raises(ValueError):
            RankingConfig(**bad)


class TestWindowRerank:
    def test_four_entry_example(self):
        # Last-ranked entry scores best but the window only reaches it after
        # emitting the first three: [a, b, c, d] -> [b, c, d, a].
        ranked = window_rerank([0, 1, 2, 3], [0.1, 0.9, 0.5, 0.8], L=2, Q=4)
        assert ranked.tolist() == [1, 2, 3, 0]
        assert ranked.dtype == np.int64

    def test_width_one_is_the_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 15))
            order = rng.permutation(50)[:n].tolist()
            scores = [float(rng.normal()) for _ in order]
            assert window_rerank(order, scores, 1, max(1, n)).tolist() == order

    def test_full_width_sorts_the_depth(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            order = list(range(n))
            scores = [float(rng.normal()) for _ in order]
            got = window_rerank(order, scores, n, n).tolist()
            want = sorted(order, key=lambda g: (-scores[g], order.index(g)))
            assert got == want

    def test_suffix_beyond_depth_is_untouched(self):
        rng = np.random.default_rng(7)
        order = rng.permutation(30)
        scores = rng.normal(size=30)
        ranked = window_rerank(order, scores[:10], 3, 10)
        assert np.array_equal(ranked[10:], order[10:])
        assert sorted(ranked[:10]) == sorted(order[:10])

    def test_ties_keep_the_better_retrieval_rank(self):
        ranked = window_rerank([4, 9, 2], [1.0, 1.0, 1.0], 2, 3)
        assert ranked.tolist() == [4, 9, 2]

    def test_decreasing_scores_change_nothing(self):
        order = list(range(8))
        scores = [-float(g) for g in order]
        for width in range(1, 9):
            assert window_rerank(order, scores, width, 8).tolist() == order

    def test_promotion_is_bounded_by_the_window(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            width = int(rng.integers(1, n + 1))
            order = list(rng.permutation(100)[:n])
            scores = [float(rng.normal()) for _ in order]
            got = window_rerank([int(g) for g in order], scores, width, n)
            for new_pos, g in enumerate(got, start=1):
                old_pos = order.index(g) + 1
                assert new_pos >= max(1, old_pos - width + 1)

    def test_top_sets_agree_once_the_window_covers_the_gap(self):
        # With depth Q, every L >= Q - t + 1 puts the same t entries on top.
        rng = np.random.default_rng(9)
        q, t = 20, 10
        for _ in range(30):
            order = list(range(q + 5))
            scores = [float(rng.normal()) for _ in order]
            tops = [frozenset(window_rerank(order, scores[:q], width, q)[:t].tolist())
                    for width in range(q - t + 1, q + 1)]
            assert len(set(tops)) == 1

    def test_wrong_score_count_raises(self):
        # Two entries at depth Q=2 need exactly two scores.
        for count in (0, 1, 3):
            with pytest.raises(ValueError, match="expected 2 scores"):
                window_rerank([0, 1], [1.0] * count, 2, 2)

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError, match="L"):
            window_rerank([0], [0.0], 0, 1)
        with pytest.raises(ValueError, match="Q"):
            window_rerank([0], [0.0], 3, 2)


def oracle_kreciprocal(dist, num_queries, k1, k2, lam):
    """Plain-python reference: sets and dicts, no vectorisation."""
    n = len(dist)
    d = [[float(dist[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        d[i][i] = 0.0
    k1 = min(k1, n - 1)
    k2 = min(k2, n)

    def head(i, count):
        return sorted(range(n), key=lambda j: (d[i][j], j))[:count]

    def mutual(i, k):
        return [j for j in head(i, k + 1) if i in head(j, k + 1)]

    half = int(np.around(k1 / 2))
    weight_rows = []
    for i in range(n):
        base = mutual(i, k1)
        members = set(base)
        for j in base:
            cand = mutual(j, half)
            if len(set(cand) & set(base)) > (2.0 / 3.0) * len(cand):
                members |= set(cand)
        raw = {j: math.exp(-d[i][j]) for j in members}
        total = sum(raw.values())
        weight_rows.append({j: v / total for j, v in raw.items()})

    if k2 > 1:
        expanded = []
        for i in range(n):
            rows = [weight_rows[r] for r in head(i, k2)]
            keys = set().union(*(r.keys() for r in rows))
            expanded.append({j: sum(r.get(j, 0.0) for r in rows) / len(rows)
                             for j in keys})
        weight_rows = expanded

    out = [[0.0] * (n - num_queries) for _ in range(num_queries)]
    for qi in range(num_queries):
        for col, gi in enumerate(range(num_queries, n)):
            s = sum(min(v, weight_rows[gi].get(j, 0.0))
                    for j, v in weight_rows[qi].items())
            jacc = 1.0 - s / (2.0 - s)
            out[qi][col] = lam * d[qi][gi] + (1.0 - lam) * jacc
    return np.array(out)


def point_cloud_distances(rng, n, dim=3):
    pts = rng.normal(size=(n, dim))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


class TestKReciprocal:
    def test_matches_the_naive_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(5, 9))
            nq = int(rng.integers(1, n - 2))
            k1 = int(rng.integers(2, 5))
            k2 = int(rng.integers(1, 4))
            lam = float(rng.uniform(0, 1))
            dist = point_cloud_distances(rng, n)
            got = kreciprocal_rerank(dist, nq, k1=k1, k2=k2, lam=lam)
            want = oracle_kreciprocal(dist, nq, k1, k2, lam)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_the_naive_oracle_on_larger_tied_inputs(self):
        # One-decimal distances tie often, so the order among equal
        # distances (lower index first) shapes every neighbourhood; k1
        # reaches the clamp on the smallest unions.
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(5, 31))
            nq = int(rng.integers(1, n - 1))
            k1 = int(rng.integers(1, 8))
            k2 = int(rng.integers(1, 5))
            lam = float(rng.uniform(0, 1))
            dist = np.round(point_cloud_distances(rng, n), 1)
            if k1 > n - 1:
                with pytest.warns(UserWarning, match="k1"):
                    got = kreciprocal_rerank(dist, nq, k1=k1, k2=k2, lam=lam)
            else:
                got = kreciprocal_rerank(dist, nq, k1=k1, k2=k2, lam=lam)
            want = oracle_kreciprocal(dist, nq, k1, k2, lam)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_memory_beyond_the_input_stays_below_three_matrices(self):
        # The dense form held an n x n argsort, n x n vectors and an
        # (n, k2, n) gather: about ten n x n float64 arrays at k2=6.
        n = 1500
        feats = np.random.default_rng(32).normal(size=(n, 32))
        dist = distance_matrix(feats, feats)
        np.fill_diagonal(dist, 0.0)
        with PeakMemory() as peak:
            kreciprocal_rerank(dist, n // 4, k1=20, k2=6)
        assert peak.bytes < 3 * n * n * 8, f"peak {peak.bytes / (n * n * 8):.2f} n x n float64"

    def test_memory_beyond_the_input_stays_below_half_of_it(self):
        """A union of 1,800 images (450 queries), the size and kind of a
        large benchmark's.  Before the set steps ran by row blocks and the
        blend by query blocks, the call peaked at 1.2 x ``dist.nbytes``
        beyond ``dist`` (tracemalloc)."""
        bundle, _ = generate(SynthConfig(n_identities=500, images_per_cloth=4,
                                         identity_shift=1.5, seed=2))
        queries = bundle.splits["Q"].features
        union = np.vstack([queries, bundle.splits["G"].features]).astype(np.float64)
        dist = distance_matrix(union, union)
        np.fill_diagonal(dist, 0.0)
        with PeakMemory() as peak:
            kreciprocal_rerank(dist, len(queries))
        assert peak.bytes < 0.5 * dist.nbytes, f"{peak.bytes / dist.nbytes:.2f} x dist.nbytes"

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("n, nq, k1, k2", [(12, 4, 3, 1), (40, 9, 6, 3), (61, 30, 20, 6),
                                               (90, 1, 8, 4), (75, 74, 5, 2)])
    def test_blocks_change_no_bit(self, monkeypatch, block, n, nq, k1, k2):
        # One-decimal distances tie often.  Blocks of 1 and 7 split the rows
        # and queries that the default blocks take whole, or nearly so.
        rng = np.random.default_rng(n)
        for dist in (point_cloud_distances(rng, n), np.round(point_cloud_distances(rng, n), 1)):
            whole = kreciprocal_rerank(dist, nq, k1=k1, k2=k2)
            with monkeypatch.context() as patch:
                patch.setattr(reranker, "_JACCARD_BLOCK", block)
                patch.setattr(reranker, "_SET_ROWS", block)
                assert np.array_equal(kreciprocal_rerank(dist, nq, k1=k1, k2=k2), whole)

    def test_full_blend_returns_the_original_block(self):
        rng = np.random.default_rng(14)
        dist = point_cloud_distances(rng, 10)
        got = kreciprocal_rerank(dist, 4, k1=3, k2=2, lam=1.0)
        np.testing.assert_array_equal(got, dist[:4, 4:])

    def test_cyclic_instance_has_no_reciprocal_pairs(self):
        # d(i, j) = (j - i) mod n: i's nearest other is i+1, but i+1 never
        # reciprocates, so every neighbourhood collapses to the image itself
        # and the overlap distance saturates at 1 for all pairs.
        n = 6
        dist = np.array([[(j - i) % n for j in range(n)] for i in range(n)],
                        dtype=np.float64)
        jacc = kreciprocal_rerank(dist, 2, k1=1, k2=1, lam=0.0)
        np.testing.assert_array_equal(jacc, np.ones((2, 4)))
        blended = kreciprocal_rerank(dist, 2, k1=1, k2=1, lam=0.3)
        for qi in range(2):
            got = np.argsort(blended[qi], kind="stable")
            want = np.argsort(dist[qi, 2:], kind="stable")
            np.testing.assert_array_equal(got, want)

    def test_non_square_matrix_raises(self):
        with pytest.raises(ValueError, match="square"):
            kreciprocal_rerank(np.zeros((3, 4)), 1)

    def test_nonzero_diagonal_raises(self):
        dist = np.ones((4, 4))
        with pytest.raises(ValueError, match="diagonal"):
            kreciprocal_rerank(dist, 1)

    def test_bad_query_count_raises(self):
        rng = np.random.default_rng(15)
        dist = point_cloud_distances(rng, 4)
        for bad in (0, 4, 7):
            with pytest.raises(ValueError, match="num_queries"):
                kreciprocal_rerank(dist, bad)

    def test_oversized_neighbourhoods_warn_and_clamp(self):
        rng = np.random.default_rng(16)
        dist = point_cloud_distances(rng, 5)
        with pytest.warns(UserWarning, match="k1"):
            a = kreciprocal_rerank(dist, 2, k1=50, k2=1)
        b = kreciprocal_rerank(dist, 2, k1=4, k2=1)
        np.testing.assert_array_equal(a, b)
        with pytest.warns(UserWarning, match="k2"):
            kreciprocal_rerank(dist, 2, k1=2, k2=50)


def lattice_distances(rng, n):
    """Distances between points of a small integer lattice: most of them
    tie with many others."""
    pts = rng.integers(0, 3, size=(n, 4)).astype(np.float64)
    dist = distance_matrix(pts, pts)
    np.fill_diagonal(dist, 0.0)
    return dist


class TestKReciprocalByRowBlocks:
    """``rerank_pipeline`` hands ``kreciprocal_rerank`` a
    :class:`~rvrank.retrieval.DistanceRows` view of the union, whose row
    slices are computed on demand; the result must be that of the dense
    matrix, bit for bit."""

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_pipeline_equals_the_dense_definition(self, monkeypatch, metric, seed, block):
        # Blocks of 1 and 7 make the set steps slice the view off the
        # distance blocks' boundaries.
        bundle, _ = generate(SynthConfig(n_identities=60, images_per_cloth=4,
                                         identity_shift=1.5, seed=seed))
        queries, gallery = bundle.splits["Q"], bundle.splits["G"]
        union = np.vstack([queries.features, gallery.features]).astype(np.float64)
        assert len(union) > 3 * 64
        dense = distance_matrix(union, union, metric)
        np.fill_diagonal(dense, 0.0)
        cfg = RankingConfig(k1=8, k2=3, lam=0.4)
        want = kreciprocal_rerank(dense, len(queries), k1=cfg.k1, k2=cfg.k2, lam=cfg.lam)

        results = []
        real = reranker.kreciprocal_rerank

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(reranker, "kreciprocal_rerank", recording)
        if block is not None:
            monkeypatch.setattr(reranker, "_JACCARD_BLOCK", block)
            monkeypatch.setattr(reranker, "_SET_ROWS", block)
        ranked = rerank_pipeline(bundle, None, cfg, stages=("kreciprocal",), metric=metric)
        [got] = results
        assert np.array_equal(got, want)
        assert [rl.order.tolist() for rl in ranked] == [
            stable_order(row, ok) for row, ok in zip(want, eligible_mask(queries, gallery))]

    @pytest.mark.parametrize("count", [1, 2, 5, 13, 40])
    def test_neighbour_lists_equal_a_stable_sort_on_ties(self, monkeypatch, count):
        monkeypatch.setattr(reranker, "DISTANCE_BLOCK", 16)
        rng = np.random.default_rng(count)
        dist = lattice_distances(rng, 40)
        initial, _ = reranker._neighbours(dist, 10, count, 0.3)
        everything = np.ones(40, dtype=bool)
        assert initial.tolist() == [stable_order(row, everything, count) for row in dist]

    @pytest.mark.parametrize("count", [1, 3, 9, 20])
    def test_block_selection_equals_a_stable_sort_with_inf_and_nan(self, count):
        # Some rows hold fewer than ``count`` numbers, so their cut is NaN.
        rng = np.random.default_rng(50 + count)
        block = rng.integers(0, 5, size=(30, 20)).astype(np.float64)
        block[rng.random(block.shape) < 0.15] = np.inf
        block[rng.random(block.shape) < 0.15] = -np.inf
        block[rng.random(block.shape) < 0.2] = np.nan
        block[:3] = np.nan
        block[3, :-2] = np.nan
        everything = np.ones(block.shape, dtype=bool)
        got = masked_orders(block, everything, count)
        for row, ok, order in zip(block, everything, got):
            assert order.tolist() == stable_order(row, ok, count)

    def test_stage_memory_stays_below_half_the_union_matrix(self):
        """A union of 1,800 images (450 queries), the size and kind of a
        large benchmark's.  With the dense union the stage peaked at 1.42 x
        the n x n float64 matrix it held (tracemalloc)."""
        bundle, _ = generate(SynthConfig(n_identities=500, images_per_cloth=4,
                                         identity_shift=1.5))
        n = len(bundle.splits["Q"]) + len(bundle.splits["G"])
        assert n == 1800
        with PeakMemory() as peak:
            rerank_pipeline(bundle, None, RankingConfig(), stages=("kreciprocal",))
        assert peak.bytes < 0.5 * n * n * 8, f"{peak.bytes / (n * n * 8):.2f} n x n float64"


class CountingScorer:
    """Protocol scorer that tallies the pairs it is passed per query index
    and keeps the index arrays of every call."""

    def __init__(self, rng):
        self.table = {}
        self.rng = rng
        self.calls = {}
        self.batches = []

    def __call__(self, queries, query_index, gallery, gallery_index):
        self.batches.append((query_index, gallery_index))
        scores = []
        for key in zip(query_index.tolist(), gallery_index.tolist()):
            self.calls[key[0]] = self.calls.get(key[0], 0) + 1
            if key not in self.table:
                self.table[key] = float(self.rng.normal())
            scores.append(self.table[key])
        return np.array(scores)


def named_queries(message):
    """The queries a window-stage failure names, ``query N`` or ``queries A-B``."""
    found = re.search(r"failed for (?:query (\d+)|queries (\d+)-(\d+)):", message)
    assert found, message
    one, first, last = found.groups()
    return range(int(one), int(one) + 1) if one else range(int(first), int(last) + 1)


class TestPipeline:
    def test_no_stages_reproduces_retrieval(self):
        rng = np.random.default_rng(23)
        bundle = random_bundle(rng, n_query=4, n_gallery=15)
        ranked = rerank_pipeline(bundle, None, RankingConfig(), stages=())
        pairs = build_eval_pairs(bundle, "Q", "G", num_candidates=15)
        candidates = candidates_from_pairs(pairs)
        assert len(ranked) == 4
        for qi, rl in enumerate(ranked):
            assert rl.order.dtype == np.int64
            assert np.array_equal(rl.order, candidates[qi])

    def test_every_order_is_a_permutation_of_the_eligible_gallery(self):
        rng = np.random.default_rng(25)
        bundle = random_bundle(rng, n_query=5, n_gallery=14)
        model = VerifierModel.initialize(bundle.dims, 6, 6, seed=1)
        cfg = RankingConfig(P=14, L=3, Q=9, k1=4, k2=2)
        ranked = rerank_pipeline(bundle, model, cfg)
        for rl, query in zip(ranked, bundle.splits["Q"]):
            eligible = [g.index for g in bundle.splits["G"]
                        if not (g.identity == query.identity
                                and g.cloth == query.cloth)]
            assert sorted(rl.order) == sorted(eligible)

    def test_unknown_stage_raises(self):
        rng = np.random.default_rng(26)
        bundle = random_bundle(rng)
        with pytest.raises(ValueError, match="stage"):
            rerank_pipeline(bundle, None, RankingConfig(), stages=("polish",))

    def test_window_without_scorer_raises(self):
        rng = np.random.default_rng(27)
        bundle = random_bundle(rng)
        with pytest.raises(ValueError, match="scorer"):
            rerank_pipeline(bundle, None, RankingConfig(), stages=("window",))

    def test_scorer_calls_equal_window_depth_per_query(self):
        rng = np.random.default_rng(28)
        bundle = random_bundle(rng, n_query=5, n_gallery=30, n_identities=6)
        scorer = CountingScorer(np.random.default_rng(1))
        cfg = RankingConfig(P=30, L=5, Q=12)
        rerank_pipeline(bundle, scorer, cfg, stages=("window",))
        for query in bundle.splits["Q"]:
            eligible = sum(1 for g in bundle.splits["G"]
                           if not (g.identity == query.identity
                                   and g.cloth == query.cloth))
            assert scorer.calls[query.index] == min(12, eligible)

    def test_a_scorer_gets_int64_chunks_and_min_q_eligible_pairs(self, monkeypatch):
        rng = np.random.default_rng(39)
        bundle = random_bundle(rng, n_query=6, n_gallery=14)
        queries, gallery = bundle.splits["Q"], bundle.splits["G"]
        monkeypatch.setattr(verifier, "SCORE_CHUNK", 5)
        # Orders longer and shorter than the depth of 9, one of them empty.
        orders = [rng.permutation(14)[:n] for n in (14, 9, 3, 0, 12, 8)]
        scorer = CountingScorer(np.random.default_rng(2))
        scores = verifier.prefix_scores(scorer, queries, gallery, orders, 9)
        assert all(len(qi) == len(gi) <= 5 for qi, gi in scorer.batches)
        assert all(a.dtype == np.int64 for batch in scorer.batches for a in batch)
        assert [scorer.calls.get(qi, 0) for qi in range(6)] == \
               [min(9, len(order)) for order in orders]
        for qi, (order, got) in enumerate(zip(orders, scores)):
            assert got.tolist() == [scorer.table[qi, gi] for gi in order[:9].tolist()]

        # Through the pipeline: one call per chunk of the queries' prefixes.
        scorer = CountingScorer(np.random.default_rng(3))
        rerank_pipeline(bundle, scorer, RankingConfig(P=14, L=3, Q=9), stages=("window",))
        depth = np.minimum(9, eligible_mask(queries, gallery).sum(axis=1))
        assert [scorer.calls[qi] for qi in range(6)] == depth.tolist()
        total = int(depth.sum())
        assert [len(qi) for qi, _ in scorer.batches] == \
               [min(5, total - start) for start in range(0, total, 5)]

    def test_stale_candidates_name_the_query(self):
        rng = np.random.default_rng(29)
        bundle = random_bundle(rng, n_query=3, n_gallery=10)
        pairs = build_eval_pairs(bundle, "Q", "G", num_candidates=5)
        cands = candidates_from_pairs(pairs)
        cands[1][[0, 1]] = cands[1][[1, 0]]
        with pytest.raises(ValueError, match="query 1"):
            rerank_pipeline(bundle, None, RankingConfig(P=5, L=2, Q=4),
                            stages=(), candidates=cands)

    def test_stale_candidates_fail_the_kreciprocal_check_alike(self):
        # With k-reciprocal, retrieval orders stop at each block's longest
        # candidate list; a list that the full order would reject still fails.
        rng = np.random.default_rng(29)
        bundle = random_bundle(rng, n_query=3, n_gallery=10)
        pairs = build_eval_pairs(bundle, "Q", "G", num_candidates=5)
        cfg = RankingConfig(P=5, L=2, Q=4, k1=4, k2=2)
        for query, change, match in (
                (1, lambda c: c[[1, 0, 2, 3, 4]], "query 1 does not match"),
                (2, lambda c: np.r_[c, c[0]], "query 2 does not match"),
                (0, None, "no candidate list for query 0")):
            cands = candidates_from_pairs(pairs)
            if change is None:
                del cands[query]
            else:
                cands[query] = change(cands[query])
            for stages in ((), ("kreciprocal",)):
                with pytest.raises(ValueError, match=match):
                    rerank_pipeline(bundle, None, cfg, stages=stages, candidates=cands)

    def test_matching_candidates_pass_the_cross_check(self):
        rng = np.random.default_rng(30)
        bundle = random_bundle(rng, n_query=3, n_gallery=10)
        pairs = build_eval_pairs(bundle, "Q", "G", num_candidates=5)
        cands = candidates_from_pairs(pairs)
        ranked = rerank_pipeline(bundle, None, RankingConfig(P=5, L=2, Q=4),
                                 stages=(), candidates=cands)
        assert len(ranked) == 3

    @pytest.mark.parametrize("chunk", [256, 4])
    def test_scorer_failure_names_the_query(self, monkeypatch, chunk):
        rng = np.random.default_rng(31)
        bundle = random_bundle(rng, n_query=3, n_gallery=8)
        monkeypatch.setattr(verifier, "SCORE_CHUNK", chunk)

        def flaky(queries, query_index, gallery, gallery_index):
            if (query_index == 2).any():
                raise KeyError("boom")
            return np.zeros(len(query_index))

        with pytest.raises(RuntimeError, match="boom") as failure:
            rerank_pipeline(bundle, flaky, RankingConfig(P=8, L=2, Q=4),
                            stages=("window",))
        named = named_queries(str(failure.value))
        assert 2 in named
        if chunk == 4:  # queries 0 and 1 hold 4 pairs each, so query 2 has its own call
            assert named == range(2, 3)

    def test_model_scores_do_not_depend_on_the_chunking(self, monkeypatch):
        rng = np.random.default_rng(35)
        bundle = random_bundle(rng, n_query=5, n_gallery=14, part_presence=0.4)
        model = VerifierModel.initialize(bundle.dims, 6, 6, seed=6)
        queries, gallery = bundle.splits["Q"], bundle.splits["G"]
        # Orders longer and shorter than the depth of 9.
        orders = [rng.permutation(14)[:n] for n in (14, 9, 5, 12, 0)]
        whole = verifier.prefix_scores(model, queries, gallery, orders, 9)
        monkeypatch.setattr(verifier, "SCORE_CHUNK", 4)
        chunked = verifier.prefix_scores(model, queries, gallery, orders, 9)
        assert len(whole) == len(chunked) == len(orders)
        for query, order, scores, again in zip(queries, orders, whole, chunked):
            assert np.array_equal(again, scores)
            assert len(scores) == min(9, len(order))
            for gi, score in zip(order.tolist(), scores):
                np.testing.assert_allclose(score,
                                           oracle_scores(model, query, gallery[gi])[0],
                                           rtol=1e-12)

    def test_pair_arrays_sees_the_same_records_on_every_run(self, monkeypatch):
        # Distinct pairs are counted by record identity, so a row must map
        # to one record object for the bundle's lifetime.
        rng = np.random.default_rng(37)
        bundle = random_bundle(rng, n_query=3, n_gallery=9)
        model = VerifierModel.initialize(bundle.dims, 6, 6, seed=8)
        seen = []
        real = verifier.pair_arrays

        def spy(pairs, dims):
            seen.append(pairs)
            return real(pairs, dims)

        monkeypatch.setattr(verifier, "pair_arrays", spy)
        runs = []
        for _ in range(2):
            seen.clear()
            rerank_pipeline(bundle, model, RankingConfig(P=9, L=2, Q=4),
                            stages=("window",))
            runs.append([(id(q), id(g)) for pairs in seen for q, g in pairs])
        assert runs[0] == runs[1] and runs[0]
        records = {id(rec) for role in ("Q", "G") for rec in bundle.splits[role]}
        assert {i for pair in runs[0] for i in pair} <= records

    def test_model_failure_names_the_query(self):
        rng = np.random.default_rng(36)
        bundle = random_bundle(rng, n_query=3, n_gallery=8)
        d, dp, k = bundle.dims
        model = VerifierModel.initialize((d + 1, dp, k), 6, 6, seed=7)
        with pytest.raises(RuntimeError, match="window stage failed") as failure:
            rerank_pipeline(bundle, model, RankingConfig(P=8, L=2, Q=4),
                            stages=("window",))
        assert 0 in named_queries(str(failure.value))

    def test_kreciprocal_sorts_no_retrieval_order(self, tmp_path, monkeypatch):
        # Rows ordered without a limit: only k-reciprocal's output needs
        # full orders.  Its neighbour lists pass a limit, and so does the
        # candidate check, at the longest candidate list.
        full_orders = []
        real = retrieval.masked_orders

        def spy(block, allowed, limit=None):
            if limit is None:
                full_orders.append(len(block))
            return real(block, allowed, limit)

        monkeypatch.setattr(reranker, "masked_orders", spy)
        monkeypatch.setattr(retrieval, "masked_orders", spy)
        rng = np.random.default_rng(38)
        bundle = random_bundle(rng, n_query=4, n_gallery=12)
        cfg = RankingConfig(P=5, L=2, Q=4, k1=4, k2=2)
        cands = candidates_from_pairs(build_eval_pairs(bundle, "Q", "G", num_candidates=5))
        files = []
        for candidates in (None, cands):
            full_orders.clear()
            ranked = rerank_pipeline(bundle, None, cfg, stages=("kreciprocal",),
                                     candidates=candidates)
            assert sum(full_orders) == 4
            files.append(tmp_path / f"ranked{len(files)}.csv")
            write_ranked_csv(files[-1], ranked)
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_model_and_equivalent_callable_agree(self):
        rng = np.random.default_rng(34)
        bundle = random_bundle(rng, n_query=4, n_gallery=12)
        model = VerifierModel.initialize(bundle.dims, 6, 6, seed=4)
        cfg = RankingConfig(P=12, L=3, Q=8)
        via_model = rerank_pipeline(bundle, model, cfg, stages=("window",))
        via_callable = rerank_pipeline(
            bundle, pairwise(lambda q, g: oracle_scores(model, q, g)[0]), cfg,
            stages=("window",))
        assert [rl.order.tolist() for rl in via_model] == \
               [rl.order.tolist() for rl in via_callable]

    @pytest.mark.parametrize("block", [1, 7])
    def test_query_blocks_change_no_order(self, monkeypatch, block):
        rng = np.random.default_rng(39)
        bundle = random_bundle(rng, n_query=150, n_gallery=40, n_identities=6)
        model = VerifierModel.initialize(bundle.dims, 6, 6, seed=2)
        cfg = RankingConfig(P=8, L=3, Q=6, k1=5, k2=3)
        cands = candidates_from_pairs(build_eval_pairs(bundle, "Q", "G", num_candidates=8))
        runs = [(stages, candidates) for stages in ((), ("window",), ("kreciprocal",),
                                                    ("kreciprocal", "window"))
                for candidates in (None, cands)]

        def orders():
            return [[rl.order.tolist() for rl in rerank_pipeline(
                bundle, model, cfg, stages=stages, candidates=candidates)]
                for stages, candidates in runs]

        want = orders()
        monkeypatch.setattr(reranker, "DISTANCE_BLOCK", block)
        assert orders() == want

    def test_the_window_stage_allocates_no_query_by_gallery_array(self):
        # The retrieval distances and the eligibility mask are taken a
        # block of queries at a time; the whole Q x G distances, mask and
        # a second list of orders peaked 10.9 MB above the orders.
        bundle = random_bundle(np.random.default_rng(1), n_query=450, n_gallery=1347,
                               n_identities=50)
        model = VerifierModel.initialize(bundle.dims, 6, 6, seed=0)
        with PeakMemory() as peak:
            ranked = rerank_pipeline(bundle, model, RankingConfig(), stages=("window",))
        beyond = peak.bytes - sum(rl.order.nbytes for rl in ranked)
        assert beyond < 0.5 * 450 * 1347 * 8, f"{beyond / 2 ** 20:.1f} MB"


def ranked_bytes(count, roles, lengths, orders):
    """An RVK1 file's bytes, packed field by field as its layout states."""
    return (b"RVK1" + struct.pack("<I", count)
            + b"".join(struct.pack("<B", len(r)) + r for r in roles)
            + struct.pack(f"<{len(lengths)}q", *lengths)
            + struct.pack(f"<{len(orders)}q", *orders))


class TestRankedFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(43)
        bundle = random_bundle(rng, n_query=3, n_gallery=9)
        model = VerifierModel.initialize(bundle.dims, 6, 6, seed=5)
        ranked = rerank_pipeline(bundle, model,
                                 RankingConfig(P=9, L=3, Q=6, k1=3, k2=2))
        path = tmp_path / "ranked.csv"
        write_ranked_csv(path, ranked)
        back = read_ranked_csv(path, ("Q", "G"))
        assert [rl.order.tolist() for rl in back] == [rl.order.tolist() for rl in ranked]
        assert all(rl.order.dtype == np.int64 for rl in back)

    @pytest.mark.parametrize("stages", [(), ("window",), ("kreciprocal",),
                                        ("kreciprocal", "window")])
    @pytest.mark.parametrize("with_candidates", [False, True])
    def test_every_stage_chain_reads_back(self, tmp_path, stages, with_candidates):
        rng = np.random.default_rng(44)
        bundle = random_bundle(rng, n_query=70, n_gallery=30, n_identities=3, n_cloths=2)
        model = VerifierModel.initialize(bundle.dims, 6, 6, seed=3)
        cands = candidates_from_pairs(build_eval_pairs(bundle, "Q", "G", num_candidates=8))
        ranked = rerank_pipeline(bundle, model, RankingConfig(P=8, L=3, Q=6, k1=5, k2=3),
                                 stages=stages, candidates=cands if with_candidates else None)
        path = tmp_path / "ranked.csv"
        write_ranked_csv(path, ranked)
        back = read_ranked_csv(path, ("Q", "G"))
        assert len(back) == len(ranked) == 70
        for got, want in zip(back, ranked):
            assert np.array_equal(got.order, want.order)

    def test_bytes_follow_the_layout(self, tmp_path):
        ranked = [RankedList(np.array([4, 0, 7])),
                  RankedList(np.array([], dtype=np.int64)),
                  RankedList(np.array([3, 2 ** 63 - 1]))]
        path = tmp_path / "ranked.csv"
        for lists in (ranked[:2], ranked, []):
            write_ranked_csv(path, lists, "VQ", "VG")
            assert path.read_bytes() == ranked_bytes(
                len(lists), (b"VQ", b"VG"), [len(rl.order) for rl in lists],
                [gi for rl in lists for gi in rl.order.tolist()])
            assert [rl.order.tolist() for rl in read_ranked_csv(path)] == \
                   [rl.order.tolist() for rl in lists]

    def test_write_memory_beyond_the_orders_is_fixed(self, tmp_path):
        # 450 queries of 1,347 images: the size of a large benchmark's
        # ranked file.  The orders are written as they are; formatting them
        # as text rows peaked at 8 MB.
        rng = np.random.default_rng(48)
        ranked = [RankedList(rng.permutation(1347)) for _ in range(450)]
        with PeakMemory() as peak:
            write_ranked_csv(tmp_path / "ranked.csv", ranked)
        assert peak.bytes < 2 ** 20, f"{peak.bytes / 2 ** 20:.1f} MB"

    def test_read_memory_is_the_file(self, tmp_path):
        # The same file read back: every order is a view of the file's
        # bytes; parsing it as text held 15.7 MB.
        rng = np.random.default_rng(49)
        path = tmp_path / "ranked.csv"
        write_ranked_csv(path, [RankedList(rng.permutation(1347)) for _ in range(450)])
        with PeakMemory() as peak:
            ranked = read_ranked_csv(path)
        assert len({id(rl.order.base) for rl in ranked}) == 1
        beyond = peak.bytes - path.stat().st_size
        assert beyond < 2 ** 20, f"{beyond / 2 ** 20:.1f} MB"


#: A well-formed file: queries of 2, 0 and 3 entries.
GOOD = (3, (b"Q", b"G"), [2, 0, 3], [5, 1, 0, 4, 2])

#: What a fault in a ranked file reads as, after ``"{path}: "``.
RANKED_FAULTS = {
    "an old ranked CSV": (
        b"# config: {}\nquery_index,rank,gallery_index\n0,1,5\n",
        "bad magic at offset 0: expected b'RVK1', got b'# co'"),
    "another magic": (b"RVR1" + ranked_bytes(*GOOD)[4:],
                      "bad magic at offset 0: expected b'RVK1', got b'RVR1'"),
    "no query count": (b"RVK1\x03\x00",
                       "truncated header at offset 4: wanted 4 bytes, got 2"),
    "a cut role": (ranked_bytes(*GOOD)[:11],
                   "truncated header at offset 11: wanted 1 bytes, got 0"),
    "cut lengths": (ranked_bytes(*GOOD)[:20],
                    "truncated header at offset 12: wanted 24 bytes, got 8"),
    "a payload short by one entry": (
        ranked_bytes(*GOOD)[:-8],
        "query 2: its order of 3 entries ends past the 4 int64 entries the file holds "
        "after the lengths"),
    "a payload short by one byte": (
        ranked_bytes(*GOOD)[:-1],
        "query 2: its order of 3 entries ends past the 4 int64 entries the file holds "
        "after the lengths"),
    "a length past the payload": (
        ranked_bytes(3, (b"Q", b"G"), [2, 2 ** 62, 3], [5, 1, 0, 4, 2]),
        "query 1: its order of 4611686018427387904 entries ends past the 5 int64 "
        "entries the file holds after the lengths"),
    "a payload one entry long": (
        ranked_bytes(*GOOD) + bytes(8),
        "payload length mismatch: header declares 3 orders of 5 int64 entries in all "
        "(40 bytes), file holds 48 bytes after the header"),
    "a payload one byte long": (
        ranked_bytes(*GOOD) + b"\n",
        "payload length mismatch: header declares 3 orders of 5 int64 entries in all "
        "(40 bytes), file holds 41 bytes after the header"),
    "a negative length": (
        ranked_bytes(3, (b"Q", b"G"), [2, -1, 4], [5, 1, 0, 4, 2]),
        "query 1: negative order length -1"),
    "a negative length after a long one": (
        ranked_bytes(3, (b"Q", b"G"), [9, 0, -2 ** 63], [5, 1, 0, 4, 2]),
        "query 2: negative order length -9223372036854775808"),
    "other roles": (ranked_bytes(3, (b"VQ", b"VG"), [2, 0, 3], [5, 1, 0, 4, 2]),
                    "ranked with --query-role VQ --gallery-role VG, but eval got "
                    "--query-role Q --gallery-role G"),
    "one role swapped": (ranked_bytes(3, (b"Q", b"VG"), [2, 0, 3], [5, 1, 0, 4, 2]),
                         "ranked with --query-role Q --gallery-role VG, but eval got "
                         "--query-role Q --gallery-role G"),
}


class TestRankedFileFaults:
    """Every fault in a ranked file raises one plain ValueError naming the
    file, and the query where there is one."""

    def test_a_well_formed_file_reads(self, tmp_path):
        path = tmp_path / "ranked.csv"
        path.write_bytes(ranked_bytes(*GOOD))
        assert [rl.order.tolist() for rl in read_ranked_csv(path, ("Q", "G"))] == \
               [[5, 1], [], [0, 4, 2]]

    @pytest.mark.parametrize("name", sorted(RANKED_FAULTS))
    def test_a_fault_is_one_value_error(self, tmp_path, name):
        data, fault = RANKED_FAULTS[name]
        path = tmp_path / "ranked.csv"
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read_ranked_csv(path, ("Q", "G"))
        assert type(info.value) is ValueError
        assert str(info.value) == f"{path}: {fault}"

    @pytest.mark.parametrize("size", range(len(ranked_bytes(*GOOD))))
    def test_every_cut_of_a_file_is_one_value_error(self, tmp_path, size):
        path = tmp_path / "ranked.csv"
        path.write_bytes(ranked_bytes(*GOOD)[:size])
        with pytest.raises(ValueError) as info:
            read_ranked_csv(path)
        assert type(info.value) is ValueError
        assert str(info.value).startswith(f"{path}: ")
        # A cut in the orders names the first query it cuts.
        if size > 36:
            query = 0 if size < 52 else 2
            assert str(info.value).startswith(f"{path}: query {query}: ")

    def test_roles_are_checked_only_when_given(self, tmp_path):
        path = tmp_path / "ranked.csv"
        path.write_bytes(RANKED_FAULTS["other roles"][0])
        assert [rl.order.tolist() for rl in read_ranked_csv(path)] == [[5, 1], [], [0, 4, 2]]
