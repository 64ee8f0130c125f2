"""Window re-ranking, k-reciprocal re-ranking and pipeline tests.

The k-reciprocal comparison uses a deliberately naive dict/set oracle so the
vectorised implementation is checked against an independent reading of the
procedure.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from conftest import oracle_scores, random_bundle
from rvrank import datastore, reranker, verifier
from rvrank.reranker import (
    RANKED_HEADER,
    RankedList,
    RankingConfig,
    kreciprocal_rerank,
    read_ranked_csv,
    rerank_pipeline,
    window_rerank,
    write_ranked_csv,
)
from rvrank.retrieval import build_eval_pairs, candidates_from_pairs, distance_matrix
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
                                     dict(lam=1.5)])
    def test_invalid_values_raise(self, bad):
        with pytest.raises(ValueError):
            RankingConfig(**bad).clamped()


class TestWindowRerank:
    def test_four_entry_example(self):
        # Last-ranked entry scores best but the window only reaches it after
        # emitting the first three: [a, b, c, d] -> [b, c, d, a].
        ranked = window_rerank([0, 1, 2, 3], [0.1, 0.9, 0.5, 0.8], L=2, Q=4)
        assert ranked.order.tolist() == [1, 2, 3, 0]
        assert ranked.order.dtype == np.int64
        assert ranked.provenance == "window"

    def test_width_one_is_the_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 15))
            order = rng.permutation(50)[:n].tolist()
            scores = [float(rng.normal()) for _ in order]
            assert window_rerank(order, scores, 1, max(1, n)).order.tolist() == order

    def test_full_width_sorts_the_depth(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            order = list(range(n))
            scores = [float(rng.normal()) for _ in order]
            got = window_rerank(order, scores, n, n).order.tolist()
            want = sorted(order, key=lambda g: (-scores[g], order.index(g)))
            assert got == want

    def test_suffix_beyond_depth_is_untouched(self):
        rng = np.random.default_rng(7)
        order = rng.permutation(30)
        scores = rng.normal(size=30)
        ranked = window_rerank(order, scores[:10], 3, 10)
        assert np.array_equal(ranked.order[10:], order[10:])
        assert sorted(ranked.order[:10]) == sorted(order[:10])

    def test_ties_keep_the_better_retrieval_rank(self):
        ranked = window_rerank([4, 9, 2], [1.0, 1.0, 1.0], 2, 3)
        assert ranked.order.tolist() == [4, 9, 2]

    def test_decreasing_scores_change_nothing(self):
        order = list(range(8))
        scores = [-float(g) for g in order]
        for width in range(1, 9):
            assert window_rerank(order, scores, width, 8).order.tolist() == order

    def test_promotion_is_bounded_by_the_window(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 25))
            width = int(rng.integers(1, n + 1))
            order = list(rng.permutation(100)[:n])
            scores = [float(rng.normal()) for _ in order]
            got = window_rerank([int(g) for g in order], scores, width, n).order
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
            tops = [frozenset(window_rerank(order, scores[:q], width, q).order[:t].tolist())
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
        tracemalloc.start()
        try:
            kreciprocal_rerank(dist, n // 4, k1=20, k2=6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n float64"

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


class CountingScorer:
    """Callable scorer that tallies invocations per query index."""

    def __init__(self, rng):
        self.table = {}
        self.rng = rng
        self.calls = {}

    def __call__(self, query, cand):
        self.calls[query.index] = self.calls.get(query.index, 0) + 1
        key = (query.index, cand.index)
        if key not in self.table:
            self.table[key] = float(self.rng.normal())
        return self.table[key]


class TestPipeline:
    def test_no_stages_reproduces_retrieval(self):
        rng = np.random.default_rng(23)
        bundle = random_bundle(rng, n_query=4, n_gallery=15)
        ranked = rerank_pipeline(bundle, None, RankingConfig(), stages=())
        pairs = build_eval_pairs(bundle, "Q", "G", num_candidates=15)
        candidates = candidates_from_pairs(pairs)
        for rl in ranked:
            assert rl.provenance == "retrieval"
            assert rl.order.dtype == np.int64
            assert np.array_equal(rl.order, candidates[rl.query_index])

    def test_provenance_labels_per_stage_combination(self):
        rng = np.random.default_rng(24)
        bundle = random_bundle(rng, n_query=3, n_gallery=12)
        model = VerifierModel.initialize(bundle.dims, 6, 6, seed=0)
        cfg = RankingConfig(P=12, L=4, Q=8, k1=3, k2=2)
        combos = {(): "retrieval",
                  ("kreciprocal",): "kreciprocal",
                  ("window",): "window",
                  ("kreciprocal", "window"): "composed"}
        for stages, want in combos.items():
            ranked = rerank_pipeline(bundle, model, cfg, stages=stages)
            assert {rl.provenance for rl in ranked} == {want}

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

    def test_stale_candidates_name_the_query(self):
        rng = np.random.default_rng(29)
        bundle = random_bundle(rng, n_query=3, n_gallery=10)
        pairs = build_eval_pairs(bundle, "Q", "G", num_candidates=5)
        cands = candidates_from_pairs(pairs)
        cands[1][[0, 1]] = cands[1][[1, 0]]
        with pytest.raises(ValueError, match="query 1"):
            rerank_pipeline(bundle, None, RankingConfig(P=5, L=2, Q=4),
                            stages=(), candidates=cands)

    def test_matching_candidates_pass_the_cross_check(self):
        rng = np.random.default_rng(30)
        bundle = random_bundle(rng, n_query=3, n_gallery=10)
        pairs = build_eval_pairs(bundle, "Q", "G", num_candidates=5)
        cands = candidates_from_pairs(pairs)
        ranked = rerank_pipeline(bundle, None, RankingConfig(P=5, L=2, Q=4),
                                 stages=(), candidates=cands)
        assert len(ranked) == 3

    def test_scorer_failure_names_the_query(self):
        rng = np.random.default_rng(31)
        bundle = random_bundle(rng, n_query=3, n_gallery=8)

        def flaky(query, cand):
            if query.index == 2:
                raise KeyError("boom")
            return 0.0

        with pytest.raises(RuntimeError, match="query 2"):
            rerank_pipeline(bundle, flaky, RankingConfig(P=8, L=2, Q=4),
                            stages=("window",))

    def test_model_scores_do_not_depend_on_the_chunking(self, monkeypatch):
        rng = np.random.default_rng(35)
        bundle = random_bundle(rng, n_query=5, n_gallery=14, part_presence=0.4)
        model = VerifierModel.initialize(bundle.dims, 6, 6, seed=6)
        queries, gallery = bundle.splits["Q"], bundle.splits["G"]
        # Orders longer and shorter than the depth of 9.
        orders = [rng.permutation(14)[:n] for n in (14, 9, 5, 12, 0)]
        whole = verifier.prefix_scores(model, bundle.dims, queries, gallery, orders, 9)
        monkeypatch.setattr(verifier, "SCORE_CHUNK", 4)
        chunked = verifier.prefix_scores(model, bundle.dims, queries, gallery, orders, 9)
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
        with pytest.raises(RuntimeError, match="query 0"):
            rerank_pipeline(bundle, model, RankingConfig(P=8, L=2, Q=4),
                            stages=("window",))

    def test_kreciprocal_sorts_no_retrieval_order(self, tmp_path, monkeypatch):
        # Full orders only: k-reciprocal's neighbour lists pass a limit.
        full_orders = []
        real = reranker.masked_order

        def spy(row, allowed, limit=None):
            if limit is None:
                full_orders.append(len(row))
            return real(row, allowed, limit)

        monkeypatch.setattr(reranker, "masked_order", spy)
        rng = np.random.default_rng(38)
        bundle = random_bundle(rng, n_query=4, n_gallery=12)
        cfg = RankingConfig(P=5, L=2, Q=4, k1=4, k2=2)
        cands = candidates_from_pairs(build_eval_pairs(bundle, "Q", "G", num_candidates=5))
        files = []
        for candidates, sorts in ((None, 4), (cands, 8)):
            full_orders.clear()
            ranked = rerank_pipeline(bundle, None, cfg, stages=("kreciprocal",),
                                     candidates=candidates)
            assert len(full_orders) == sorts
            files.append(tmp_path / f"ranked{sorts}.csv")
            write_ranked_csv(files[-1], ranked)
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_model_and_equivalent_callable_agree(self):
        rng = np.random.default_rng(34)
        bundle = random_bundle(rng, n_query=4, n_gallery=12)
        model = VerifierModel.initialize(bundle.dims, 6, 6, seed=4)
        cfg = RankingConfig(P=12, L=3, Q=8)
        via_model = rerank_pipeline(bundle, model, cfg, stages=("window",))
        via_callable = rerank_pipeline(
            bundle, lambda q, g: oracle_scores(model, q, g)[0], cfg,
            stages=("window",))
        assert [rl.order.tolist() for rl in via_model] == \
               [rl.order.tolist() for rl in via_callable]


class TestRankedCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(43)
        bundle = random_bundle(rng, n_query=3, n_gallery=9)
        model = VerifierModel.initialize(bundle.dims, 6, 6, seed=5)
        ranked = rerank_pipeline(bundle, model,
                                 RankingConfig(P=9, L=3, Q=6, k1=3, k2=2))
        path = tmp_path / "ranked.csv"
        write_ranked_csv(path, ranked, config_comment="config: {}")
        back = read_ranked_csv(path)
        assert [(rl.query_index, rl.order.tolist(), rl.provenance) for rl in back] == \
               [(rl.query_index, rl.order.tolist(), rl.provenance) for rl in ranked]
        assert all(rl.order.dtype == np.int64 for rl in back)

    def test_rows_match_the_f_string_form(self, tmp_path):
        ranked = [RankedList(2, np.array([4, 0, 7]), "window"),
                  RankedList(0, np.array([], dtype=np.int64), "window"),
                  RankedList(1, np.array([3, 12345]), "retrieval")]
        path = tmp_path / "ranked.csv"
        for lists in (ranked[:2], ranked, []):
            write_ranked_csv(path, lists)
            assert path.read_text() == ",".join(RANKED_HEADER) + "\n" + "".join(
                f"{rl.query_index},{rank},{gi},{rl.provenance}\n" for rl in lists
                for rank, gi in enumerate(rl.order.tolist(), start=1))

    def test_sparse_ranks_raise(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("query_index,rank,gallery_index,stage_provenance\n"
                        "0,1,5,window\n0,3,6,window\n")
        with pytest.raises(ValueError, match="dense"):
            read_ranked_csv(path)

    def test_mixed_provenance_raises(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("query_index,rank,gallery_index,stage_provenance\n"
                        "0,1,5,window\n0,2,6,retrieval\n")
        with pytest.raises(ValueError):
            read_ranked_csv(path)

    def test_index_beyond_int64_raises(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("query_index,rank,gallery_index,stage_provenance\n"
                        f"0,1,{2**70},window\n")
        with pytest.raises(ValueError, match="does not fit in int64"):
            read_ranked_csv(path)

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("0,1,5,window\n")
        with pytest.raises(ValueError, match="header"):
            read_ranked_csv(path)

    def test_memory_beyond_the_columns_is_fixed(self, tmp_path):
        # 450 queries of 1,347 images: the size of a large benchmark's
        # ranked.csv.  Rows are formatted in blocks, so all but the three
        # int64 columns handed to write_csv (the provenance is one string,
        # broadcast) is bounded whatever the row count; formatting every
        # row at once peaks near 60 MB more.
        rng = np.random.default_rng(48)
        ranked = [RankedList(qi, rng.permutation(1347), "kreciprocal")
                  for qi in range(450)]
        columns = 450 * 1347 * 3 * 8
        tracemalloc.start()
        try:
            write_ranked_csv(tmp_path / "ranked.csv", ranked)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - columns < 16 * 2 ** 20, f"{(peak - columns) / 2 ** 20:.1f} MB"


HEADER = b"query_index,rank,gallery_index,stage_provenance\n"

#: Files both paths of ``read_csv`` must agree on: the byte parser's own
#: input, and every odd or faulty file it must leave to the row path.
READER_CASES = {
    "well formed": HEADER + b"1,1,4,window\n0,2,3,window\n0,1,5,window\n",
    "18 digits": HEADER + b"0,1,999999999999999999,retrieval\n",
    "config comment": b'# config: {"a":"b,c","query_role":"Q"}\n' + HEADER
                      + b"0,1,5,window\n",
    "quotes span lines": b'# config: {"a":1,"b\nc":2}\n' + HEADER + b"0,1,5,window\n",
    "crlf": HEADER.replace(b"\n", b"\r\n") + b"0,1,5,window\r\n0,2,6,window\r\n",
    "quoted field": HEADER + b'0,1,5,"window"\n0,2,6,window\n',
    "blank line": HEADER + b"0,1,5,window\n\n0,2,6,window\n",
    "comment between rows": HEADER + b"0,1,5,window\n# note\n0,2,6,window\n",
    "plus sign": HEADER + b"0,+1,5,window\n",
    "leading space": HEADER + b"0, 1,5,window\n",
    "leading zeros": HEADER + b"0,001,007,window\n",
    "negative index": HEADER + b"-1,1,5,window\n",
    "19 digits": HEADER + b"0,1,9223372036854775807,window\n",
    "2**70": HEADER + b"0,1,%d,window\n" % 2**70,
    "no trailing newline": HEADER + b"0,1,5,window\n0,2,6,window",
    "truncated last row": HEADER + b"0,1,5,window\n0,2,6\n",
    "extra field": HEADER + b"0,1,5,window\n0,2,6,window,9\n",
    "a field moved to the next line": HEADER + b"1,2,3,w,1\n2,3,w\n",
    "nul byte": HEADER + b"0,1,5,win\0dow\n",
    "non-ascii token": HEADER + "0,1,5,w\u00efndow\n".encode(),
    "mixed provenance": HEADER + b"0,1,5,window\n0,2,6,retrieval\n",
    "same-width provenance": HEADER + b"0,1,5,window\n0,2,6,wind0w\n",
    "sparse ranks": HEADER + b"0,1,5,window\n0,3,6,window\n",
    "header only": HEADER,
    "empty file": b"",
}


def read_outcome(path):
    """What read_ranked_csv makes of a file: its rankings or its error."""
    try:
        return [(rl.query_index, rl.order.tolist(), rl.provenance)
                for rl in read_ranked_csv(path)]
    except Exception as exc:
        return type(exc), str(exc)


class TestRankedCsvFastPath:
    @pytest.mark.parametrize("name", sorted(READER_CASES))
    def test_fast_parser_agrees_with_the_row_reader(self, tmp_path, monkeypatch, name):
        path = tmp_path / "ranked.csv"
        path.write_bytes(READER_CASES[name])
        shipped = read_outcome(path)
        monkeypatch.setattr(datastore, "_parse_bytes", lambda *args: None)
        assert read_outcome(path) == shipped

    def test_written_files_never_take_the_row_reader(self, tmp_path, monkeypatch):
        def row_reader(*args, **kwargs):
            raise AssertionError("a written ranked.csv took the row path")

        monkeypatch.setattr(datastore, "_read_rows", row_reader)
        rng = np.random.default_rng(47)
        bundle = random_bundle(rng, n_query=3, n_gallery=9)
        model = VerifierModel.initialize(bundle.dims, 6, 6, seed=5)
        path = tmp_path / "ranked.csv"
        cfg = RankingConfig(P=9, L=3, Q=6, k1=3, k2=2)
        for stages in ((), ("kreciprocal",), ("window",), ("kreciprocal", "window")):
            ranked = rerank_pipeline(bundle, model, cfg, stages=stages)
            write_ranked_csv(path, ranked,
                             config_comment='config: {"out":"a, \\"b\\"","query_role":"Q"}')
            assert [(rl.query_index, rl.order.tolist(), rl.provenance)
                    for rl in read_ranked_csv(path)] == \
                   [(rl.query_index, rl.order.tolist(), rl.provenance) for rl in ranked]
