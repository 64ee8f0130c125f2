"""Distance, candidate mining and pair-set tests with scalar-loop oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import PeakMemory, random_bundle, stable_order, top_orders, train_bundle
from rvrank import datastore, retrieval
from rvrank.datastore import build_bundle
from rvrank.retrieval import (
    PAIR_DTYPE,
    DistanceRows,
    PairSet,
    build_eval_pairs,
    build_train_pairs,
    candidates_from_pairs,
    distance_matrix,
    eligible_mask,
    masked_orders,
    query_runs,
    read_pairs_csv,
    top_candidates,
    write_pairs_csv,
)
from rvrank.synthgen import SynthConfig, generate


def scalar_euclidean(q, g):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(q, g)))


def scalar_cosine(q, g):
    nq = math.sqrt(sum(a * a for a in q))
    ng = math.sqrt(sum(b * b for b in g))
    dot = sum(a * b for a, b in zip(q, g))
    return 1.0 - dot / max(nq * ng, 1e-12)


class TestDistanceMatrix:
    def test_identical_single_vectors(self):
        d = distance_matrix(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(d, [[0.0]], atol=1e-12)

    def test_unit_axes_are_sqrt_two_apart(self):
        d = distance_matrix(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(d, [[math.sqrt(2.0)]], rtol=1e-15)

    @pytest.mark.parametrize("metric,oracle",
                             [("euclidean", scalar_euclidean),
                              ("cosine", scalar_cosine)])
    def test_matches_scalar_loop_oracle(self, metric, oracle):
        rng = np.random.default_rng(7)
        q = rng.normal(size=(5, 4))
        g = rng.normal(size=(7, 4))
        got = distance_matrix(q, g, metric)
        want = np.array([[oracle(qr, gr) for gr in g] for qr in q])
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_self_distance_is_zero(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 9))
        d = distance_matrix(x, x)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-6)

    def test_cosine_guards_zero_vectors(self):
        d = distance_matrix(np.zeros((1, 3)), np.ones((1, 3)), "cosine")
        assert np.isfinite(d).all()
        np.testing.assert_allclose(d, [[1.0]])

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError, match="metric"):
            distance_matrix(np.zeros((1, 2)), np.zeros((1, 2)), "manhattan")


def one_shot_distances(q, g, metric):
    """``distance_matrix`` as one expression over whole matrices."""
    q, g = np.asarray(q, dtype=np.float64), np.asarray(g, dtype=np.float64)
    if metric == "euclidean":
        sq = (q * q).sum(axis=1)[:, None] + (g * g).sum(axis=1)[None, :] - 2.0 * (q @ g.T)
        return np.sqrt(np.maximum(sq, 0.0))
    denom = np.maximum(np.linalg.norm(q, axis=1)[:, None] * np.linalg.norm(g, axis=1)[None, :],
                       1e-12)
    return 1.0 - (q @ g.T) / denom


def blocked_one_shot(q, g, metric, block):
    """``one_shot_distances`` of each fixed ``block``-row block of ``q``,
    counted from row 0, against the whole of ``g``."""
    return np.concatenate([one_shot_distances(q[r:r + block], g, metric)
                           for r in range(0, len(q), block)])


class TestDistanceBlocks:
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("n_query, n_gallery", [(1, 9), (1, 1), (23, 23), (23, 40)])
    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_blocks_leave_every_bit_of_the_one_shot_form(self, monkeypatch, metric,
                                                         n_query, n_gallery, block):
        monkeypatch.setattr(retrieval, "DISTANCE_BLOCK", block)
        rng = np.random.default_rng(n_query * 100 + n_gallery)
        q = rng.normal(size=(n_query, 16)).astype(np.float32).astype(np.float64)
        if n_query > 1:
            q[-1] = 0.0  # a zero row: cosine's epsilon guard, and a zero distance
        g = q if n_query == n_gallery else rng.normal(size=(n_gallery, 16))
        got = distance_matrix(q, g, metric)
        assert np.array_equal(got, blocked_one_shot(q, g, metric, block))

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("same", [True, False], ids=["a-against-a", "q-against-g"])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_a_block_aligned_slice_gives_the_rows_of_the_whole(self, monkeypatch, metric,
                                                               same, block):
        monkeypatch.setattr(retrieval, "DISTANCE_BLOCK", block)
        rng = np.random.default_rng(block)
        q = rng.normal(size=(150, 24))
        g = q if same else rng.normal(size=(90, 24))
        whole = distance_matrix(q, g, metric)
        for r0 in range(0, len(q), block):
            assert np.array_equal(distance_matrix(q[r0:r0 + block], g, metric),
                                  whole[r0:r0 + block])

    @pytest.mark.parametrize("zero_diagonal", [False, True])
    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("n_query, n_gallery", [(23, 23), (150, 150), (150, 90)],
                             ids=["a-against-a-in-one-block", "a-against-a", "q-against-g"])
    def test_row_views_give_any_slice_of_the_whole(self, monkeypatch, metric, block,
                                                   zero_diagonal, n_query, n_gallery):
        # With one array as both operands and 23 rows in one block, numpy
        # takes the block as the symmetric a @ a.T, whose bits can differ
        # from the general product's.
        monkeypatch.setattr(retrieval, "DISTANCE_BLOCK", block)
        rng = np.random.default_rng(block)
        q = rng.normal(size=(n_query, 24))
        g = q if n_query == n_gallery else rng.normal(size=(n_gallery, 24))
        whole = distance_matrix(q, g, metric)
        if zero_diagonal:
            np.fill_diagonal(whole, 0.0)
        rows = DistanceRows(q, g, metric, zero_diagonal=zero_diagonal)
        assert rows.shape == (n_query, n_gallery)
        for r0, r1 in [(0, n_query), (0, 1), (3, 10), (20, 23), (63, 65), (64, 128),
                       (100, 149), (128, 150), (149, 200), (20, 20)]:
            assert np.array_equal(rows[r0:r1], whole[r0:r1]), (r0, r1)
            if r0 < min(r1, n_query):
                # Cells on and off the diagonal, finished one by one.
                own = np.arange(r0, min(r1, n_query))
                i = np.concatenate([own, own])
                j = np.concatenate([np.minimum(own, n_gallery - 1),
                                    rng.integers(0, n_gallery, len(own))])
                assert np.array_equal(rows.cells(i, j), whole[i, j]), (r0, r1)
        assert rows.cells(np.empty(0, np.int64), np.empty(0, np.int64)).shape == (0,)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_reading_every_block_holds_one_block(self, metric):
        """Each read writes into the view's one buffer.  Before, each read
        took a new block and, for euclidean, a ``qq + gg`` temporary of the
        same size (tracemalloc: 2.0 blocks at this size)."""
        n = 1000
        a = np.random.default_rng(4).normal(size=(n, 32))
        rows = DistanceRows(a, a, metric, zero_diagonal=True)
        block = retrieval.DISTANCE_BLOCK * n * 8
        with PeakMemory() as peak:
            for r0 in range(0, n, retrieval.DISTANCE_BLOCK):
                rows[r0:r0 + retrieval.DISTANCE_BLOCK]
                own = np.arange(r0, min(r0 + retrieval.DISTANCE_BLOCK, n))
                rows.cells(own, own[::-1])
        assert peak.bytes < 1.1 * block, f"{peak.bytes / block:.2f} blocks"

    def test_a_read_holds_until_the_next_and_the_view_is_not_iterable(self):
        a = np.random.default_rng(5).normal(size=(150, 8))
        rows = DistanceRows(a, a)
        first = rows[0:64]
        assert np.shares_memory(first, rows[64:128])
        with pytest.raises(TypeError, match="not iterable"):
            iter(rows)

    def test_row_views_take_contiguous_slices_and_known_metrics(self):
        a = np.zeros((3, 2))
        with pytest.raises(ValueError, match="step"):
            DistanceRows(a, a)[::2]
        with pytest.raises(ValueError, match="manhattan"):
            DistanceRows(a, a, "manhattan")

    def test_sorted_unique_is_np_unique(self):
        rng = np.random.default_rng(6)
        for values in (np.empty(0, np.int64), np.array([3]), rng.integers(-5, 40, 300)):
            assert np.array_equal(retrieval.sorted_unique(values), np.unique(values))

    def test_peak_memory_stays_near_one_matrix(self):
        """Before the in-place tail, ``qq + gg - 2.0 * (q @ g.T)`` and a
        second array for ``sqrt`` peaked at 2.0 n² float64 values
        (tracemalloc, n = 1,000)."""
        n = 1000
        a = np.random.default_rng(3).normal(size=(n, 32))
        with PeakMemory() as peak:
            distance_matrix(a, a)
        assert peak.bytes < 1.25 * n * n * 8


class TestEligibility:
    def test_same_identity_same_cloth_is_excluded(self):
        feats = np.zeros((4, 2), dtype=np.float32)
        rows = [(0, "Q", 1, 0, 0),
                (0, "G", 1, 0, 1),   # same identity, same cloth: out
                (1, "G", 1, 1, 2),   # same identity, new cloth: in
                (2, "G", 2, 0, 3)]   # different identity: in
        bundle = build_bundle(rows, feats)
        queries = bundle.splits["Q"]
        gallery = bundle.splits["G"]
        assert eligible_mask(queries, gallery).tolist() == [[False, True, True]]
        [indices] = top_candidates(queries, gallery, 20)
        assert len(indices) == 2
        assert set(indices.tolist()) == {1, 2}

    def test_top_one_matches_full_sort_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            bundle = random_bundle(rng, n_query=3, n_gallery=10)
            queries, gallery = bundle.splits["Q"], bundle.splits["G"]
            dist = distance_matrix(queries.features, gallery.features)
            lists = top_candidates(queries, gallery, 1)
            for qi, query in enumerate(queries):
                best, best_j = None, None
                for j, rec in enumerate(gallery):
                    if rec.identity == query.identity and rec.cloth == query.cloth:
                        continue
                    if best is None or dist[qi, j] < best:
                        best, best_j = dist[qi, j], j
                assert lists[qi].tolist() == [best_j]

    def test_candidates_come_in_ascending_distance(self):
        rng = np.random.default_rng(18)
        bundle = random_bundle(rng, n_query=2, n_gallery=8)
        queries, gallery = bundle.splits["Q"], bundle.splits["G"]
        dist = distance_matrix(queries.features, gallery.features)
        for qi, indices in enumerate(top_candidates(queries, gallery, 5)):
            assert len(indices) == 5
            assert dist[qi, indices].tolist() == sorted(dist[qi, indices].tolist())

    def test_distance_ties_break_to_lower_gallery_index(self):
        feats = np.array([[0.0, 0.0],
                          [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        rows = [(0, "Q", 0, 0, 0),
                (0, "G", 1, 0, 0), (1, "G", 2, 0, 0), (2, "G", 3, 0, 0)]
        bundle = build_bundle(rows, feats)
        [indices] = top_candidates(bundle.splits["Q"], bundle.splits["G"], 3)
        assert indices.tolist() == [0, 1, 2]

    def test_empty_gallery_raises(self):
        feats = np.zeros((1, 2), dtype=np.float32)
        bundle = build_bundle([(0, "Q", 1, 0, 0)], feats)
        with pytest.raises(ValueError, match="empty gallery"):
            top_candidates(bundle.splits["Q"], bundle.splits["G"], 5)


def lattice_block(rng, rows, n, specials=()):
    """A (rows, n) block on an integer lattice, so ties are frequent, with
    about a third of its cells replaced by ``specials`` when given."""
    block = rng.integers(0, 4, size=(rows, n)).astype(np.float64)
    if len(specials):
        odd = rng.random(block.shape) < 0.3
        block[odd] = rng.choice(np.array(specials), int(odd.sum()))
    return block


SPECIALS = (np.inf, -np.inf, np.nan, -0.0, 0.0)


class TestSelection:
    """``masked_orders`` gives, for every row of a block, the stable sort
    of its allowed entries through one unstable argsort and a repair of its
    ties; the top-P kernel ``mine_block`` (read through ``top_orders``)
    gives its first ``limit`` entries through one partition."""

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("specials", [(), SPECIALS])
    def test_matches_a_stable_sort_of_the_allowed_entries(self, rows, specials):
        rng = np.random.default_rng(19 + rows)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            block = lattice_block(rng, rows, n, specials)
            allowed = rng.random((rows, n)) < rng.random()
            got = masked_orders(block, allowed)
            assert len(got) == rows
            assert [order.tolist() for order in got] == [
                stable_order(row, ok) for row, ok in zip(block, allowed)]
            assert all(order.dtype == np.intp for order in got)
            for limit in (1, 2, 5, n, n + 3):
                got = top_orders(block, allowed, limit)
                assert [order.tolist() for order in got] == [
                    stable_order(row, ok, limit) for row, ok in zip(block, allowed)]
                assert all(order.dtype == np.intp for order in got)

    def test_full_orders_repair_ties_to_the_lower_index(self):
        # Long runs of equal values, which numpy's default argsort leaves
        # in no fixed order.
        rng = np.random.default_rng(20)
        block = rng.integers(0, 3, size=(64, 600)).astype(np.float64)
        block[:, ::7] = np.nan
        block[:, 1::11] = -0.0
        allowed = rng.random(block.shape) < 0.9
        assert [order.tolist() for order in masked_orders(block, allowed)] == [
            stable_order(row, ok) for row, ok in zip(block, allowed)]

    def test_a_limited_order_owns_its_memory(self):
        # A top-P list must not keep the block's sorted rows alive: the
        # kernel's columns are arrays of their own.
        block = np.random.default_rng(23).random((7, 50))
        allowed = np.ones(block.shape, dtype=bool)
        allowed[:, ::3] = False
        full = masked_orders(block, allowed)
        for limit in (1, 5, 40):
            _, columns = retrieval.mine_block(block, slice(0, 7), lambda rows: [allowed], limit)
            assert all(column.base is None for column in columns)
            for kept, whole in zip(top_orders(block, allowed, limit), full):
                assert kept.tolist() == whole[:limit].tolist()

    def test_ties_across_the_cut_keep_the_full_sort_order(self):
        assert top_orders(np.array([[0.5, 0.2, 0.5, 0.5, 0.1]]),
                          np.ones((1, 5), dtype=bool), 3)[0].tolist() == [4, 1, 0]
        rng = np.random.default_rng(41)
        ties_at_cut = 0
        for _ in range(300):
            n = int(rng.integers(2, 40))
            row = np.round(rng.random(n), 1)
            allowed = rng.random(n) < 0.8
            full = stable_order(row, allowed)
            for limit in range(1, len(full)):
                ties_at_cut += row[full[limit - 1]] == row[full[limit]]
                [got] = top_orders(row[None], allowed[None], limit)
                assert got.tolist() == full[:limit]
        assert ties_at_cut > 1000

    def test_inf_and_nan_entries_sort_as_the_full_sort_puts_them(self):
        # An allowed inf still ranks before a NaN; a NaN cut keeps them all.
        block = np.array([[np.nan, np.inf, 1.0, np.nan, np.inf],
                          [np.nan, np.nan, np.nan, 2.0, np.nan],
                          [0.0, -0.0, -np.inf, 0.0, np.inf]])
        allowed = np.array([[True, True, False, True, True],
                            [True, True, False, True, True],
                            [True, True, True, False, True]])
        assert [o.tolist() for o in top_orders(block, allowed, 2)] == \
               [[1, 4], [3, 0], [2, 0]]
        assert [o.tolist() for o in top_orders(block, allowed, 3)] == \
               [[1, 4, 0], [3, 0, 1], [2, 0, 1]]
        assert [o.tolist() for o in masked_orders(block, allowed)] == \
               [[1, 4, 0, 3], [3, 0, 1, 4], [2, 0, 1, 4]]

    def test_an_all_false_mask_selects_nothing(self):
        block = np.random.default_rng(43).random((3, 12))
        allowed = np.ones(block.shape, dtype=bool)
        allowed[1] = False
        got = masked_orders(block, allowed)
        assert got[1].tolist() == [] and len(got[0]) == len(got[2]) == 12
        assert masked_orders(block[:0], allowed[:0]) == []
        for limit in (1, 5, 12, 20):
            got = top_orders(block, allowed, limit)
            assert got[1].tolist() == []
            assert len(got[0]) == len(got[2]) == min(12, limit)
            assert top_orders(block[:0], allowed[:0], limit) == []

    def test_a_limit_at_or_above_the_eligible_count_keeps_every_entry(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            block = np.round(rng.random((3, n)), 1)
            allowed = rng.random((3, n)) < 0.6
            eligible = int(allowed.sum(axis=1).max())
            for limit in (eligible, eligible + 1, eligible + 10):
                for row, ok, kept in zip(block, allowed, top_orders(block, allowed, limit)):
                    assert kept.tolist() == stable_order(row, ok)


class TestEvalPairs:
    def test_labels_follow_identity(self):
        feats = np.array([[0.0, 0.0], [0.1, 0.0], [0.9, 0.0]], dtype=np.float32)
        rows = [(0, "Q", 1, 0, 0), (0, "G", 1, 1, 1), (1, "G", 2, 0, 2)]
        bundle = build_bundle(rows, feats)
        pair_set = build_eval_pairs(bundle, "Q", "G", num_candidates=5)
        assert pair_set.pairs.dtype == PAIR_DTYPE
        assert pair_set.pairs[["rank", "cand_index", "label"]].tolist() == \
               [(1, 0, 1), (2, 1, 0)]
        assert set(pair_set.pairs[["query_role", "cand_role"]].tolist()) == {("Q", "G")}

    def test_pair_count_matches_per_query_eligibility(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            p = int(rng.integers(1, 8))
            bundle = random_bundle(rng, n_query=4, n_gallery=11)
            pair_set = build_eval_pairs(bundle, "Q", "G", num_candidates=p)
            want = 0
            for q in bundle.splits["Q"]:
                eligible = sum(1 for g in bundle.splits["G"]
                               if not (g.identity == q.identity and g.cloth == q.cloth))
                want += min(p, eligible)
            assert len(pair_set.pairs) == want

    def test_validation_pairs_are_tagged_valid(self):
        rng = np.random.default_rng(28)
        bundle = random_bundle(rng, n_query=2, n_gallery=6)
        bundle.splits["VQ"] = bundle.splits.pop("Q")
        bundle.splits["VG"] = bundle.splits.pop("G")
        bundle.splits["Q"] = bundle.splits["VQ"][0:0]
        bundle.splits["G"] = bundle.splits["VG"][0:0]
        pair_set = build_eval_pairs(bundle, "VQ", "VG")
        assert len(pair_set.pairs) > 0
        assert set(pair_set.pairs[["query_role", "cand_role"]].tolist()) == {("VQ", "VG")}

    @pytest.mark.parametrize("P", [0, -1])
    def test_a_depth_below_one_is_rejected(self, P):
        bundle = random_bundle(np.random.default_rng(30))
        with pytest.raises(ValueError, match=f"num_candidates must be >= 1, got {P}"):
            build_eval_pairs(bundle, "Q", "G", P)
        # An empty gallery is named by its role first.
        with pytest.raises(ValueError, match="empty gallery: role VG holds no images"):
            build_eval_pairs(bundle, "Q", "VG", P)

    def test_an_empty_query_role_gives_no_pairs(self):
        bundle = random_bundle(np.random.default_rng(31))
        pair_set = build_eval_pairs(bundle, "VQ", "G", 5)
        assert pair_set.pairs.dtype == PAIR_DTYPE and len(pair_set.pairs) == 0

    def test_candidates_from_pairs_round_trips_lists(self):
        rng = np.random.default_rng(29)
        bundle = random_bundle(rng, n_query=3, n_gallery=9)
        direct = top_candidates(bundle.splits["Q"], bundle.splits["G"], 4)
        via_pairs = candidates_from_pairs(build_eval_pairs(bundle, "Q", "G", 4))
        assert list(via_pairs) == list(range(len(direct)))
        for qi, indices in enumerate(direct):
            assert via_pairs[qi].tolist() == indices.tolist()
        # Every distance ties, and query 1 shares identity and cloth with
        # the whole gallery: its list is empty, in its own place.
        rows = [(0, "Q", 2, 0, 0), (1, "Q", 1, 0, 0), (2, "Q", 1, 1, 0),
                *[(i, "G", 1, 0, 1) for i in range(4)]]
        bundle = build_bundle(rows, np.ones((7, 3)))
        queries, gallery = bundle.splits["Q"], bundle.splits["G"]
        direct = top_candidates(queries, gallery, 3)
        assert [indices.tolist() for indices in direct] == [[0, 1, 2], [], [0, 1, 2]]
        via_pairs = candidates_from_pairs(build_eval_pairs(bundle, "Q", "G", 3))
        assert list(via_pairs) == [0, 2]
        assert all(via_pairs[qi].tolist() == direct[qi].tolist() for qi in via_pairs)
        # No query, no list: a split of the empty column at no point would
        # still give one.
        assert top_candidates(queries[0:0], gallery, 3) == []


class TestTrainPairs:
    def test_positive_and_negative_selection(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            bundle = train_bundle(rng, n_identities=4, n_cloths=3)
            train = bundle.splits["T"]
            pair_set, dropped = build_train_pairs(bundle, num_candidates=5)
            assert dropped == []
            assert set(pair_set.pairs[["query_role", "cand_role"]].tolist()) == {("T", "T")}
            columns = pair_set.pairs[["query_index", "cand_index", "label"]]
            for ai, ci, label in columns.tolist():
                anchor, other = train[ai], train[ci]
                assert ci != ai
                if label == 1:
                    assert other.identity == anchor.identity
                    assert other.cloth != anchor.cloth
                else:
                    assert other.identity != anchor.identity

    def test_pairs_take_nearest_candidates(self):
        rng = np.random.default_rng(38)
        bundle = train_bundle(rng, n_identities=5, n_cloths=3, images_per_cloth=2)
        train = bundle.splits["T"]
        dist = distance_matrix(train.features, train.features)
        pair_set, _ = build_train_pairs(bundle, num_candidates=3)
        pairs = pair_set.pairs
        for ai in np.unique(pairs["query_index"]).tolist():
            anchor = train[ai]
            rows = pairs[pairs["query_index"] == ai]
            assert rows["rank"].tolist() == \
                   [*range(1, (rows["label"] == 1).sum() + 1),
                    *range(1, (rows["label"] == 0).sum() + 1)]
            negs = rows["cand_index"][rows["label"] == 0].tolist()
            want = sorted((j for j in range(len(train))
                           if train[j].identity != anchor.identity),
                          key=lambda j: (dist[ai, j], j))[:3]
            assert negs == want
            poss = rows["cand_index"][rows["label"] == 1].tolist()
            want = sorted((j for j in range(len(train))
                           if train[j].identity == anchor.identity
                           and train[j].cloth != anchor.cloth),
                          key=lambda j: (dist[ai, j], j))[:3]
            assert poss == want

    def test_single_cloth_anchor_is_dropped_and_reported(self):
        # identity 0 has one cloth only: no valid positives anywhere
        feats = np.arange(12, dtype=np.float32).reshape(6, 2)
        rows = [(0, "T", 0, 0, 0), (1, "T", 0, 0, 1),
                (2, "T", 1, 0, 0), (3, "T", 1, 1, 0),
                (4, "T", 2, 0, 0), (5, "T", 2, 1, 0)]
        bundle = build_bundle(rows, feats)
        pair_set, dropped = build_train_pairs(bundle, num_candidates=4)
        assert dropped == [0, 1]
        assert set(pair_set.pairs["query_index"].tolist()) == {2, 3, 4, 5}

    def test_lonely_dataset_drops_everything(self):
        feats = np.zeros((2, 2), dtype=np.float32)
        rows = [(0, "T", 0, 0, 0), (1, "T", 0, 1, 0)]
        bundle = build_bundle(rows, feats)
        pair_set, dropped = build_train_pairs(bundle)
        assert pair_set.pairs.dtype == PAIR_DTYPE
        assert len(pair_set.pairs) == 0 and dropped == [0, 1]

    @pytest.mark.parametrize("P", [0, -1])
    def test_a_depth_below_one_is_rejected(self, P):
        bundle = train_bundle(np.random.default_rng(40), n_identities=3, n_cloths=2)
        with pytest.raises(ValueError, match=f"num_candidates must be >= 1, got {P}"):
            build_train_pairs(bundle, num_candidates=P)

    def test_train_pair_counts(self):
        rng = np.random.default_rng(39)
        bundle = train_bundle(rng, n_identities=3, n_cloths=2, images_per_cloth=2)
        pair_set, dropped = build_train_pairs(bundle, num_candidates=20)
        # 12 anchors, each with 2 same-id-other-cloth positives and 8 negatives
        assert dropped == []
        assert len(pair_set.pairs) == 12 * (2 + 8)
        assert set(pair_set.pairs[["query_role", "cand_role"]].tolist()) == {("T", "T")}


def mining_bundle(rng, n=150, d=12):
    """A train-split bundle of ``n`` images (150 is no multiple of 7 or 64)
    with repeated feature rows (distance ties) and one identity of a single
    cloth, whose anchors have no positive and are dropped."""
    identity, cloth = rng.integers(0, 12, n), rng.integers(0, 3, n)
    identity[:5], cloth[:5] = 12, 0
    feats = rng.normal(size=(n, d)).astype(np.float32)
    feats[1::10] = feats[::10]
    rows = [(i, "T", int(a), int(c), 0) for i, (a, c) in enumerate(zip(identity, cloth))]
    return build_bundle(rows, feats)


def tied_eval_bundle(rng, n_query=150, n_gallery=90, d=12):
    """A Q/G bundle (150 queries: no multiple of 7 or 64) whose gallery
    repeats every tenth feature row, so equal distances fall at the cut."""
    labels = rng.integers(0, [[8], [3]], size=(2, n_query + n_gallery))
    feats = rng.normal(size=(n_query + n_gallery, d))
    feats[n_query + 1::10] = feats[n_query::10]
    rows = [(i, "Q", int(a), int(c), 0) for i, (a, c) in enumerate(labels[:, :n_query].T)]
    rows += [(i, "G", int(a), int(c), 0) for i, (a, c) in enumerate(labels[:, n_query:].T)]
    return build_bundle(rows, feats)


class TestMiningByBlocks:
    """The consumers take ``distance_matrix``'s rows one fixed block at a
    time; their lists must be those of the rows of the whole matrix."""

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_train_pairs_are_those_of_the_whole_matrix(self, monkeypatch, metric, block):
        monkeypatch.setattr(retrieval, "DISTANCE_BLOCK", block)
        bundle = mining_bundle(np.random.default_rng(block))
        train = bundle.splits["T"]
        feats = train.features.astype(np.float64)
        want, want_dropped = [], []
        for ai, row in enumerate(distance_matrix(feats, feats, metric)):
            same = train.identity == train.identity[ai]
            masks = ((1, same & (train.cloth != train.cloth[ai])), (0, ~same))
            if not all(mask.any() for _, mask in masks):
                want_dropped.append(ai)
                continue
            want += [("T", ai, rank, "T", ci, label) for label, mask in masks
                     for rank, ci in enumerate(stable_order(row, mask, 6), 1)]
        pair_set, dropped = build_train_pairs(bundle, num_candidates=6, metric=metric)
        assert want_dropped[:5] == [0, 1, 2, 3, 4]
        assert dropped == want_dropped
        assert pair_set.pairs.tolist() == want

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_top_candidates_are_those_of_the_whole_matrix(self, monkeypatch, metric, block):
        monkeypatch.setattr(retrieval, "DISTANCE_BLOCK", block)
        bundle = random_bundle(np.random.default_rng(block), n_query=150, n_gallery=90,
                               n_identities=8, dims=(12, 4, 5))
        queries, gallery = bundle.splits["Q"], bundle.splits["G"]
        whole = distance_matrix(queries.features, gallery.features, metric)
        want = [stable_order(row, ok, 10)
                for row, ok in zip(whole, eligible_mask(queries, gallery))]
        got = top_candidates(queries, gallery, 10, metric)
        assert [order.tolist() for order in got] == want

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_eval_pairs_are_those_of_the_whole_matrix(self, monkeypatch, metric, block):
        monkeypatch.setattr(retrieval, "DISTANCE_BLOCK", block)
        bundle = tied_eval_bundle(np.random.default_rng(block))
        queries, gallery = bundle.splits["Q"], bundle.splits["G"]
        whole = distance_matrix(queries.features, gallery.features, metric)
        want, tied_at_cut = [], 0
        for qi, (row, ok) in enumerate(zip(whole, eligible_mask(queries, gallery))):
            order = stable_order(row, ok)
            tied_at_cut += row[order[9]] == row[order[10]]
            want += [("Q", qi, rank, "G", gi, int(gallery.identity[gi] == queries.identity[qi]))
                     for rank, gi in enumerate(order[:10], 1)]
        assert tied_at_cut
        got = build_eval_pairs(bundle, "Q", "G", 10, metric)
        assert got.pairs.tolist() == want

    def test_top_candidates_never_hold_the_whole_mask(self):
        """The eligibility mask is taken a block of queries at a time, by
        ``top_candidates`` and ``build_eval_pairs`` alike; ``eligible_mask``
        over every query peaked at two bools a cell."""
        rng = np.random.default_rng(4)
        n_query, n_gallery = 4000, 4000
        identity = rng.integers(0, 50, size=n_query + n_gallery)
        rows = [(i, "Q", int(identity[i]), 0, 0) for i in range(n_query)]
        rows += [(i, "G", int(identity[n_query + i]), 0, 0) for i in range(n_gallery)]
        bundle = build_bundle(rows, rng.normal(size=(n_query + n_gallery, 2)))
        for select in (lambda: top_candidates(bundle.splits["Q"], bundle.splits["G"], 5),
                       lambda: build_eval_pairs(bundle, "Q", "G", 5)):
            with PeakMemory() as peak:
                select()
            assert peak.bytes < 0.5 * n_query * n_gallery

    def test_mining_peaks_far_below_one_train_matrix(self):
        """Mining from the whole T x T float64 matrix peaked above
        1.0 T² x 8 bytes."""
        bundle, _ = generate(SynthConfig(n_identities=500, clothes_per_identity=4,
                                         images_per_cloth=2))
        t = len(bundle.splits["T"])
        assert t == 2000
        with PeakMemory() as peak:
            build_train_pairs(bundle)
        assert peak.bytes < 0.25 * t * t * 8

    def test_mining_peaks_near_its_pair_rows(self, monkeypatch):
        """Each block of anchors leaves flat columns, three int64 and a bool
        (25 bytes a pair), copied once into the pair array; beside those,
        mining holds the float64 features and one block of 8 anchors here.
        Before, per-anchor arrays and their concatenations peaked at 321 KB
        here, 63 bytes a pair above the pair array."""
        monkeypatch.setattr(retrieval, "DISTANCE_BLOCK", 8)
        bundle, _ = generate(SynthConfig(n_identities=40, seed=1))
        n = len(bundle.splits["T"])
        with PeakMemory() as peak:
            pair_set, _ = build_train_pairs(bundle, num_candidates=20)
        rows = len(pair_set.pairs)
        assert rows == 2880
        block = retrieval.DISTANCE_BLOCK * n * 8
        assert peak.bytes < ((PAIR_DTYPE.itemsize + 25) * rows + n * bundle.dims[0] * 8
                             + 4 * block)


class TestPairsCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(47)
        bundle = random_bundle(rng, n_query=3, n_gallery=8)
        pair_set = build_eval_pairs(bundle, "Q", "G", 5)
        path = tmp_path / "pairs.csv"
        write_pairs_csv(path, pair_set, config_comment="config: {}")
        back = read_pairs_csv(path)
        assert back.pairs.dtype == PAIR_DTYPE
        assert back.pairs.tolist() == pair_set.pairs.tolist()

    def test_the_write_holds_a_few_blocks_beyond_its_pairs(self, tmp_path):
        """``rvrank pairs`` writes 84,000 train pairs at 500 identities.
        The text check holds a few one-bool-a-character temporaries of one
        block (about 4 x ``BLOCK_BYTES``), the formatting far less.  Before,
        the writer formatted 65,536-row pieces, 5.9 MB of temporaries here,
        and that write set the command's peak RSS."""
        row = np.arange(84_000)
        pairs = np.zeros(len(row), dtype=PAIR_DTYPE)
        pairs["query_role"] = pairs["cand_role"] = "T"
        # 28 pairs for each of 3,000 anchors, as there.
        pairs["query_index"], pairs["rank"] = row // 28, row % 28 + 1
        pairs["cand_index"], pairs["label"] = row % 2_999, row % 3 == 0
        with PeakMemory() as peak:
            write_pairs_csv(tmp_path / "p.csv", PairSet(pairs))
        assert peak.bytes < 6 * datastore.BLOCK_BYTES
        assert read_pairs_csv(tmp_path / "p.csv").pairs.tolist() == pairs.tolist()

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(48)
        bundle = train_bundle(rng)
        pair_set, _ = build_train_pairs(bundle, 4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_pairs_csv(a, pair_set)
        write_pairs_csv(b, pair_set)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("query_role,query_index\nQ,0\n")
        with pytest.raises(ValueError, match="header"):
            read_pairs_csv(path)

    @pytest.mark.parametrize("row, want", [
        ("X,0,1,G,3,1", "unknown role 'X'"),
        ("Q,0,1,XYZ,3,1", "unknown role 'XYZ'"),
        ("Q,0,1,G,3,2", "label must be 0 or 1, got 2"),
        ("Q,0,1,G,3,-1", "label must be 0 or 1, got -1"),
        (f"Q,{2 ** 63},1,G,3,1", f"'Q,{2 ** 63},1,G,3,1' does not parse as 6 fields"),
        (f"Q,0,1,G,{-2 ** 63 - 1},1", f"'Q,0,1,G,{-2 ** 63 - 1},1' does not parse as 6 fields"),
    ])
    def test_bad_field_values_name_the_file_and_line(self, tmp_path, row, want):
        path = tmp_path / "p.csv"
        path.write_text("# config: {}\nquery_role,query_index,rank,cand_role,"
                        "cand_index,label\nQ,0,1,G,2,0\n" + row + "\n")
        with pytest.raises(ValueError, match=f"p.csv: line 4: {want}"):
            read_pairs_csv(path)


class TestQueryGroups:
    #: (query_role, query_index, rank) per row; queries interleave in file order.
    ROWS = [("Q", 3, 2), ("VQ", 3, 1), ("Q", 1, 1), ("Q", 3, 1), ("Q", 1, 2),
            ("VQ", 3, 1), ("Q", 3, 3)]

    def pairs(self):
        return np.array([(qr, qi, rank, "G", 10 * i, i % 2)
                         for i, (qr, qi, rank) in enumerate(self.ROWS)], dtype=PAIR_DTYPE)

    def test_runs_follow_first_appearance_then_rank_then_file_order(self):
        assert [run.tolist() for run in query_runs(self.pairs())] == \
               [[3, 0, 6], [1, 5], [2, 4]]
        assert query_runs(self.pairs()[:0]) == []

    def test_candidates_are_keyed_on_the_query_index(self):
        pairs = self.pairs()
        only_q = PairSet(pairs[pairs["query_role"] == "Q"])
        got = candidates_from_pairs(only_q)
        assert list(got) == [1, 3]
        assert got[1].tolist() == [20, 40] and got[3].tolist() == [30, 0, 60]
        assert candidates_from_pairs(PairSet(pairs[:0])) == {}
