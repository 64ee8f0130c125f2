"""Distance, candidate mining and pair-set tests with scalar-loop oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import random_bundle, train_bundle
from rvrank import datastore
from rvrank.cli import main
from rvrank.datastore import build_bundle
from rvrank.retrieval import (
    PAIR_DTYPE,
    PairSet,
    build_eval_pairs,
    build_train_pairs,
    candidates_from_pairs,
    distance_matrix,
    eligible_mask,
    masked_order,
    query_runs,
    read_pairs_csv,
    top_candidates,
    write_pairs_csv,
)


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
        [(indices, scores)] = top_candidates(queries, gallery, 20)
        assert len(indices) == len(scores) == 2
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
                assert lists[qi][0].tolist() == [best_j]

    def test_scores_are_negated_distances_in_descending_order(self):
        rng = np.random.default_rng(18)
        bundle = random_bundle(rng, n_query=2, n_gallery=8)
        queries, gallery = bundle.splits["Q"], bundle.splits["G"]
        dist = distance_matrix(queries.features, gallery.features)
        for qi, (indices, scores) in enumerate(top_candidates(queries, gallery, 5)):
            assert scores.tolist() == sorted(scores.tolist(), reverse=True)
            for gi, score in zip(indices, scores):
                np.testing.assert_allclose(score, -dist[qi, gi])

    def test_distance_ties_break_to_lower_gallery_index(self):
        feats = np.array([[0.0, 0.0],
                          [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        rows = [(0, "Q", 0, 0, 0),
                (0, "G", 1, 0, 0), (1, "G", 2, 0, 0), (2, "G", 3, 0, 0)]
        bundle = build_bundle(rows, feats)
        [(indices, _)] = top_candidates(bundle.splits["Q"], bundle.splits["G"], 3)
        assert indices.tolist() == [0, 1, 2]

    def test_masked_order_matches_a_masked_full_sort(self):
        # The reference: masked entries set to inf, one stable sort, cut at
        # min(limit, allowed); rounded rows make ties frequent.
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(1, 15))
            row = np.round(rng.random(n), 1)
            allowed = rng.random(n) < 0.7
            limit = int(rng.integers(1, n + 2))
            keyed = np.where(allowed, row, np.inf)
            want = np.argsort(keyed, kind="stable")[:min(limit, int(allowed.sum()))]
            assert masked_order(row, allowed, limit).tolist() == want.tolist()
            assert masked_order(row, allowed).tolist() == \
                   np.argsort(keyed, kind="stable")[:int(allowed.sum())].tolist()

    def test_masked_order_with_a_limit_owns_its_memory(self):
        # A top-P list must not keep the query's whole sorted row alive.
        row = np.random.default_rng(23).random(50)
        allowed = np.ones(50, dtype=bool)
        allowed[::3] = False
        full = masked_order(row, allowed)
        for limit in (5, 40):
            kept = masked_order(row, allowed, limit)
            assert kept.base is None
            assert kept.tolist() == full[:limit].tolist()

    def test_empty_gallery_raises(self):
        feats = np.zeros((1, 2), dtype=np.float32)
        bundle = build_bundle([(0, "Q", 1, 0, 0)], feats)
        with pytest.raises(ValueError, match="empty gallery"):
            top_candidates(bundle.splits["Q"], bundle.splits["G"], 5)


def masked_full_sort(row, allowed, limit=None):
    """The order ``masked_order`` must give: one stable sort of the whole
    row, then the allowed entries, then the first ``limit``."""
    order = np.argsort(row, kind="stable")
    return order[allowed[order]][:limit].tolist()


class TestSelection:
    """``masked_order`` with a limit below the allowed count selects with
    ``np.partition`` instead of sorting the row."""

    def test_ties_across_the_cut_keep_the_full_sort_order(self):
        assert masked_order(np.array([0.5, 0.2, 0.5, 0.5, 0.1]),
                            np.ones(5, dtype=bool), 3).tolist() == [4, 1, 0]
        rng = np.random.default_rng(41)
        ties_at_cut = 0
        for _ in range(300):
            n = int(rng.integers(2, 40))
            row = np.round(rng.random(n), 1)
            allowed = rng.random(n) < 0.8
            full = masked_full_sort(row, allowed)
            for limit in range(1, len(full)):
                ties_at_cut += row[full[limit - 1]] == row[full[limit]]
                assert masked_order(row, allowed, limit).tolist() == full[:limit]
        assert ties_at_cut > 1000

    def test_inf_and_nan_entries_sort_as_the_full_sort_puts_them(self):
        rng = np.random.default_rng(42)
        specials = np.array([np.inf, -np.inf, np.nan])
        for _ in range(300):
            n = int(rng.integers(2, 25))
            row = np.round(rng.random(n), 1)
            odd = rng.random(n) < 0.4
            row[odd] = rng.choice(specials, int(odd.sum()))
            allowed = rng.random(n) < 0.7
            for limit in range(1, n + 2):
                assert masked_order(row, allowed, limit).tolist() == \
                       masked_full_sort(row, allowed, limit)
        # An allowed inf still ranks before a NaN; a NaN cut sorts them all.
        row = np.array([np.nan, np.inf, 1.0, np.nan, np.inf])
        allowed = np.array([True, True, False, True, True])
        assert masked_order(row, allowed, 2).tolist() == [1, 4]
        assert masked_order(row, allowed, 3).tolist() == [1, 4, 0]

    def test_an_all_false_mask_selects_nothing(self):
        row = np.random.default_rng(43).random(12)
        nothing = np.zeros(12, dtype=bool)
        for limit in (None, 1, 5, 12, 20):
            assert masked_order(row, nothing, limit).tolist() == []

    def test_a_limit_at_or_above_the_eligible_count_keeps_every_entry(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            row = np.round(rng.random(n), 1)
            allowed = rng.random(n) < 0.6
            eligible = int(allowed.sum())
            for limit in (eligible, eligible + 1, eligible + 10):
                kept = masked_order(row, allowed, limit)
                assert kept.tolist() == masked_full_sort(row, allowed)
                assert kept.base is None


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

    def test_candidates_from_pairs_round_trips_lists(self):
        rng = np.random.default_rng(29)
        bundle = random_bundle(rng, n_query=3, n_gallery=9)
        direct = top_candidates(bundle.splits["Q"], bundle.splits["G"], 4)
        via_pairs = candidates_from_pairs(build_eval_pairs(bundle, "Q", "G", 4))
        assert list(via_pairs) == list(range(len(direct)))
        for qi, (indices, _) in enumerate(direct):
            assert via_pairs[qi].tolist() == indices.tolist()


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
            np.testing.assert_allclose(rows["score"], -dist[ai, rows["cand_index"]],
                                       rtol=1e-12)
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

    def test_train_pair_counts(self):
        rng = np.random.default_rng(39)
        bundle = train_bundle(rng, n_identities=3, n_cloths=2, images_per_cloth=2)
        pair_set, dropped = build_train_pairs(bundle, num_candidates=20)
        # 12 anchors, each with 2 same-id-other-cloth positives and 8 negatives
        assert dropped == []
        assert len(pair_set.pairs) == 12 * (2 + 8)
        assert set(pair_set.pairs[["query_role", "cand_role"]].tolist()) == {("T", "T")}


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

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(48)
        bundle = train_bundle(rng)
        pair_set, _ = build_train_pairs(bundle, 4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_pairs_csv(a, pair_set)
        write_pairs_csv(b, pair_set)
        assert a.read_bytes() == b.read_bytes()

    def test_scores_survive_repr_round_trip(self, tmp_path):
        pairs = np.array([("Q", 0, 1, "G", 3, -0.12345678901234567, 1)],
                         dtype=PAIR_DTYPE)
        path = tmp_path / "p.csv"
        write_pairs_csv(path, PairSet(pairs))
        back = read_pairs_csv(path)
        assert back.pairs["score"][0] == -0.12345678901234567

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("query_role,query_index\nQ,0\n")
        with pytest.raises(ValueError, match="header"):
            read_pairs_csv(path)

    @pytest.mark.parametrize("row, want", [
        ("X,0,1,G,3,-0.5,1", "unknown role 'X'"),
        ("Q,0,1,XYZ,3,-0.5,1", "unknown role 'XYZ'"),
        ("Q,0,1,G,3,-0.5,2", "label must be 0 or 1, got 2"),
        ("Q,0,1,G,3,-0.5,-1", "label must be 0 or 1, got -1"),
        (f"Q,{2 ** 63},1,G,3,-0.5,1", "query_index does not fit in int64"),
        (f"Q,0,1,G,{-2 ** 63 - 1},-0.5,1", "cand_index does not fit in int64"),
    ])
    def test_bad_field_values_name_the_file_and_line(self, tmp_path, row, want):
        path = tmp_path / "p.csv"
        path.write_text("# config: {}\nquery_role,query_index,rank,cand_role,"
                        "cand_index,score,label\nQ,0,1,G,2,-0.25,0\n" + row + "\n")
        with pytest.raises(ValueError, match=f"p.csv: line 4: {want}"):
            read_pairs_csv(path)

    def test_written_pair_files_never_take_the_row_path(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        flags = ["--meta", str(data / "meta.csv"), "--features", str(data / "features.bin")]
        assert main(["synth", "--out", str(data), "--n-identities", "12", "--feature-dim", "6",
                     "--part-dim", "2", "--part-count", "3", "--seed", "4"]) == 0
        assert main(["pairs", *flags, "--out", str(tmp_path), "--P", "6"]) == 0
        assert main(["retrieve", *flags, "--out", str(tmp_path / "candidates.csv")]) == 0
        files = sorted(tmp_path.glob("*.csv"))
        assert len(files) == 4
        monkeypatch.setattr(datastore, "_parse_bytes", lambda *args: None)
        by_rows = [read_pairs_csv(path).pairs for path in files]
        monkeypatch.undo()

        def row_path(*args):
            raise AssertionError("a written pair CSV took the row path")

        monkeypatch.setattr(datastore, "_read_rows", row_path)
        for path, want in zip(files, by_rows):
            got = read_pairs_csv(path).pairs
            assert len(got) and got.dtype == PAIR_DTYPE
            assert got.tobytes() == want.tobytes()


class TestQueryGroups:
    #: (query_role, query_index, rank) per row; queries interleave in file order.
    ROWS = [("Q", 3, 2), ("VQ", 3, 1), ("Q", 1, 1), ("Q", 3, 1), ("Q", 1, 2),
            ("VQ", 3, 1), ("Q", 3, 3)]

    def pairs(self):
        return np.array([(qr, qi, rank, "G", 10 * i, 0.0, i % 2)
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
