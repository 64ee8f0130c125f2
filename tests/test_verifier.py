"""Verifier head, loss, gradient and training-loop tests."""

from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest

from conftest import oracle_fuse, oracle_groups, oracle_scores, pair_records
from rvrank import verifier
from rvrank.datastore import build_bundle
from rvrank.retrieval import PairSet, build_eval_pairs, build_train_pairs
from rvrank.synthgen import SynthConfig, generate
from rvrank.verifier import (
    HISTORY_HEADER,
    MODEL_MAGIC,
    TrainConfig,
    VerifierModel,
    batch_scores,
    gradients_vector,
    load_model,
    pair_arrays,
    part_contributions,
    save_model,
    train,
    triplet_hinge,
    triplet_loss,
    triplet_loss_and_grads,
    triplet_table,
    validation_rank1,
    validation_set,
    write_history_csv,
)


def two_record_bundle(seed=999, present_g=(True, True, False, True, True)):
    """One query and one gallery record with fixed random content."""
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(2, 4))
    present = np.array([[True] * 5, list(present_g)])
    vectors = rng.normal(size=(2, 5, 3))
    bundle = build_bundle([(0, "Q", 1, 0, 0), (0, "G", 1, 1, 1)],
                          feats, present, vectors)
    return bundle.splits["Q"][0], bundle.splits["G"][0], bundle


def zeroed(model):
    out = model.copy()
    out.load_weights_vector(np.zeros_like(out.weights_vector()))
    return out


def score(model, q, g):
    """(score, per-part contributions) of one pair, through the batch path."""
    gx, px, present = pair_arrays([(q, g)], model.dims)
    return (float(batch_scores(model, gx, px, present)[0]),
            part_contributions(model, px, present)[0])


def global_score(model, q, g):
    """``sim_G`` of one pair: the batch score with every part masked out."""
    gx, px, present = pair_arrays([(q, g)], model.dims)
    return float(batch_scores(model, gx, px, np.zeros_like(present))[0])


class TestPairRepresentation:
    def test_identical_inputs_give_zero_diff_and_squared_product(self):
        q, _, bundle = two_record_bundle()
        gx, _, _ = pair_arrays([(q, q)], bundle.dims)
        d = q.global_feature.shape[0]
        np.testing.assert_allclose(gx[0, :d], 0.0, atol=1e-12)
        np.testing.assert_allclose(gx[0, d:],
                                   np.asarray(q.global_feature, np.float64) ** 2,
                                   rtol=1e-12)

    def test_representation_is_symmetric(self):
        q, g, bundle = two_record_bundle()
        gx, px, present = pair_arrays([(q, g), (g, q)], bundle.dims)
        np.testing.assert_array_equal(gx[0], gx[1])
        np.testing.assert_array_equal(px[0], px[1])
        np.testing.assert_array_equal(present[0], present[1])

    def test_joint_presence_requires_both_sides(self):
        q, g, bundle = two_record_bundle(present_g=(True, False, False, True, False))
        _, px, present = pair_arrays([(q, g)], bundle.dims)
        assert present[0].tolist() == [True, False, False, True, False]
        np.testing.assert_array_equal(px[0, ~present[0]], 0.0)

    def test_mismatched_shapes_raise(self):
        q, _, bundle = two_record_bundle()
        rng = np.random.default_rng(1)
        other = build_bundle([(0, "G", 2, 0, 0)], rng.normal(size=(1, 7)))
        with pytest.raises(ValueError, match="shapes"):
            pair_arrays([(q, other.splits["G"][0])], bundle.dims)

    def test_pair_arrays_match_single_representation(self):
        q, g, bundle = two_record_bundle()
        gx, px, present = pair_arrays([(q, g), (q, q)], bundle.dims)
        for row, (a, b) in enumerate([(q, g), (q, q)]):
            fused, parts = oracle_fuse(a, b)
            np.testing.assert_array_equal(gx[row], fused)
            for j, (joint, vec) in enumerate(parts):
                assert present[row, j] == joint
                np.testing.assert_array_equal(px[row, j], vec)


class TestScoring:
    def test_zero_weights_score_zero(self):
        q, g, _ = two_record_bundle()
        model = zeroed(VerifierModel.initialize((4, 3, 5), 8, 7, seed=0))
        assert global_score(model, q, g) == 0.0
        assert score(model, q, g)[0] == 0.0

    def test_scores_are_bounded(self):
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=4)
        for seed in range(977, 987):
            q, g, _ = two_record_bundle(seed=seed)
            assert -1.0 < global_score(model, q, g) < 1.0
            assert -1.0 < score(model, q, g)[0] < 1.0

    def test_scores_are_symmetric_in_the_pair(self):
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=5)
        q, g, _ = two_record_bundle()
        assert score(model, q, g)[0] == score(model, g, q)[0]

    def test_frozen_scoring_goldens(self):
        # Regression pins: computed from seeds (999, 123) and frozen.
        q, g, _ = two_record_bundle()
        model = VerifierModel.initialize((4, 3, 5), hidden_global=8,
                                         hidden_part=7, seed=123)
        np.testing.assert_allclose(global_score(model, q, g),
                                   -0.42908056204928, rtol=1e-12)
        s, contrib = score(model, q, g)
        np.testing.assert_allclose(s, 0.38185622162314176, rtol=1e-12)
        want = [0.0803789952991748, -0.8452913986712334, np.nan,
                -0.023455740813056014, 0.19785902801575028]
        np.testing.assert_allclose(contrib, want, rtol=1e-12)

    def test_contributions_mark_absent_parts_nan(self):
        q, g, _ = two_record_bundle(present_g=(True, False, True, False, True))
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=6)
        _, contrib = score(model, q, g)
        assert contrib.shape == (5,)
        assert np.isnan(contrib[[1, 3]]).all()
        assert np.isfinite(contrib[[0, 2, 4]]).all()

    def test_score_is_the_max_present_contribution_transformed(self):
        q, g, _ = two_record_bundle()
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=7)
        s, contrib = score(model, q, g)
        pooled = np.nanmax(contrib)
        gain = float(np.exp(model.out_log_gain))
        np.testing.assert_allclose(s, np.tanh(gain * pooled + float(model.out_bias)),
                                   rtol=1e-12)

    def test_single_present_part_decides_the_score(self):
        q, g, _ = two_record_bundle(present_g=(False, False, True, False, False))
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=8)
        s, contrib = score(model, q, g)
        assert np.isfinite(contrib[2]) and np.isnan(np.delete(contrib, 2)).all()
        gain = float(np.exp(model.out_log_gain))
        np.testing.assert_allclose(
            s, np.tanh(gain * contrib[2] + float(model.out_bias)), rtol=1e-12)

    def test_no_present_parts_fall_back_to_the_global_head(self):
        q, g, _ = two_record_bundle(present_g=(False,) * 5)
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=9)
        s, contrib = score(model, q, g)
        assert np.isnan(contrib).all()
        assert s == global_score(model, q, g)
        _, sim_g, sim_s, _ = oracle_scores(model, q, g)
        assert sim_s is None
        np.testing.assert_allclose(s, sim_g, rtol=1e-12)

    def test_batch_scores_match_scalar_path(self):
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=10)
        pairs = []
        for seed in (101, 102, 103):
            q, g, bundle = two_record_bundle(seed=seed)
            pairs.extend([(q, g), (g, g)])
        q0, g0, _ = two_record_bundle(seed=104, present_g=(False,) * 5)
        pairs.append((q0, g0))  # exercises the global fallback row
        gx, px, present = pair_arrays(pairs, bundle.dims)
        got = batch_scores(model, gx, px, present)
        want = [oracle_scores(model, a, b)[0] for a, b in pairs]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        contrib = part_contributions(model, px, present)
        want_c = [oracle_scores(model, a, b)[3] for a, b in pairs]
        np.testing.assert_allclose(contrib, want_c, rtol=1e-12)


class TestHinge:
    def test_separated_triplet_costs_nothing(self):
        assert triplet_hinge(0.8, 0.2, 0.3) == 0.0

    def test_equal_scores_cost_the_margin(self):
        assert triplet_hinge(0.5, 0.5, 0.3) == pytest.approx(0.3)

    def test_inverted_triplet_costs_gap_plus_margin(self):
        assert triplet_hinge(0.2, 0.8, 0.3) == pytest.approx(0.9)

    def test_never_negative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            sp, sn = rng.uniform(-1, 1, size=2)
            assert triplet_hinge(sp, sn, 0.3) >= 0.0


def small_training_setup(seed=0, epochs=4, **hyper):
    cfg = SynthConfig(n_identities=10, clothes_per_identity=2,
                      images_per_cloth=2, confuser_group_size=2,
                      feature_dim=8, part_dim=4, part_count=6, seed=seed)
    bundle, _ = generate(cfg)
    train_pairs, dropped = build_train_pairs(bundle, num_candidates=5)
    assert dropped == []
    valid_pairs = build_eval_pairs(bundle, "VQ", "VG", num_candidates=6)
    hyper = TrainConfig(epochs=epochs, **hyper)
    model = VerifierModel.initialize(bundle.dims, 8, 8, seed=seed, hyper=hyper)
    return model, bundle, train_pairs, valid_pairs


def oracle_triplet_loss(model, bundle, table, pos_index, neg_index, margin):
    """Scalar-loop (global term, part term) over table-row triplets."""
    def scores(row):
        return oracle_scores(model, *pair_records(bundle, table.pairs, row))

    want_g = want_p = 0.0
    for pi, ni in zip(pos_index, neg_index):
        _, sg_pos, sp_pos, _ = scores(pi)
        _, sg_neg, sp_neg, _ = scores(ni)
        want_g += triplet_hinge(sg_pos, sg_neg, margin)
        if sp_pos is not None and sp_neg is not None:
            want_p += triplet_hinge(sp_pos, sp_neg, margin)
    return want_g, want_p


class TestBatchLoss:
    def test_matches_scalar_triplet_loop(self):
        model, bundle, train_pairs, _ = small_training_setup()
        table = triplet_table(bundle, train_pairs)
        for start in (0, 4, 8):
            anchors = table.anchors[start:start + 4]
            pos, neg = table.cross_indices(anchors)
            total, lg, lp = triplet_loss(model, table.gx, table.px,
                                         table.present, pos, neg, 0.3)
            want_g, want_p = oracle_triplet_loss(model, bundle, table, pos, neg, 0.3)
            np.testing.assert_allclose(lg, want_g, atol=1e-9)
            np.testing.assert_allclose(lp, want_p, atol=1e-9)
            assert total == lg + lp
            # The SGD step's gathered batch holds the same triplets.
            (b_total, b_lg, b_lp), _ = triplet_loss_and_grads(
                model, *table.batch(anchors), 0.3)
            np.testing.assert_allclose([b_total, b_lg, b_lp], [total, lg, lp],
                                       rtol=1e-12)

    def test_triplet_count_is_the_cross_product(self):
        _, bundle, train_pairs, _ = small_training_setup()
        grouped = oracle_groups(train_pairs.pairs)
        table = triplet_table(bundle, train_pairs)
        got = sum(len(table.cross_indices(table.anchors[i:i + 3])[0])
                  for i in range(0, len(table.anchors), 3))
        want = sum(sum(1 for p in plist if p.label == 1) *
                   sum(1 for p in plist if p.label == 0)
                   for plist in grouped.values())
        assert got == want

    def test_table_rows_follow_anchor_appearance_then_file_order(self):
        _, bundle, train_pairs, _ = small_training_setup()
        # Interleave the anchors and leave one without negatives.
        shuffle = np.random.default_rng(5).permutation(len(train_pairs.pairs))
        pairs = train_pairs.pairs[shuffle]
        lonely = pairs["query_index"][0]
        pairs = pairs[(pairs["query_index"] != lonely) | (pairs["label"] == 1)]
        table = triplet_table(bundle, PairSet(pairs))
        want_rows, want_anchor_rows = [], []
        for plist in oracle_groups(pairs).values():
            if {p.label for p in plist} != {0, 1}:
                continue
            start = len(want_rows)
            want_rows += plist
            want_anchor_rows.append(
                ([start + i for i, p in enumerate(plist) if p.label == 1],
                 [start + i for i, p in enumerate(plist) if p.label == 0]))
        assert len(want_anchor_rows) == len(oracle_groups(pairs)) - 1
        assert table.pairs.tolist() == [tuple(p) for p in want_rows]
        assert list(table.anchors) == list(range(len(want_anchor_rows)))
        assert [(pos.tolist(), neg.tolist()) for pos, neg in table.anchor_rows] == \
               want_anchor_rows
        gx, px, present = pair_arrays(
            [pair_records(bundle, table.pairs, r) for r in range(len(table.pairs))],
            bundle.dims)
        assert np.array_equal(table.gx, gx) and np.array_equal(table.px, px)
        assert np.array_equal(table.present, present)

    def test_out_of_range_row_in_a_discarded_group_raises(self):
        # Query index -1 forms a one-row group of its own, which has only one
        # label and so is left out of the table; its index is still checked.
        _, bundle, train_pairs, _ = small_training_setup()
        pairs = train_pairs.pairs.copy()
        pairs["query_index"][7] = -1
        with pytest.raises(ValueError, match="pair row 7: index -1 out of range for role T"):
            triplet_table(bundle, PairSet(pairs))
        pairs = train_pairs.pairs.copy()
        pairs["cand_index"][3] = n = len(bundle.splits["T"])
        with pytest.raises(ValueError, match=f"pair row 3: index {n} out of range for role T"):
            triplet_table(bundle, PairSet(pairs))

    def test_zero_margin_separable_batch_costs_nothing(self):
        model, bundle, train_pairs, _ = small_training_setup()
        table = triplet_table(bundle, train_pairs)
        batch = table.batch(table.anchors[:4])
        (total, lg, lp), _ = triplet_loss_and_grads(model, *batch, -10.0)
        assert total == 0.0 and lg == 0.0 and lp == 0.0


class TestGradients:
    def test_analytic_matches_central_differences(self):
        # Quick spot check; broad coverage lives in the acceptance suite.
        model, bundle, train_pairs, _ = small_training_setup(seed=3)
        table = triplet_table(bundle, train_pairs)
        batch = table.batch(table.anchors[3:6])
        _, grads = triplet_loss_and_grads(model, *batch, 0.31)
        analytic = gradients_vector(model, grads)

        base = model.weights_vector()
        h = 1e-6
        numeric = np.zeros_like(base)
        for i in range(base.size):
            for sign in (1.0, -1.0):
                vec = base.copy()
                vec[i] += sign * h
                model.load_weights_vector(vec)
                val = triplet_loss(model, *batch, 0.31)[0]
                numeric[i] += sign * val / (2 * h)
        model.load_weights_vector(base)
        err = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(numeric), 1e-12)
        assert err < 1e-4


class TestHeadSeparation:
    def test_part_score_ignores_global_weights(self):
        q, g, _ = two_record_bundle()
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=12)
        before = score(model, q, g)[0]
        bumped = model.copy()
        bumped.global_hidden_w = bumped.global_hidden_w + 3.7
        bumped.global_out_b = bumped.global_out_b + 1.1
        assert score(bumped, q, g)[0] == before

    def test_global_score_ignores_part_weights(self):
        q, g, _ = two_record_bundle()
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=13)
        before = global_score(model, q, g)
        bumped = model.copy()
        bumped.part_mix_w = bumped.part_mix_w - 2.0
        bumped.out_log_gain = bumped.out_log_gain + 0.5
        assert global_score(bumped, q, g) == before


class TestContributionConsistency:
    def test_raising_the_best_contribution_raises_the_score(self):
        rng = np.random.default_rng(14)
        for seed in range(40):
            q, g, _ = two_record_bundle(seed=200 + seed)
            model = VerifierModel.initialize((4, 3, 5), 8, 7,
                                             seed=int(rng.integers(1 << 16)))
            s, contrib = score(model, q, g)
            kstar = int(np.nanargmax(contrib))
            bumped = model.copy()
            bias = bumped.part_mix_b.copy()
            bias[kstar] += 0.25
            bumped.part_mix_b = bias
            s2, contrib2 = score(bumped, q, g)
            np.testing.assert_allclose(contrib2[kstar], contrib[kstar] + 0.25,
                                       rtol=1e-12)
            assert s2 > s


class TestTraining:
    def test_zero_learning_rate_keeps_initial_weights(self):
        model, bundle, train_pairs, valid_pairs = small_training_setup(
            epochs=3, learning_rate=0.0)
        initial = model.weights_vector()
        trained, history = train(model, bundle, train_pairs, valid_pairs)
        np.testing.assert_array_equal(trained.weights_vector(), initial)
        assert len(history) == 4 and history[0].epoch == 0

    def test_same_seed_is_bit_identical(self):
        runs = []
        for _ in range(2):
            model, bundle, train_pairs, valid_pairs = small_training_setup(
                seed=1, epochs=3)
            trained, history = train(model, bundle, train_pairs, valid_pairs)
            runs.append((trained.weights_vector(), history))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_best_validation_epoch_is_restored(self):
        model, bundle, train_pairs, valid_pairs = small_training_setup(
            seed=2, epochs=3, learning_rate=5e-3)
        trained, history = train(model, bundle, train_pairs, valid_pairs)
        best = max(h.valid_rank1 for h in history)
        got = validation_rank1(trained, validation_set(bundle, valid_pairs, 20), 10)
        np.testing.assert_allclose(got, best, rtol=1e-12)

    def test_validation_rank1_matches_a_per_query_reference(self):
        from rvrank.reranker import window_rerank
        model, bundle, _, valid_pairs = small_training_setup(seed=3)
        L, Q = 2, 4
        hits = total = 0
        for (role, qi), plist in oracle_groups(valid_pairs.pairs).items():
            ordered = sorted(plist, key=lambda p: p.rank)
            if not any(p.label == 1 for p in ordered):
                continue
            query = bundle.splits[role][qi]
            scores = [oracle_scores(
                model, query, bundle.splits[p.cand_role][p.cand_index])[0]
                for p in ordered[:Q]]
            top = window_rerank([p.cand_index for p in ordered], scores, L, Q).order[0]
            hits += next(p.label for p in ordered if p.cand_index == top)
            total += 1
        assert total > 0
        got = validation_rank1(model, validation_set(bundle, valid_pairs, Q), L)
        assert got == hits / total

    def test_out_of_range_row_of_a_query_without_positive_raises(self):
        _, bundle, _, valid_pairs = small_training_setup()
        pairs = valid_pairs.pairs.copy()
        row = int(np.flatnonzero(pairs["label"] == 0)[0])
        pairs["query_index"][row] = -1
        with pytest.raises(ValueError,
                           match=f"pair row {row}: index -1 out of range for role VQ"):
            validation_set(bundle, PairSet(pairs), 20)

    def test_pairs_are_fused_once_per_train_call(self, monkeypatch):
        model, bundle, train_pairs, valid_pairs = small_training_setup(epochs=3)
        fused = []

        def spy(pairs, dims):
            fused.append(len(pairs))
            return pair_arrays(pairs, dims)

        monkeypatch.setattr(verifier, "pair_arrays", spy)
        validated = []
        real_validation = verifier.validation_rank1
        monkeypatch.setattr(verifier, "validation_rank1",
                            lambda *a: validated.append(1) or real_validation(*a))
        train(model, bundle, train_pairs, valid_pairs)
        # the triplet table, then the validation prefixes; one validation per epoch
        assert len(fused) == 2
        assert len(validated) == 4

    def test_learning_rate_decays_after_milestones(self):
        from rvrank.verifier import _learning_rate
        cfg = TrainConfig(learning_rate=1.0, decay_factor=0.1,
                          decay_epochs=(30, 60))
        assert _learning_rate(cfg, 30) == 1.0
        assert _learning_rate(cfg, 31) == pytest.approx(0.1)
        assert _learning_rate(cfg, 60) == pytest.approx(0.1)
        assert _learning_rate(cfg, 61) == pytest.approx(0.01)

    def test_unusable_pair_set_raises(self):
        model, bundle, train_pairs, valid_pairs = small_training_setup()
        only_pos = PairSet(train_pairs.pairs[train_pairs.pairs["label"] == 1])
        with pytest.raises(ValueError, match="anchors"):
            train(model, bundle, only_pos, valid_pairs)

    def test_overflowing_features_abort_with_epoch_number(self):
        model, bundle, train_pairs, valid_pairs = small_training_setup(
            epochs=2, learning_rate=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            for split in bundle.splits.values():
                split.features[:] = np.array(
                    [1e308, -1e308] * (bundle.feature_dim // 2), dtype=np.float32)
            with pytest.raises(RuntimeError, match="epoch"):
                train(model, bundle, train_pairs, valid_pairs)

    def test_history_csv_layout(self, tmp_path):
        model, bundle, train_pairs, valid_pairs = small_training_setup(epochs=2)
        _, history = train(model, bundle, train_pairs, valid_pairs)
        path = tmp_path / "history.csv"
        write_history_csv(path, history, config_comment="config: {}")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config: {}"
        assert lines[1] == ",".join(HISTORY_HEADER)
        assert len(lines) == 2 + len(history)


class TestCheckpoint:
    def test_round_trip_preserves_shape_seed_and_hyper(self, tmp_path):
        hyper = TrainConfig(margin=0.25, learning_rate=1e-3, epochs=12,
                            batch_size=8, decay_factor=0.5, decay_epochs=(3, 7, 9))
        model = VerifierModel.initialize((6, 2, 4), 5, 3, seed=77, hyper=hyper)
        path = tmp_path / "model.bin"
        save_model(path, model)
        back = load_model(path)
        assert back.dims == model.dims
        assert (back.hidden_global, back.hidden_part) == (5, 3)
        assert back.seed == 77
        assert back.hyper == hyper

    def test_scores_survive_float32_storage(self, tmp_path):
        q, g, _ = two_record_bundle()
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=21)
        path = tmp_path / "model.bin"
        save_model(path, model)
        back = load_model(path)
        np.testing.assert_allclose(global_score(back, q, g),
                                   global_score(model, q, g), atol=1e-6)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=22)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(a, model)
        save_model(b, load_model(a))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncated_checkpoint_is_rejected(self, tmp_path):
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=23)
        path = tmp_path / "m.bin"
        save_model(path, model)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_model(path)

    def test_oversized_header_is_rejected_before_allocating(self, tmp_path):
        # A header-only file declaring D=4000, Hg=4000: the weights it
        # promises would take 256 MB as float64.
        path = tmp_path / "m.bin"
        path.write_bytes(MODEL_MAGIC + struct.pack("<5I", 4000, 8, 15, 4000, 32)
                         + struct.pack("<q2d2IdI", 0, 0.3, 3.5e-4, 80, 16, 0.1, 0))
        assert path.stat().st_size == 68
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="payload"):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak} bytes"
