"""Verifier head, loss, gradient and training-loop tests."""

from __future__ import annotations

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from conftest import (PeakMemory, blocked_global_forward, oracle_fuse, oracle_groups,
                      oracle_scores, pair_records, triplet_loss)
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
    load_model,
    pair_arrays,
    part_contributions,
    save_model,
    table_loss,
    train,
    triplet_hinge,
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


def copied(model):
    return dataclasses.replace(model, params=model.params.copy())


def zeroed(model):
    out = copied(model)
    out.params[:] = 0.0
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


@pytest.mark.parametrize("side", ["query_role", "cand_role"])
@pytest.mark.parametrize("builder", ["triplet_table", "validation_set"])
def test_a_pair_set_of_mixed_roles_is_rejected_naming_the_row(builder, side):
    _, bundle, train_pairs, valid_pairs = small_training_setup()
    if builder == "triplet_table":
        pairs, build, roles = train_pairs.pairs.copy(), triplet_table, ["T", "T"]
    else:
        pairs, build, roles = valid_pairs.pairs.copy(), \
            lambda b, p: validation_set(b, p, 20), ["VQ", "VG"]
    pairs["query_index"][9] = -1  # a later fault: the first row is named
    pairs[side][5] = other = "Q" if side == "query_role" else "G"
    roles_5 = "/".join([other, roles[1]] if side == "query_role" else [roles[0], other])
    with pytest.raises(ValueError, match=f"pair row 5: roles {roles_5}, but row 0 pairs "
                                         f"{'/'.join(roles)}; a pair set holds one role pair"):
        build(bundle, PairSet(pairs))


@pytest.mark.parametrize("which", ["train_pairs", "valid_pairs"])
def test_a_pair_set_of_an_unknown_role_fails_the_train(which):
    model, bundle, train_pairs, valid_pairs = small_training_setup()
    sets = {"train_pairs": train_pairs.pairs.copy(), "valid_pairs": valid_pairs.pairs.copy()}
    sets[which]["cand_role"] = "X"
    with pytest.raises(ValueError) as info:
        train(model, bundle, PairSet(sets["train_pairs"]), PairSet(sets["valid_pairs"]))
    assert type(info.value) is ValueError and str(info.value) == "unknown role 'X'"


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
            anchors = np.arange(start, start + 4)
            pos, neg = np.concatenate([table.triplets[a] for a in anchors], axis=1)
            total, lg, lp = triplet_loss(model, *table.fused(slice(None)), pos, neg, 0.3)
            want_g, want_p = oracle_triplet_loss(model, bundle, table, pos, neg, 0.3)
            np.testing.assert_allclose(lg, want_g, atol=1e-9)
            np.testing.assert_allclose(lp, want_p, atol=1e-9)
            assert total == lg + lp
            # The SGD step's gathered batch holds the same triplets.
            (b_total, b_lg, b_lp), _ = triplet_loss_and_grads(
                model, *table.batch(anchors), 0.3)
            np.testing.assert_allclose([b_total, b_lg, b_lp], [total, lg, lp],
                                       rtol=1e-12)

    @staticmethod
    def cross_product_batch(table, anchors):
        """The batch as it was built per call before the table stored its
        triplets: each anchor's rows found from the query index, its positive
        x negative cross product by ``np.repeat``/``np.tile``, the rows the
        triplets use by ``np.unique``, and a table-length remap into them."""
        qi = table.pairs["query_index"]
        starts = np.flatnonzero(np.r_[True, qi[1:] != qi[:-1]])
        ends = np.r_[starts[1:], len(qi)]
        pos_idx, neg_idx = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        for anchor in anchors:
            rows = np.arange(starts[anchor], ends[anchor])
            is_pos = table.pairs["label"][rows] == 1
            p, n = rows[is_pos], rows[~is_pos]
            pos_idx.append(np.repeat(p, n.size))
            neg_idx.append(np.tile(n, p.size))
        pos_idx, neg_idx = np.concatenate(pos_idx), np.concatenate(neg_idx)
        rows = np.unique(np.concatenate([pos_idx, neg_idx]))
        remap = np.zeros(len(table.pairs), dtype=np.intp)
        remap[rows] = np.arange(rows.size)
        return (*table.fused(rows), remap[pos_idx], remap[neg_idx])

    def test_batch_matches_the_per_call_cross_product(self):
        _, bundle, train_pairs, _ = small_training_setup()
        # Shuffled rows interleave positives and negatives within each anchor.
        pairs = train_pairs.pairs[np.random.default_rng(7).permutation(len(train_pairs.pairs))]
        table = triplet_table(bundle, PairSet(pairs))
        labels = [table.pairs["label"][a:b] for a, b in zip(table.bounds[:-1], table.bounds[1:])]
        assert any((np.diff(label) > 0).any() for label in labels)
        n_anchors = len(labels)
        rng = np.random.default_rng(8)
        chunks = [rng.choice(n_anchors, size, replace=False) for size in (1, 3, 16)]
        chunks += [np.sort(rng.choice(n_anchors, 5, replace=False))[::-1],
                   np.arange(n_anchors), rng.permutation(n_anchors)]
        for anchors in chunks:
            got, want = table.batch(anchors), self.cross_product_batch(table, anchors)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_triplet_count_is_the_cross_product(self):
        _, bundle, train_pairs, _ = small_training_setup()
        grouped = oracle_groups(train_pairs.pairs)
        table = triplet_table(bundle, train_pairs)
        n_anchors = len(table.triplets)
        got = sum(len(table.batch(np.arange(i, min(i + 3, n_anchors)))[3])
                  for i in range(0, n_anchors, 3))
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
        want_rows, want_bounds, want_triplets = [], [0], []
        for plist in oracle_groups(pairs).values():
            if {p.label for p in plist} != {0, 1}:
                continue
            start = len(want_rows)
            want_rows += plist
            want_bounds.append(len(want_rows))
            pos = [start + i for i, p in enumerate(plist) if p.label == 1]
            neg = [start + i for i, p in enumerate(plist) if p.label == 0]
            want_triplets.append(([p for p in pos for _ in neg], neg * len(pos)))
        assert len(want_triplets) == len(oracle_groups(pairs)) - 1
        assert table.pairs.tolist() == [tuple(p) for p in want_rows]
        assert table.bounds.tolist() == want_bounds
        assert [(pos.tolist(), neg.tolist()) for pos, neg in table.triplets] == want_triplets
        want = pair_arrays(
            [pair_records(bundle, table.pairs, r) for r in range(len(table.pairs))],
            bundle.dims)
        for got, w in zip(table.fused(slice(None)), want):
            assert np.array_equal(got, w)

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
        batch = table.batch(np.arange(4))
        (total, lg, lp), _ = triplet_loss_and_grads(model, *batch, -10.0)
        assert total == 0.0 and lg == 0.0 and lp == 0.0


class TestGradients:
    def test_analytic_matches_central_differences(self):
        # Quick spot check; broad coverage lives in the acceptance suite.
        model, bundle, train_pairs, _ = small_training_setup(seed=3)
        table = triplet_table(bundle, train_pairs)
        batch = table.batch(np.arange(3, 6))
        _, analytic = triplet_loss_and_grads(model, *batch, 0.31)

        base = model.params.copy()
        h = 1e-6
        numeric = np.zeros_like(base)
        for i in range(base.size):
            for sign in (1.0, -1.0):
                vec = base.copy()
                vec[i] += sign * h
                model.params[:] = vec
                val = triplet_loss(model, *batch, 0.31)[0]
                numeric[i] += sign * val / (2 * h)
        model.params[:] = base
        err = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(numeric), 1e-12)
        assert err < 1e-4


def one_shot_fusion(pairs, dims):
    """``pair_arrays`` as whole-array expressions over every pair at once."""
    d, dp, k = dims
    fq, fg = (np.stack([pair[side].global_feature for pair in pairs]).astype(np.float64)
              for side in (0, 1))
    vq, vg = (np.stack([pair[side].part_vectors for pair in pairs]).astype(np.float64)
              for side in (0, 1))
    present = (np.stack([q.part_present for q, _ in pairs])
               & np.stack([g.part_present for _, g in pairs]))
    gx = np.concatenate([np.abs(fq - fg), fq * fg], axis=1)
    px = np.concatenate([np.abs(vq - vg), vq * vg], axis=2)
    px[~present] = 0.0
    return gx, px, present


def one_shot_scores(model, gx, px, present):
    """(``batch_scores``, ``part_contributions``) as whole-array expressions,
    the part head over every row at once and the global head per
    ``SCORE_CHUNK`` block, its definition."""
    sg, _ = blocked_global_forward(model, gx, verifier.SCORE_CHUNK)
    u = np.tanh(px @ model.part_hidden_w.T + model.part_hidden_b)
    c = (u * model.part_mix_w[None, :, :]).sum(axis=2) + model.part_mix_b[None, :]
    pooled = np.where(present, c, -np.inf).max(axis=1)
    sp = np.tanh(np.exp(model.out_log_gain) * pooled + model.out_bias)
    return np.where(present.any(axis=1), sp, sg), np.where(present, c, np.nan)


def sparse_parts_setup(seed=4):
    """A model and a triplet table where many pairs share no present part."""
    cfg = SynthConfig(n_identities=10, clothes_per_identity=2, images_per_cloth=2,
                      confuser_group_size=2, feature_dim=8, part_dim=4, part_count=3,
                      part_dropout=0.6, seed=seed)
    bundle, _ = generate(cfg)
    table = triplet_table(bundle, build_train_pairs(bundle, num_candidates=5)[0])
    model = VerifierModel.initialize(bundle.dims, 8, 8, seed=seed)
    records = [pair_records(bundle, table.pairs, r) for r in range(len(table.pairs))]
    return model, bundle, table, records


def set_blocks(monkeypatch, model, rows):
    """``SCORE_CHUNK`` and ``model``'s part-head block both ``rows`` rows."""
    monkeypatch.setattr(verifier, "SCORE_CHUNK", rows)
    monkeypatch.setattr(verifier, "PART_BLOCK_BYTES",
                        rows * 8 * model.dims[2] * model.hidden_part)


#: The part-head block derived for the synthetic dims (K = 15, Hp = 32).
DERIVED_PART_BLOCK = verifier._part_block(VerifierModel.initialize((32, 8, 15), 32, 32))


class TestChunkEdges:
    """The fusion runs ``SCORE_CHUNK`` rows at a time and the part head
    :func:`verifier._part_block` rows; neither size may move a bit.  The
    global head's ``SCORE_CHUNK`` blocks are its definition."""

    CHUNKS = [1, 7, 64, DERIVED_PART_BLOCK]

    def test_the_table_mixes_rows_with_and_without_a_joint_part(self):
        _, _, table, _ = sparse_parts_setup()
        valid = table.fused(slice(None))[2].any(axis=1)
        assert len(table.pairs) > 2 * max(self.CHUNKS)
        assert 0 < valid.sum() < len(valid)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_fusion_matches_the_one_shot_form(self, monkeypatch, chunk):
        _, bundle, table, records = sparse_parts_setup()
        monkeypatch.setattr(verifier, "SCORE_CHUNK", chunk)
        want = one_shot_fusion(records, bundle.dims)
        for fused in (pair_arrays(records, bundle.dims), table.fused(slice(None))):
            for got, w in zip(fused, want):
                assert got.dtype == w.dtype and np.array_equal(got, w)

    def test_a_batch_gathers_what_pair_arrays_fuses_from_records(self):
        """Both collectors run one fusion arithmetic, absent slots included."""
        _, bundle, table, records = sparse_parts_setup()
        rng = np.random.default_rng(9)
        for anchors in (np.arange(len(table.triplets)), rng.permutation(len(table.triplets)),
                        rng.choice(len(table.triplets), 3, replace=False)):
            gx, px, present, pos, neg = table.batch(anchors)
            rows = np.concatenate([np.arange(*table.bounds[a:a + 2])
                                   for a in np.sort(anchors)])
            assert 0 < present.sum() < present.size
            for got, want in zip((gx, px, present),
                                 pair_arrays([records[r] for r in rows], bundle.dims)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("chunk", [*CHUNKS, verifier.SCORE_CHUNK])
    def test_the_table_loss_is_triplet_loss_over_the_fused_table(self, monkeypatch, chunk):
        model, _, table, _ = sparse_parts_setup()
        set_blocks(monkeypatch, model, chunk)
        want = triplet_loss(model, *table.fused(slice(None)),
                            *np.concatenate(table.triplets, axis=1), 0.3)
        assert want[2] > 0.0
        assert table_loss(model, table, 0.3) == want

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_scores_and_contributions_match_the_one_shot_form(self, monkeypatch, chunk):
        model, _, table, _ = sparse_parts_setup()
        gx, px, present = table.fused(slice(None))
        set_blocks(monkeypatch, model, chunk)
        want_scores, want_contrib = one_shot_scores(model, gx, px, present)
        assert np.array_equal(batch_scores(model, gx, px, present), want_scores)
        assert np.array_equal(part_contributions(model, px, present),
                              want_contrib, equal_nan=True)

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_loss_and_gradient_match_a_single_chunk(self, monkeypatch, chunk):
        """The part head in one block, and the global head's ``chunk``-row
        blocks taken by the conftest oracle, give the same bits."""
        model, _, table, _ = sparse_parts_setup()
        args = (model, *table.fused(slice(None)), *np.concatenate(table.triplets, axis=1),
                0.3)
        forward_global = verifier._forward_global
        set_blocks(monkeypatch, model, len(table.pairs))
        monkeypatch.setattr(verifier, "_forward_global",
                            lambda model, gx: blocked_global_forward(model, gx, chunk))
        want_losses, want_grad = triplet_loss_and_grads(*args)
        monkeypatch.setattr(verifier, "_forward_global", forward_global)
        set_blocks(monkeypatch, model, chunk)
        losses, grad = triplet_loss_and_grads(*args)
        assert losses == want_losses and triplet_loss(*args) == want_losses
        assert np.array_equal(grad, want_grad)
        assert model.views(grad)["part_hidden_w"].any()

    @pytest.mark.parametrize("chunk", [1, 7, 64, verifier.SCORE_CHUNK])
    def test_a_block_aligned_slice_gives_the_rows_of_the_whole(self, monkeypatch, chunk):
        monkeypatch.setattr(verifier, "SCORE_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        model = VerifierModel.initialize((32, 8, 15), seed=chunk)
        gx = rng.normal(size=(3 * chunk + 170, 64))
        whole = verifier._forward_global(model, gx)[0]
        for r0 in range(0, len(gx), chunk):
            rows = slice(r0, r0 + chunk)
            assert np.array_equal(verifier._forward_global(model, gx[rows])[0], whole[rows])

    def test_gradients_across_chunks_match_central_differences(self, monkeypatch):
        model, _, table, _ = sparse_parts_setup(seed=5)
        monkeypatch.setattr(verifier, "SCORE_CHUNK", 5)
        batch = table.batch(np.arange(6))
        assert len(batch[0]) > 4 * verifier.SCORE_CHUNK
        _, analytic = triplet_loss_and_grads(model, *batch, 0.31)
        base, h = model.params.copy(), 1e-6
        numeric = np.zeros_like(base)
        for i in range(base.size):
            for sign in (1.0, -1.0):
                model.params[:] = base
                model.params[i] += sign * h
                numeric[i] += sign * triplet_loss(model, *batch, 0.31)[0] / (2 * h)
        model.params[:] = base
        err = np.linalg.norm(numeric - analytic) / max(np.linalg.norm(numeric), 1e-12)
        assert err < 1e-4

    def test_the_untrained_loss_over_a_whole_table_stays_below_its_input(self):
        """Before the part head ran in chunks, its (n, K, Hp) activations
        lived three at a time and ``triplet_loss`` over this table (2,880
        rows) peaked at 6.2 x ``px.nbytes`` (tracemalloc)."""
        bundle, _ = generate(SynthConfig(n_identities=40, seed=1))
        table = triplet_table(bundle, build_train_pairs(bundle, num_candidates=20)[0])
        model = VerifierModel.initialize(bundle.dims, seed=1)
        pos, neg = np.concatenate(table.triplets, axis=1)
        gx, px, present = table.fused(slice(None))
        assert len(table.pairs) > 10 * verifier.SCORE_CHUNK
        with PeakMemory() as peak:
            triplet_loss(model, gx, px, present, pos, neg, 0.3)
        assert peak.bytes < px.nbytes

    def test_the_epoch0_loss_and_validation_never_hold_the_global_rows(self, monkeypatch):
        """Both chunk their work: before, ``table_loss`` held the table's
        (n, 2D) global rows and their (n, Hg) hidden layer, and
        ``validation_set`` every fused prefix, for the run (2.9 and 1.8 MB
        here).  64-row chunks, since one 256-row chunk's fused arrays alone
        outweigh this 2,880-row table's global rows."""
        monkeypatch.setattr(verifier, "SCORE_CHUNK", 64)
        bundle, _ = generate(SynthConfig(n_identities=40, seed=1))
        table = triplet_table(bundle, build_train_pairs(bundle, num_candidates=20)[0])
        valid_pairs = build_eval_pairs(bundle, "VQ", "VG", num_candidates=20)
        model = VerifierModel.initialize(bundle.dims, seed=1)
        global_rows = len(table.pairs) * 2 * bundle.dims[0] * 8
        with PeakMemory() as peak:
            table_loss(model, table, 0.3)
        assert peak.bytes < global_rows
        with PeakMemory() as peak:
            validation_rank1(model, validation_set(bundle, valid_pairs, 20), 10)
        assert peak.bytes < global_rows

    def test_training_never_holds_the_fused_table(self):
        """``train`` fuses each batch, and the epoch-0 loss each
        ``SCORE_CHUNK`` rows, from an index-only table.  Before, it held the
        whole fused table, (2D + K * 2Dp) float64 per row, for the run."""
        bundle, _ = generate(SynthConfig(n_identities=40, seed=1))
        train_pairs = build_train_pairs(bundle, num_candidates=20)[0]
        valid_pairs = build_eval_pairs(bundle, "VQ", "VG", num_candidates=20)
        model = VerifierModel.initialize(bundle.dims, seed=1,
                                         hyper=TrainConfig(epochs=1))
        rows = len(triplet_table(bundle, train_pairs).pairs)
        d, dp, k = bundle.dims
        with PeakMemory() as peak:
            train(model, bundle, train_pairs, valid_pairs)
        assert peak.bytes < rows * (2 * d + k * 2 * dp) * 8


class TestHeadSeparation:
    def test_part_score_ignores_global_weights(self):
        q, g, _ = two_record_bundle()
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=12)
        before = score(model, q, g)[0]
        bumped = copied(model)
        bumped.global_hidden_w[...] += 3.7
        bumped.global_out_b[...] += 1.1
        assert score(bumped, q, g)[0] == before

    def test_global_score_ignores_part_weights(self):
        q, g, _ = two_record_bundle()
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=13)
        before = global_score(model, q, g)
        bumped = copied(model)
        bumped.part_mix_w[...] -= 2.0
        bumped.out_log_gain[...] += 0.5
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
            bumped = copied(model)
            bumped.part_mix_b[kstar] += 0.25
            s2, contrib2 = score(bumped, q, g)
            np.testing.assert_allclose(contrib2[kstar], contrib[kstar] + 0.25,
                                       rtol=1e-12)
            assert s2 > s


class TestTraining:
    def test_zero_learning_rate_keeps_initial_weights(self):
        model, bundle, train_pairs, valid_pairs = small_training_setup(
            epochs=3, learning_rate=0.0)
        initial = model.params.copy()
        trained, history = train(model, bundle, train_pairs, valid_pairs)
        np.testing.assert_array_equal(trained.params, initial)
        assert len(history) == 4 and history[0].epoch == 0

    def test_same_seed_is_bit_identical(self):
        runs = []
        for _ in range(2):
            model, bundle, train_pairs, valid_pairs = small_training_setup(
                seed=1, epochs=3)
            trained, history = train(model, bundle, train_pairs, valid_pairs)
            runs.append((trained.params.copy(), history))
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
            top = window_rerank([p.cand_index for p in ordered], scores, L, Q)[0]
            hits += next(p.label for p in ordered if p.cand_index == top)
            total += 1
        assert total > 0
        got = validation_rank1(model, validation_set(bundle, valid_pairs, Q), L)
        assert got == hits / total

    @pytest.mark.parametrize("scores, L, first", [
        # Tied scores: the better retrieval rank wins.
        ([0.5, 0.9, 0.9, 0.1], 4, 1),
        # A NaN challenger never wins.
        ([0.5, np.nan, 0.9, 0.1], 4, 2),
        ([0.5, np.nan, 0.2], 3, 0),
        ([-np.inf, np.nan, -np.inf], 3, 0),
        # A NaN first entry is never beaten.
        ([np.nan, 0.9, 0.9], 3, 0),
        # Only the first L positions compete.
        ([0.1, 0.2, 0.9], 2, 1),
    ])
    def test_validation_rank1_takes_the_window_first_pick(self, monkeypatch, scores, L,
                                                          first):
        from rvrank.reranker import window_rerank
        depth = len(scores)
        assert window_rerank(np.arange(depth), np.array(scores), L, depth)[0] == first
        monkeypatch.setattr(verifier, "fuse", lambda *_: ())
        monkeypatch.setattr(verifier, "batch_scores", lambda *_: np.array(scores))
        index = np.zeros(depth, dtype=np.int64)
        for positive in range(depth):
            labels = (np.arange(depth) == positive).astype(np.int64)
            valid = verifier.ValidationSet([labels], depth, None, None, index, index)
            assert validation_rank1(None, valid, L) == float(positive == first)

    def test_out_of_range_row_of_a_query_without_positive_raises(self):
        _, bundle, _, valid_pairs = small_training_setup()
        pairs = valid_pairs.pairs.copy()
        row = int(np.flatnonzero(pairs["label"] == 0)[0])
        pairs["query_index"][row] = -1
        with pytest.raises(ValueError,
                           match=f"pair row {row}: index -1 out of range for role VQ"):
            validation_set(bundle, PairSet(pairs), 20)

    def test_a_validation_set_without_positives_raises(self):
        _, bundle, _, valid_pairs = small_training_setup()
        pairs = valid_pairs.pairs.copy()
        pairs["label"] = 0
        for rows in (pairs, pairs[:0]):
            with pytest.raises(ValueError, match="no query has a positive candidate"):
                validation_set(bundle, PairSet(rows), 20)

    def test_training_fuses_by_index_and_never_calls_pair_arrays(self, monkeypatch):
        model, bundle, train_pairs, valid_pairs = small_training_setup(epochs=3)
        monkeypatch.setattr(verifier, "pair_arrays", None)
        validated = []
        real_validation = verifier.validation_rank1
        monkeypatch.setattr(verifier, "validation_rank1",
                            lambda *a: validated.append(1) or real_validation(*a))
        train(model, bundle, train_pairs, valid_pairs)
        # one validation per epoch, the untrained epoch 0 included
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
                    [1e308, -1e308] * (bundle.dims[0] // 2), dtype=np.float32)
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

    def test_a_header_that_cannot_be_packed_leaves_no_file(self, tmp_path):
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=25)
        unpackable = dataclasses.replace(model, seed=2**63, params=model.params.copy())
        path = tmp_path / "m.bin"
        with pytest.raises(struct.error):
            save_model(path, unpackable)
        assert not path.exists()

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
        with PeakMemory() as peak, pytest.raises(ValueError, match="payload"):
            load_model(path)
        assert peak.bytes < 4 * 2**20, f"peak {peak.bytes} bytes"

    def test_non_finite_weight_is_rejected_naming_its_tensor(self, tmp_path):
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=24)
        path = tmp_path / "m.bin"
        save_model(path, model)
        data = path.read_bytes()
        payload_at = len(data) - 4 * model.params.size
        nan = struct.pack("<f", float("nan"))
        for offset, name in ((len(data) - 4, "out_bias"),
                             (payload_at, "global_hidden_w"),
                             (payload_at + 4 * model.global_hidden_w.size, "global_hidden_b")):
            path.write_bytes(data[:offset] + nan + data[offset + 4:])
            with pytest.raises(ValueError) as info:
                load_model(path)
            assert str(info.value) == f"{path}: non-finite value in weight tensor {name}"

    def test_zero_batch_size_in_the_header_is_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(path, VerifierModel.initialize((4, 3, 5), 8, 7, seed=25))
        data = bytearray(path.read_bytes())
        # dims, seed, margin, learning rate and epochs precede the batch size
        at = len(MODEL_MAGIC) + struct.calcsize("<5Iq2dI")
        data[at:at + 4] = bytes(4)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: batch_size must be at least 1, got 0"

    @pytest.mark.parametrize("name", ["margin", "learning_rate", "decay_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_hyperparameter_is_named(self, tmp_path, name, value):
        with pytest.raises(ValueError) as info:
            TrainConfig(**{name: value})
        assert str(info.value) == f"{name} must be finite, got {value}"
        # The same value in a checkpoint header is rejected by name too.
        path = tmp_path / "m.bin"
        save_model(path, VerifierModel.initialize((4, 3, 5), 8, 7, seed=26))
        data = bytearray(path.read_bytes())
        # dims and seed precede margin and learning rate; the batch size
        # precedes the decay factor.
        at = len(MODEL_MAGIC) + struct.calcsize({"margin": "<5Iq",
                                                 "learning_rate": "<5Iqd",
                                                 "decay_factor": "<5Iq2d2I"}[name])
        data[at:at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: {name} must be finite, got {value}"

    def test_hidden_sizes_of_zero_save_and_load(self, tmp_path):
        model = VerifierModel.initialize((4, 3, 5), 0, 0, seed=0)
        path = tmp_path / "m.bin"
        save_model(path, model)
        assert np.array_equal(load_model(path).params, model.params.astype(np.float32))


class TestWeightVector:
    """``params`` and its tensor views.  The saved bytes of two models are
    pinned, so a change of draw order, layout or SGD arithmetic shows."""

    INIT_SHA256 = "3ef3bfc33e1861fcb36249185591be49ed8cfb037120a938c388335693bb5b6b"
    TRAINED_SHA256 = "b2bdce0bc6188a7cc42838c71d306a0b1a32dba8ab39729666fe07d4c002e0b5"

    @staticmethod
    def saved(model, tmp_path):
        path = tmp_path / "m.bin"
        save_model(path, model)
        return path.read_bytes()

    def test_initial_weights_are_pinned(self, tmp_path):
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=0)
        digest = hashlib.sha256(self.saved(model, tmp_path)).hexdigest()
        assert digest == self.INIT_SHA256

    def test_trained_weights_are_pinned(self, tmp_path):
        model, bundle, train_pairs, valid_pairs = small_training_setup(epochs=2)
        trained, _ = train(model, bundle, train_pairs, valid_pairs)
        digest = hashlib.sha256(self.saved(trained, tmp_path)).hexdigest()
        assert digest == self.TRAINED_SHA256

    def test_tensors_are_views_into_params(self, tmp_path):
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=0)
        before = self.saved(model, tmp_path)
        params = model.params.copy()
        model.part_mix_b[2] += 0.5
        [changed] = np.flatnonzero(model.params != params)
        assert model.params[changed] == params[changed] + 0.5 == model.part_mix_b[2]
        assert self.saved(model, tmp_path) != before

    def test_tensor_names_cannot_be_rebound(self):
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.out_bias = np.zeros(())
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.params = np.zeros_like(model.params)

    def test_params_of_the_wrong_size_are_rejected(self):
        model = VerifierModel.initialize((4, 3, 5), 8, 7, seed=0)
        with pytest.raises(ValueError, match="params must be"):
            dataclasses.replace(model, params=model.params[:-1].copy())

    def test_non_finite_values_are_named_by_their_tensor(self):
        # Dp = 0 makes part_hidden_w empty; a value after it is still named
        # by the tensor that holds it.
        model = VerifierModel.initialize((4, 0, 5), 8, 7, seed=0)
        assert model.part_hidden_w.size == 0
        assert model.nonfinite_tensor(model.params) is None
        for name, view in model.views(model.params).items():
            if view.size:
                vec = np.zeros_like(model.params)
                model.views(vec)[name].flat[-1] = np.inf
                vec[-1] = np.nan
                assert model.nonfinite_tensor(vec) == name


class TestTrainConfig:
    @pytest.mark.parametrize("fields, message", [
        ({"batch_size": 0}, "batch_size must be at least 1, got 0"),
        ({"batch_size": -3}, "batch_size must be at least 1, got -3"),
        ({"epochs": -1}, "epochs must be in 0..4294967295 (u32), got -1"),
        ({"batch_size": 2**32}, "batch_size must be in 0..4294967295 (u32), got 4294967296"),
        ({"decay_epochs": (3, -2)}, "decay_epochs must be in 0..4294967295 (u32), got -2"),
    ])
    def test_values_that_cannot_train_or_be_saved_are_rejected(self, fields, message):
        with pytest.raises(ValueError) as info:
            TrainConfig(**fields)
        assert str(info.value) == message

    def test_the_largest_u32_values_round_trip(self, tmp_path):
        hyper = TrainConfig(epochs=2**32 - 1, batch_size=2**32 - 1,
                            decay_epochs=(0, 2**32 - 1))
        path = tmp_path / "m.bin"
        save_model(path, VerifierModel.initialize((4, 3, 5), 8, 7, seed=0, hyper=hyper))
        assert load_model(path).hyper == hyper
