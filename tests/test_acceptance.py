"""Acceptance suite: one test per release criterion.

Each test states its tolerance inline.  The frozen benchmark scenario
(``conftest.SCENARIO``) and the regression constants in this file were
measured once on the reference implementation and must not drift.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest

from conftest import (SCENARIO, eligible_orders, oracle_metrics, oracle_scores,
                      pairwise, random_bundle, table_records, triplet_loss)
from rvrank.datastore import build_bundle
from rvrank.evaluation import evaluate
from rvrank.reranker import (
    RankedList,
    RankingConfig,
    kreciprocal_rerank,
    rerank_pipeline,
    sweep_L,
    window_rerank,
)
from rvrank.retrieval import build_eval_pairs, build_train_pairs
from rvrank.synthgen import generate, oracle_scorer
from rvrank.verifier import (
    TrainConfig,
    VerifierModel,
    train,
    triplet_loss_and_grads,
    triplet_table,
)

# Measured once on the frozen scenario (140 identities, seed 0) and pinned.
SCENARIO_RETRIEVAL_RANK1 = 28 / 126


@pytest.fixture(scope="module")
def scenario_setup(scenario):
    """Scenario bundle plus its mined pairs and retrieval baseline."""
    bundle, truth = scenario
    train_pairs, dropped = build_train_pairs(bundle, num_candidates=20)
    assert dropped == []
    valid_pairs = build_eval_pairs(bundle, "VQ", "VG", num_candidates=20)
    baseline = rerank_pipeline(bundle, None, RankingConfig(), stages=())
    base_report = evaluate(bundle, baseline, k_max=10)
    return bundle, truth, train_pairs, valid_pairs, baseline, base_report


def test_window_invariants_hold_on_random_instances():
    """1,000 random rankings: permutation safety, identity at L=1, full sort
    at L=Q, untouched suffix, and promotion bounded by max(1, r - L + 1);
    the whole sweep must finish inside 5 seconds."""
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 41))
        entries = [int(g) for g in rng.permutation(200)[:n]]
        q = int(rng.integers(1, 46))
        width = int(rng.integers(1, q + 1))
        if rng.random() < 0.3:  # discrete scores exercise tie handling
            table = {g: float(rng.integers(0, 4)) for g in entries}
        else:
            table = {g: float(rng.normal()) for g in entries}
        depth = min(q, n)
        scores = [table[g] for g in entries[:depth]]

        out = window_rerank(entries, scores, width, q).tolist()
        assert sorted(out) == sorted(entries)

        assert out[depth:] == entries[depth:]
        for new_pos, g in enumerate(out[:depth], start=1):
            old_pos = entries.index(g) + 1
            assert new_pos >= max(1, old_pos - width + 1)

        assert window_rerank(entries, scores, 1, q).tolist() == entries

        full = window_rerank(entries, scores, q, q).tolist()
        want = sorted(entries[:depth],
                      key=lambda g: (-table[g], entries.index(g)))
        assert full[:depth] == want
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"window invariant sweep took {elapsed:.2f}s"


def test_window_reorders_the_worked_example():
    """Four entries, window 2: the top-scoring last entry can only surface
    after the window reaches it, giving [a, b, c, d] -> [b, c, d, a]."""
    scores = [0.1, 0.9, 0.5, 0.8]
    assert window_rerank([0, 1, 2, 3], scores, L=2, Q=4).tolist() == [1, 2, 3, 0]


def test_rank10_is_flat_once_the_window_covers_the_tail(scenario_setup):
    """At depth Q=20 every window width L in 11..20 must yield exactly the
    same Rank-10 (same top-10 set), even for an arbitrary scorer."""
    bundle, truth, *_ = scenario_setup
    untrained = VerifierModel.initialize(bundle.dims, seed=0)
    widths = list(range(11, 21))
    rows = sweep_L(bundle, untrained, RankingConfig(P=20, L=10, Q=20), widths)
    rank10 = [r[2] for r in rows]
    assert len(set(rank10)) == 1, f"rank10 varies across widths: {rank10}"
    # Rank-1 does move with L here, so the flat Rank-10 is structural, not
    # an artefact of saturated scores.
    assert len({r[1] for r in rows}) > 1

    # With the planted-truth scorer the curve saturates, and the width-10
    # row already agrees with every wider window.
    oracle_rows = sweep_L(bundle, oracle_scorer(truth),
                          RankingConfig(P=20, L=10, Q=20), [10] + widths)
    assert len({r[2] for r in oracle_rows}) == 1


def test_frozen_benchmark_separates_retrieval_from_verification(scenario_setup):
    """On the frozen scenario plain retrieval stays at or below 0.6 Rank-1
    while the planted-truth scorer fixes every query whose candidate window
    contains a positive (conditional Rank-1 exactly 1.0)."""
    bundle, truth, _, _, baseline, base_report = scenario_setup
    test_identities = {r.identity for r in bundle.splits["Q"]}
    assert len(test_identities) >= 40

    assert base_report.cmc[0] <= 0.6
    np.testing.assert_allclose(base_report.cmc[0], SCENARIO_RETRIEVAL_RANK1,
                               rtol=1e-12)

    ranked = rerank_pipeline(bundle, oracle_scorer(truth),
                             RankingConfig(P=20, L=20, Q=20),
                             stages=("window",))
    gallery = bundle.splits["G"]
    covered = hits = 0
    for query, base_rl, oracle_rl in zip(bundle.splits["Q"], baseline, ranked):
        window = base_rl.order[:20]
        if not any(gallery[g].identity == query.identity for g in window):
            continue
        covered += 1
        hits += int(gallery[oracle_rl.order[0]].identity == query.identity)
    assert covered > 0
    assert hits == covered, f"conditional rank-1 {hits}/{covered} != 1.0"


def test_training_lifts_rank1_over_retrieval(scenario_setup):
    """Five seeds of the full training recipe must beat retrieval Rank-1 by
    at least 5 points on average, within a 10 minute budget."""
    bundle, _, train_pairs, valid_pairs, _, base_report = scenario_setup
    start = time.perf_counter()
    scores = []
    for seed in range(5):
        model = VerifierModel.initialize(bundle.dims, seed=seed,
                                         hyper=TrainConfig())
        model, _ = train(model, bundle, train_pairs, valid_pairs)
        ranked = rerank_pipeline(bundle, model, RankingConfig(),
                                 stages=("window",))
        scores.append(evaluate(bundle, ranked, k_max=1).cmc[0])
    elapsed = time.perf_counter() - start
    lift = float(np.mean(scores)) - base_report.cmc[0]
    assert lift >= 0.05, f"mean lift {lift:.4f} below 5 points ({scores})"
    assert elapsed < 600.0, f"training sweep took {elapsed:.1f}s"


def test_analytic_gradients_match_finite_differences():
    """100 random configurations kept at least 1e-3 away from hinge kinks
    and pooling switches: central differences within 1e-4 relative error."""
    rng = np.random.default_rng(77)
    accepted = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 600, f"only {accepted} usable configurations found"
        dims = (int(rng.integers(2, 4)), int(rng.integers(1, 3)),
                int(rng.integers(3, 5)))
        d, dp, k = dims
        n_img = 8
        rows = [(i, "T", i % 4, i // 4, 0) for i in range(n_img)]
        present = rng.random((n_img, k)) < 0.85
        bundle = build_bundle(rows, rng.normal(size=(n_img, d)),
                              present, rng.normal(size=(n_img, k, dp)))
        pair_set, _ = build_train_pairs(bundle, num_candidates=3)
        if not len(pair_set.pairs):
            continue
        table = triplet_table(bundle, pair_set)
        anchors = np.arange(min(3, len(table)))
        pos_index, neg_index = table.triplets(anchors)
        if len(pos_index) == 0:
            continue
        model = VerifierModel.initialize(dims, int(rng.integers(3, 5)),
                                         int(rng.integers(3, 5)),
                                         seed=int(rng.integers(1 << 16)))
        margin = float(rng.uniform(0.2, 0.4))

        # Distance to the nearest non-smooth point of the loss surface,
        # from the scalar oracle over the pairs the triplets use.
        sg = np.full(len(table.query_index), np.nan)
        sp = np.full(len(table.query_index), np.nan)
        gaps = []
        for row in np.unique(np.concatenate([pos_index, neg_index])):
            _, sg[row], sim_s, contrib = oracle_scores(model, *table_records(table, row))
            if sim_s is None:
                continue
            sp[row] = sim_s
            finite = np.sort(np.asarray(contrib)[np.isfinite(contrib)])[::-1]
            if finite.size >= 2:
                gaps.append(finite[0] - finite[1])
        zg = sg[neg_index] - sg[pos_index] + margin
        part_ok = np.isfinite(sp[pos_index]) & np.isfinite(sp[neg_index])
        zp = (sp[neg_index] - sp[pos_index] + margin)[part_ok]
        kink = min([np.abs(zg).min(), *([np.abs(zp).min()] if zp.size else []),
                    *gaps])
        active = (zg > 0).any() or (zp > 0).any()
        if kink < 1e-3 or not active:
            continue
        accepted += 1

        # The batch train() takes an SGD step on.
        batch = table.batch(anchors)
        _, analytic = triplet_loss_and_grads(model, *batch, margin)
        base = model.params.copy()
        h = 1e-6
        numeric = np.zeros_like(base)
        for i in range(base.size):
            for sign in (1.0, -1.0):
                vec = base.copy()
                vec[i] += sign * h
                model.params[:] = vec
                numeric[i] += sign * triplet_loss(model, *batch, margin)[0] / (2 * h)
        model.params[:] = base
        err = np.linalg.norm(numeric - analytic) / \
            max(np.linalg.norm(numeric), 1e-12)
        assert err < 1e-4, f"config {accepted}: relative error {err:.2e}"


def test_metrics_match_a_scalar_oracle():
    """200 random instances (up to 50 queries x 200 gallery): CMC, mAP and
    AUC agree with plain-loop references within 1e-9."""
    rng = np.random.default_rng(88)
    for _ in range(200):
        bundle = random_bundle(rng,
                               n_query=int(rng.integers(1, 51)),
                               n_gallery=int(rng.integers(5, 201)),
                               n_identities=int(rng.integers(2, 21)),
                               n_cloths=int(rng.integers(1, 5)),
                               dims=(4, 2, 3))
        orders = eligible_orders(rng, bundle)
        ranked = [RankedList(order) for order in orders]
        k_max = int(rng.integers(1, 11))
        report = evaluate(bundle, ranked, k_max=k_max)
        cmc, map_score, auc, excluded = oracle_metrics(bundle, orders, k_max)
        np.testing.assert_allclose(report.cmc, cmc, atol=1e-9)
        np.testing.assert_allclose(report.map_score, map_score, atol=1e-9)
        np.testing.assert_allclose(report.auc, auc, atol=1e-9)
        assert report.excluded_queries == excluded


def test_reciprocal_free_instance_and_full_blend_change_nothing():
    """A cyclic asymmetric instance has no reciprocal neighbours: every
    overlap distance is exactly 1 and the blended ranking equals the
    original.  A full blend (lam=1) must return the original block bit for
    bit on any instance."""
    n = 6
    dist = np.array([[(j - i) % n for j in range(n)] for i in range(n)],
                    dtype=np.float64)
    jacc = kreciprocal_rerank(dist, 2, k1=1, k2=1, lam=0.0)
    np.testing.assert_array_equal(jacc, np.ones((2, 4)))
    blended = kreciprocal_rerank(dist, 2, k1=1, k2=1, lam=0.3)
    for qi in range(2):
        np.testing.assert_array_equal(
            np.argsort(blended[qi], kind="stable"),
            np.argsort(dist[qi, 2:], kind="stable"))

    rng = np.random.default_rng(99)
    pts = rng.normal(size=(12, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    full = np.sqrt((diff ** 2).sum(axis=2))
    passthrough = kreciprocal_rerank(full, 5, k1=4, k2=3, lam=1.0)
    np.testing.assert_array_equal(passthrough, full[:5, 5:])


def test_scoring_cost_is_window_bounded_and_linear():
    """The window stage passes the scorer exactly min(Q, eligible) pairs per
    query, and wall-clock time over 100/400/1600 queries fits a straight
    line with R^2 > 0.99."""
    # Exact call counting on a bundle with deliberately uneven eligibility.
    rows = [(i, "Q", i, 0, 0) for i in range(4)]
    feats = np.random.default_rng(5).normal(size=(34, 3))
    gallery_rows = []
    for j in range(30):
        if j < 25:
            ident, cloth = (0, 0) if j < 22 else (j, 1)
        else:
            ident, cloth = j, 1
        gallery_rows.append((j, "G", ident, cloth, 1))
    bundle = build_bundle(rows + gallery_rows, feats)

    calls: dict[int, int] = {}

    def counting(query, cand):
        calls[query.index] = calls.get(query.index, 0) + 1
        return float(cand.index)

    for q_depth in (12, 20):
        calls.clear()
        rerank_pipeline(bundle, pairwise(counting),
                        RankingConfig(P=30, L=5, Q=q_depth),
                        stages=("window",))
        for query in bundle.splits["Q"]:
            eligible = sum(1 for g in bundle.splits["G"]
                           if not (g.identity == query.identity
                                   and g.cloth == query.cloth))
            assert calls[query.index] == min(q_depth, eligible), \
                f"query {query.index} at Q={q_depth}"

    # Linearity in the number of queries at fixed Q and gallery.
    rng = np.random.default_rng(123)
    n_gallery, d, dp, k = 300, 16, 4, 8
    gallery_rows = [(j, "G", 10_000 + j, 0, 1) for j in range(n_gallery)]
    gallery_feats = rng.normal(size=(n_gallery, d))
    present = np.ones((n_gallery, k), dtype=bool)
    gallery_parts = rng.normal(size=(n_gallery, k, dp))
    model = VerifierModel.initialize((d, dp, k), 8, 8, seed=0)
    cfg = RankingConfig(P=n_gallery, L=10, Q=20)

    sizes = (100, 400, 1600)
    all_feats = rng.normal(size=(max(sizes), d))
    all_parts = rng.normal(size=(max(sizes), k, dp))
    times = []
    for nq in sizes:
        q_rows = [(i, "Q", 20_000 + i, 0, 0) for i in range(nq)]
        bundle = build_bundle(
            q_rows + gallery_rows,
            np.vstack([all_feats[:nq], gallery_feats]),
            np.vstack([np.ones((nq, k), dtype=bool), present]),
            np.vstack([all_parts[:nq], gallery_parts]))
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            rerank_pipeline(bundle, model, cfg, stages=("window",))
            best = min(best, time.perf_counter() - t0)
        times.append(best)

    ns = np.asarray(sizes, dtype=np.float64)
    ts = np.asarray(times)
    slope, intercept = np.polyfit(ns, ts, 1)
    fitted = slope * ns + intercept
    ss_res = float(((ts - fitted) ** 2).sum())
    ss_tot = float(((ts - ts.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot
    assert slope > 0
    assert r_squared > 0.99, f"times {times} give R^2 {r_squared:.4f}"


#: sha256 of every artifact of the pipeline below.  A change that alters an
#: artifact's bytes on purpose updates its digest here and names the change
#: in CHANGES.md.  The pair CSVs and candidates.csv were last changed by
#: dropping the pair files' score column; ranked.csv by becoming a binary
#: RVK1 file, whose config moved to ranked.csv.config.json; every other
#: digest predates both.
PIPELINE_SHA256 = {
    "candidates.csv": "75a597148dfd81f7cbccd412d00d5fe38127e36520d66270953676dcd828bd8f",
    "data/features.bin": "6e41e01590c932bc99bc3dc4dfdf1bb9883e1709a1c4b71a946f6a324645bec6",
    "data/features.bin.config.json":
        "42e9d341a12df8daa49a38386bed75cf6b5e08aa67718aec110cd4e2fea9e080",
    "data/meta.csv": "434fdcfa8ea8a4c807ca073e2b6be2714f9301165b5b06bbe539408cd915863a",
    "data/parts.bin": "c5d8d9bfea3500eef9b07f91f6107b42ad4aabaec704ac291170dc586acad700",
    "data/parts.bin.config.json":
        "42e9d341a12df8daa49a38386bed75cf6b5e08aa67718aec110cd4e2fea9e080",
    "model/history.csv": "1b2f25bb24204e57e86b69bc3a68314aa5e27dd51ac1bddd91da729981cbf456",
    "model/model.bin": "d94bcf89cabbfcac292a3e128f590b8a01ae9cb986be1018e4db4f5a26540b8d",
    "model/model.bin.config.json":
        "ab183c65ebb5f7f7a63649e2fa660e159be85ca3e74746543b2dfdfed11cacdc",
    "pairs/test_pairs.csv": "57eabd834a490b3667f673f88175d8654ee4f56ac7afa28d2bbef20968da3f22",
    "pairs/train_pairs.csv": "d1bbd81ec61395e4b6a0c0c7cb62baf94203ab6a8f6614ee24a82dd7be533a68",
    "pairs/valid_pairs.csv": "32843546f1ade00e4be3a617fd9f3e236e74398b81f51772d80a1b9e0b944db2",
    "per_query.csv": "5e09d60577d36eec1534f97aaed8b0418b828f8486f7029aa56b73b4548e187b",
    "ranked.csv": "4f5311ddaa53757614238a2adff614f083440a3ddd30099c59997d2e7164eedb",
    "ranked.csv.config.json":
        "e229f1f2eaeb64315bf77ec0789760aac39d156a56511fd2ff744dd245741904",
    "report.json": "a4107248f65c50ef98bfc0954d5e9dd17bc1e440b6a1af74a46c1e80ab3a8b11",
    "sweep.csv": "74e0a3a54009c0226537b3840f8a8d3022b69a37a3654a829a6dd0dc020bc3f8",
}


def test_identical_seeds_reproduce_every_artifact(tmp_path, monkeypatch):
    """Running the full command pipeline twice with the same seeds must
    reproduce every artifact byte for byte, and the bytes must match
    ``PIPELINE_SHA256``.  Each run works in an empty directory with
    relative paths, so the recorded configs do not depend on it."""
    from rvrank.cli import main

    bundle_flags = ["--meta", "data/meta.csv", "--features", "data/features.bin",
                    "--parts", "data/parts.bin"]
    steps = [
        ["synth", "--out", "data", "--n-identities", "12",
         "--feature-dim", "12", "--part-dim", "4", "--part-count", "6",
         "--seed", "7"],
        ["retrieve", *bundle_flags, "--out", "candidates.csv", "--P", "10"],
        ["pairs", *bundle_flags, "--out", "pairs", "--P", "10"],
        ["train", *bundle_flags,
         "--train-pairs", "pairs/train_pairs.csv",
         "--valid-pairs", "pairs/valid_pairs.csv",
         "--out", "model", "--epochs", "8",
         "--hidden-global", "12", "--hidden-part", "12",
         "--L", "5", "--Q", "10", "--seed", "7"],
        ["rerank", *bundle_flags, "--model", "model/model.bin",
         "--out", "ranked.csv", "--stages", "both",
         "--P", "10", "--L", "5", "--Q", "10", "--k1", "5", "--k2", "2"],
        ["eval", *bundle_flags, "--ranked", "ranked.csv",
         "--out", "report.json", "--per-query", "per_query.csv"],
        ["sweep-l", *bundle_flags, "--model", "model/model.bin",
         "--out", "sweep.csv", "--L-values", "1,5,10",
         "--P", "10", "--Q", "10"],
    ]

    def run_all(name):
        ws = tmp_path / name
        ws.mkdir()
        monkeypatch.chdir(ws)
        for argv in steps:
            assert main(argv) == 0, f"step failed: {argv[0]}"
        return {p.relative_to(ws).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(ws.rglob("*")) if p.is_file()}

    first = run_all("first")
    assert run_all("second") == first
    assert first == PIPELINE_SHA256
