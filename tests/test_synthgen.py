"""Synthetic benchmark generator: structure, determinism and difficulty."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from rvrank.cli import main
from rvrank.datastore import write_bundle
from rvrank.evaluation import evaluate
from rvrank.reranker import RankingConfig, rerank_pipeline
from rvrank.synthgen import (
    SynthConfig,
    generate,
    oracle_scorer,
    split_identity_counts,
)


def retrieval_rank1(bundle):
    ranked = rerank_pipeline(bundle, None, RankingConfig(), stages=())
    return evaluate(bundle, ranked, k_max=1).cmc[0]


class TestStructure:
    def test_split_counts_follow_the_fractions(self):
        assert split_identity_counts(10) == (5, 2, 3)
        assert split_identity_counts(140) == (70, 28, 42)
        assert split_identity_counts(5) == (2, 1, 2)

    def test_tiny_populations_raise(self):
        with pytest.raises(ValueError):
            split_identity_counts(2)
        with pytest.raises(ValueError):
            SynthConfig(n_identities=3).validate()

    def test_splits_are_identity_disjoint(self):
        bundle, truth = generate(SynthConfig(n_identities=12, seed=3))
        ids = {role: {r.identity for r in bundle.splits[role]}
               for role in ("T", "VQ", "VG", "Q", "G")}
        assert ids["T"] & (ids["Q"] | ids["G"]) == set()
        assert ids["T"] & (ids["VQ"] | ids["VG"]) == set()
        assert (ids["VQ"] | ids["VG"]) & (ids["Q"] | ids["G"]) == set()
        assert ids["VQ"] <= ids["VG"] and ids["Q"] <= ids["G"]

    def test_confuser_groups_never_span_splits(self):
        _, truth = generate(SynthConfig(n_identities=17,
                                        confuser_group_size=4, seed=4))
        split_of = truth.split_of_identity
        for group in set(truth.group_of_identity):
            members = [i for i, g in enumerate(truth.group_of_identity)
                       if g == group]
            assert len({split_of[i] for i in members}) == 1

    def test_queries_are_one_slot_per_identity_cloth(self):
        cfg = SynthConfig(n_identities=10, clothes_per_identity=3,
                          images_per_cloth=2, seed=5)
        bundle, truth = generate(cfg)
        n_test = sum(1 for s in truth.split_of_identity if s == "test")
        assert len(bundle.splits["Q"]) == n_test * cfg.clothes_per_identity
        assert len(bundle.splits["G"]) == n_test * cfg.clothes_per_identity
        cameras = {(r.identity, r.cloth, r.camera) for r in bundle.splits["Q"]}
        assert len(cameras) == len(bundle.splits["Q"])

    def test_part_dropout_rate_is_respected(self):
        cfg = SynthConfig(n_identities=20, part_dropout=0.4, seed=7)
        bundle, _ = generate(cfg)
        rate = np.mean(np.concatenate([s.present for s in bundle.splits.values()]))
        assert abs(rate - 0.6) < 0.05
        full, _ = generate(SynthConfig(n_identities=8, part_dropout=0.0, seed=8))
        assert all(s.present.all() for s in full.splits.values())


class TestDeterminism:
    def test_same_seed_is_identical_in_memory(self):
        a, _ = generate(SynthConfig(n_identities=9, seed=11))
        b, _ = generate(SynthConfig(n_identities=9, seed=11))
        for role, sa in a.splits.items():
            sb = b.splits[role]
            np.testing.assert_array_equal(sa.features, sb.features)
            np.testing.assert_array_equal(sa.present, sb.present)
            np.testing.assert_array_equal(sa.vectors, sb.vectors)

    def test_same_seed_is_byte_identical_on_disk(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            bundle, _ = generate(SynthConfig(n_identities=9, seed=12))
            write_bundle(bundle, tmp_path / sub / "meta.csv",
                         tmp_path / sub / "feat.bin", tmp_path / sub / "parts.bin")
        for name in ("meta.csv", "feat.bin", "parts.bin"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_different_seeds_differ(self):
        a, _ = generate(SynthConfig(n_identities=9, seed=13))
        b, _ = generate(SynthConfig(n_identities=9, seed=14))
        assert any(not np.array_equal(a.splits[role].features, b.splits[role].features)
                   for role in a.splits)


class TestGroundTruth:
    def test_a_synth_directory_regenerates_from_its_config(self, tmp_path):
        # The recorded config fixes the bundle, and so the planted truth
        # generate() returns with it.
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--n-identities", "9", "--seed", "21",
                     "--part-count", "4", "--part-dropout", "0.3"]) == 0
        recorded = json.loads((data / "features.bin.config.json").read_text())["config"]
        config = SynthConfig(**{f.name: recorded[f.name]
                                for f in dataclasses.fields(SynthConfig)})
        bundle, _ = generate(config)
        again = tmp_path / "again"
        again.mkdir()
        write_bundle(bundle, again / "meta.csv", again / "features.bin", again / "parts.bin")
        for name in ("meta.csv", "features.bin", "parts.bin"):
            got, want = ((d / name).read_bytes() for d in (again, data))
            if name == "meta.csv":  # the synth file leads with its config comment
                want = want.split(b"\n", 1)[1]
            assert got == want, name
        assert sorted(p.name for p in data.iterdir()) == [
            "features.bin", "features.bin.config.json", "meta.csv", "parts.bin",
            "parts.bin.config.json"]

    def test_oracle_scorer_pins_same_identity_to_one(self):
        bundle, truth = generate(SynthConfig(n_identities=9, seed=22))
        score = oracle_scorer(truth)
        queries = bundle.splits["Q"]
        gallery = bundle.splits["G"]
        query_index = np.repeat(np.arange(4), len(gallery))
        gallery_index = np.tile(np.arange(len(gallery)), 4)
        s = score(queries, query_index, gallery, gallery_index)
        same = queries.identity[query_index] == gallery.identity[gallery_index]
        assert same.any() and not same.all()
        assert (s[same] == 1.0).all()
        assert (s[~same] < 1.0).all()


class TestDifficulty:
    def test_no_cloth_shift_and_no_noise_is_trivial(self):
        cfg = SynthConfig(n_identities=10, cloth_shift=0.0, general_noise=0.0,
                          detail_noise=0.0, seed=31)
        bundle, _ = generate(cfg)
        assert retrieval_rank1(bundle) == 1.0

    def test_difficulty_grows_with_cloth_shift(self):
        # Averaged over seeds in a regime where the shift, not the ambient
        # noise, dominates: mean rank-1 must fall as the shift grows.
        means = []
        for shift in (0.0, 0.8, 2.0):
            scores = []
            for seed in range(5):
                cfg = SynthConfig(n_identities=60, cloth_shift=shift,
                                  general_noise=0.15, seed=seed)
                bundle, _ = generate(cfg)
                scores.append(retrieval_rank1(bundle))
            means.append(np.mean(scores))
        assert means[0] >= means[1] >= means[2]

    def test_planted_details_survive_the_cloth_change(self):
        # Strong cloth shift sinks retrieval, yet identity is still fully
        # decided by the part details the generator plants.
        cfg = SynthConfig(n_identities=20, cloth_shift=1.5, detail_noise=0.0,
                          confuser_group_size=4, seed=32)
        bundle, truth = generate(cfg)
        assert retrieval_rank1(bundle) < 0.9
        ranked = rerank_pipeline(bundle, oracle_scorer(truth),
                                 RankingConfig(P=20, L=20, Q=20),
                                 stages=("window",))
        report = evaluate(bundle, ranked, k_max=1)
        assert report.cmc[0] == 1.0

    def test_config_validation_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SynthConfig(n_identities=10, part_dropout=1.0).validate()
        with pytest.raises(ValueError):
            SynthConfig(n_identities=10, cloth_shift=-0.5).validate()
        with pytest.raises(ValueError):
            SynthConfig(n_identities=10, images_per_cloth=0).validate()
