"""Round-trip and validation tests for the on-disk bundle formats."""

from __future__ import annotations

import dataclasses
import struct

import numpy as np
import pytest

from conftest import random_bundle
from rvrank.datastore import (
    DEFAULT_PART_COUNT,
    BundleFormatError,
    DatasetBundle,
    ImageRecord,
    build_bundle,
    load_bundle,
    read_feature_file,
    read_parts_file,
    validate_bundle,
    write_bundle,
    write_feature_file,
    write_parts_file,
)
from rvrank.evaluation import SWEEP_HEADER, read_sweep_csv
from rvrank.reranker import RANKED_HEADER, read_ranked_csv
from rvrank.retrieval import PAIR_HEADER, read_pairs_csv


def write_and_reload(bundle, tmp_path, expected_dims=None):
    paths = (tmp_path / "meta.csv", tmp_path / "feat.bin", tmp_path / "parts.bin")
    write_bundle(bundle, *paths)
    return load_bundle(*paths, expected_dims=expected_dims), paths


class TestRoundTrip:
    def test_memory_disk_memory_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        bundle = random_bundle(rng, n_query=3, n_gallery=9)
        loaded, _ = write_and_reload(bundle, tmp_path)
        assert loaded.dims == bundle.dims
        for role in bundle.splits:
            assert len(loaded.splits[role]) == len(bundle.splits[role])
            for a, b in zip(bundle.splits[role], loaded.splits[role]):
                assert (a.index, a.identity, a.cloth, a.camera) == \
                       (b.index, b.identity, b.cloth, b.camera)
                np.testing.assert_array_equal(a.global_feature, b.global_feature)
                np.testing.assert_array_equal(a.part_present, b.part_present)
                np.testing.assert_array_equal(a.part_vectors, b.part_vectors)

    def test_disk_memory_disk_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        bundle = random_bundle(rng, n_query=2, n_gallery=6, part_presence=0.7)
        loaded, paths = write_and_reload(bundle, tmp_path)
        first = [p.read_bytes() for p in paths]
        write_bundle(loaded, *paths)
        second = [p.read_bytes() for p in paths]
        assert first == second

    def test_repeated_writes_are_byte_identical(self, tmp_path):
        rng = np.random.default_rng(13)
        bundle = random_bundle(rng, n_query=2, n_gallery=5)
        _, paths = write_and_reload(bundle, tmp_path)
        first = [p.read_bytes() for p in paths]
        write_bundle(bundle, *paths)
        assert [p.read_bytes() for p in paths] == first

    def test_feature_file_stores_float32(self, tmp_path):
        values = np.array([[0.1, 0.2], [0.3, 0.4]], dtype=np.float64)
        path = tmp_path / "f.bin"
        write_feature_file(path, values)
        back = read_feature_file(path)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, values.astype(np.float32))


class TestSplitCounting:
    def test_four_row_metadata_counts(self, tmp_path):
        feats = np.arange(12, dtype=np.float32).reshape(4, 3)
        rows = [(0, "Q", 1, 0, 0), (0, "G", 1, 1, 1), (1, "G", 2, 0, 2),
                (2, "G", 3, 0, 3)]
        bundle = build_bundle(rows, feats)
        loaded, _ = write_and_reload(bundle, tmp_path)
        assert len(loaded.splits["Q"]) == 1
        assert len(loaded.splits["G"]) == 3
        assert loaded.feature_dim == 3

    def test_resolve_returns_the_right_record(self):
        feats = np.eye(3, dtype=np.float32)
        rows = [(0, "Q", 5, 0, 0), (0, "G", 6, 0, 1), (1, "G", 7, 1, 2)]
        bundle = build_bundle(rows, feats)
        assert bundle.resolve("G", 1).identity == 7
        with pytest.raises(KeyError):
            bundle.resolve("G", 2)


class TestFormatErrors:
    def test_expected_dims_mismatch_is_rejected(self, tmp_path):
        rng = np.random.default_rng(21)
        bundle = random_bundle(rng, dims=(8, 4, 5))
        paths = (tmp_path / "m.csv", tmp_path / "f.bin", tmp_path / "p.bin")
        write_bundle(bundle, *paths)
        with pytest.raises(BundleFormatError, match="dimension"):
            load_bundle(*paths, expected_dims=(4, 4, 5))

    def test_metadata_feature_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(22)
        bundle = random_bundle(rng, n_query=2, n_gallery=4)
        paths = (tmp_path / "m.csv", tmp_path / "f.bin", tmp_path / "p.bin")
        write_bundle(bundle, *paths)
        write_feature_file(paths[1], np.zeros((3, bundle.feature_dim)))
        with pytest.raises(BundleFormatError, match="rows"):
            load_bundle(*paths)

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + struct.pack("<f", 0.0))
        with pytest.raises(BundleFormatError, match="magic"):
            read_feature_file(path)

    def test_truncated_payload_is_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        write_feature_file(path, np.zeros((2, 3)))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(BundleFormatError):
            read_feature_file(path)

    def test_bad_presence_flag_is_rejected(self, tmp_path):
        path = tmp_path / "p.bin"
        write_parts_file(path, np.ones((1, 2), dtype=bool), np.zeros((1, 2, 3)))
        raw = bytearray(path.read_bytes())
        raw[16] = 7  # first flag byte follows the 16-byte header
        path.write_bytes(bytes(raw))
        with pytest.raises(BundleFormatError, match="flag"):
            read_parts_file(path)

    def test_wrong_header_is_rejected(self, tmp_path):
        meta = tmp_path / "m.csv"
        meta.write_text("index,role,identity\n0,Q,1\n")
        feat = tmp_path / "f.bin"
        write_feature_file(feat, np.zeros((1, 2)))
        with pytest.raises(BundleFormatError, match="header"):
            load_bundle(meta, feat)

    def test_unknown_role_is_rejected(self, tmp_path):
        meta = tmp_path / "m.csv"
        meta.write_text("index,role,identity,cloth,camera\n0,X,1,0,0\n")
        feat = tmp_path / "f.bin"
        write_feature_file(feat, np.zeros((1, 2)))
        with pytest.raises(BundleFormatError, match="role"):
            load_bundle(meta, feat)

    def test_non_dense_indices_are_rejected(self, tmp_path):
        meta = tmp_path / "m.csv"
        meta.write_text("index,role,identity,cloth,camera\n"
                        "0,G,1,0,0\n2,G,2,0,1\n")
        feat = tmp_path / "f.bin"
        write_feature_file(feat, np.zeros((2, 2)))
        with pytest.raises(BundleFormatError, match="index"):
            load_bundle(meta, feat)

    def test_out_of_order_rows_are_rejected(self, tmp_path):
        meta = tmp_path / "m.csv"
        meta.write_text("index,role,identity,cloth,camera\n"
                        "0,G,1,0,0\n0,Q,2,0,1\n")
        feat = tmp_path / "f.bin"
        write_feature_file(feat, np.zeros((2, 2)))
        with pytest.raises(BundleFormatError, match="order"):
            load_bundle(meta, feat)

    def test_non_finite_feature_names_the_row(self, tmp_path):
        feats = np.zeros((3, 2), dtype=np.float32)
        feats[1, 0] = np.inf
        meta = tmp_path / "m.csv"
        meta.write_text("index,role,identity,cloth,camera\n"
                        "0,G,1,0,0\n1,G,2,0,1\n2,G,3,0,2\n")
        feat = tmp_path / "f.bin"
        write_feature_file(feat, feats)
        with pytest.raises(BundleFormatError, match="1"):
            load_bundle(meta, feat)

    def test_comment_lines_in_metadata_are_skipped(self, tmp_path):
        meta = tmp_path / "m.csv"
        meta.write_text("# config: {}\nindex,role,identity,cloth,camera\n"
                        "0,G,1,0,0\n")
        feat = tmp_path / "f.bin"
        write_feature_file(feat, np.zeros((1, 2)))
        bundle = load_bundle(meta, feat)
        assert len(bundle.splits["G"]) == 1


class TestCsvReaders:
    #: reader, header, a good row, the same row with a non-numeric field
    READERS = {
        "pairs": (read_pairs_csv, PAIR_HEADER, "Q,0,1,G,3,-0.5,1",
                  "Q,0,1,G,x,-0.5,1", ValueError),
        "ranked": (read_ranked_csv, RANKED_HEADER, "0,1,3,window",
                   "0,x,3,window", ValueError),
        "sweep": (read_sweep_csv, SWEEP_HEADER, "5,0.5,1.0", "5,x,1.0", ValueError),
        "metadata": (lambda path: load_bundle(path, path.parent / "f.bin"),
                     ("index", "role", "identity", "cloth", "camera"),
                     "0,G,1,0,0", "0,G,x,0,0", BundleFormatError),
    }

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_errors_name_the_file_and_line(self, tmp_path, name):
        read, header, good, bad, error = self.READERS[name]
        write_feature_file(tmp_path / "f.bin", np.zeros((1, 2)))
        path = tmp_path / f"{name}.csv"
        cases = {
            "line 4: could not convert|line 4: invalid literal":
                [",".join(header), good, bad],
            "line 4: expected": [",".join(header), good, good + ",9"],
            "line 3: expected header": ["", ",".join(header[:-1])],
            "missing header": [],
        }
        for want, lines in cases.items():
            path.write_text("# config: {}\n" + "".join(ln + "\n" for ln in lines))
            with pytest.raises(error, match=f"{path.name}: ({want})"):
                read(path)


class TestMissingParts:
    def test_no_parts_file_yields_absent_slots(self, tmp_path):
        rng = np.random.default_rng(31)
        bundle = random_bundle(rng, n_query=1, n_gallery=3)
        meta, feat = tmp_path / "m.csv", tmp_path / "f.bin"
        write_bundle(bundle, meta, feat, None)
        loaded = load_bundle(meta, feat)
        assert loaded.dims == (bundle.feature_dim, 0, DEFAULT_PART_COUNT)
        for rec in loaded.records():
            assert rec.part_present.shape == (DEFAULT_PART_COUNT,)
            assert rec.part_vectors.shape == (DEFAULT_PART_COUNT, 0)
            assert not rec.part_present.any()

    def test_absent_vectors_are_normalized_to_zero(self, tmp_path):
        path = tmp_path / "p.bin"
        present = np.array([[True, False]])
        vectors = np.full((1, 2, 3), 5.0)
        write_parts_file(path, present, vectors)
        back_present, back_vectors = read_parts_file(path)
        assert back_present.tolist() == [[True, False]]
        np.testing.assert_array_equal(back_vectors[0, 1], np.zeros(3))
        np.testing.assert_array_equal(back_vectors[0, 0], np.full(3, 5.0))


class TestValidation:
    def test_well_formed_bundle_has_no_violations(self):
        rng = np.random.default_rng(41)
        bundle = random_bundle(rng)
        assert validate_bundle(bundle) == []

    def test_nan_feature_is_reported_with_role_and_index(self):
        rng = np.random.default_rng(42)
        bundle = random_bundle(rng, n_gallery=9)
        rec = bundle.splits["G"][7]
        bad = rec.global_feature.copy()
        bad[0] = np.nan
        bundle.splits["G"][7] = dataclasses.replace(rec, global_feature=bad)
        violations = validate_bundle(bundle)
        assert any(v.role == "G" and v.index == 7 and v.field == "global_feature"
                   for v in violations)

    def test_negative_identity_is_reported(self):
        feats = np.zeros((1, 2), dtype=np.float32)
        bundle = build_bundle([(0, "G", -3, 0, 0)], feats)
        violations = validate_bundle(bundle)
        assert any(v.field == "identity" for v in violations)

    def test_inconsistent_part_count_names_dims(self):
        rng = np.random.default_rng(43)
        bundle = random_bundle(rng, dims=(4, 3, 5))
        rec = bundle.splits["G"][0]
        bundle.splits["G"][0] = dataclasses.replace(
            rec, part_present=rec.part_present[:3],
            part_vectors=rec.part_vectors[:3])
        violations = validate_bundle(bundle)
        assert any("dims" in str(v) for v in violations)

    def test_violation_string_mentions_location(self):
        feats = np.zeros((1, 2), dtype=np.float32)
        bundle = build_bundle([(0, "Q", 1, -1, 0)], feats)
        violations = validate_bundle(bundle)
        assert violations and "Q" in str(violations[0])
