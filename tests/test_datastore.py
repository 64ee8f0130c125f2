"""Round-trip and validation tests for the on-disk bundle formats."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from conftest import random_bundle
from rvrank import datastore
from rvrank.datastore import (
    DEFAULT_PART_COUNT,
    BundleFormatError,
    build_bundle,
    load_bundle,
    read_feature_file,
    read_parts_file,
    validate_bundle,
    write_bundle,
    write_csv,
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

    def test_split_indexing_returns_the_right_record(self):
        feats = np.eye(3, dtype=np.float32)
        rows = [(0, "Q", 5, 0, 0), (0, "G", 6, 0, 1), (1, "G", 7, 1, 2)]
        bundle = build_bundle(rows, feats)
        assert bundle.splits["G"][1].identity == 7
        with pytest.raises(IndexError):
            bundle.splits["G"][2]


class TestSplit:
    def test_columns_follow_the_rows_of_each_role(self):
        feats = np.arange(8, dtype=np.float32).reshape(4, 2)
        rows = [(0, "T", 9, 1, 2), (0, "G", 5, 0, 1), (1, "G", 6, 3, 4),
                (2, "G", 7, 2, 0)]
        bundle = build_bundle(rows, feats)
        gallery = bundle.splits["G"]
        assert gallery.identity.tolist() == [5, 6, 7]
        assert gallery.cloth.tolist() == [0, 3, 2]
        assert gallery.camera.tolist() == [1, 4, 0]
        np.testing.assert_array_equal(gallery.features, feats[1:])
        assert len(bundle.splits["VQ"]) == 0
        assert [rec.identity for rec in gallery] == [5, 6, 7]

    def test_a_row_is_the_same_record_on_every_access(self):
        rng = np.random.default_rng(14)
        bundle = random_bundle(rng, n_query=2, n_gallery=5)
        gallery = bundle.splits["G"]
        assert gallery[3] is gallery[3]
        assert gallery[-1] is gallery[4]
        assert list(gallery)[2] is gallery[2]
        with pytest.raises(IndexError):
            gallery[5]

    def test_a_record_views_its_row(self):
        rng = np.random.default_rng(15)
        bundle = random_bundle(rng, n_query=2, n_gallery=5, part_presence=0.5)
        gallery = bundle.splits["G"]
        rec = gallery[2]
        assert (rec.index, rec.identity, rec.cloth, rec.camera) == \
               (2, int(gallery.identity[2]), int(gallery.cloth[2]),
                int(gallery.camera[2]))
        np.testing.assert_array_equal(rec.global_feature, gallery.features[2])
        np.testing.assert_array_equal(rec.part_present, gallery.present[2])
        np.testing.assert_array_equal(rec.part_vectors, gallery.vectors[2])

    def test_a_slice_is_a_split_indexed_from_zero(self):
        rng = np.random.default_rng(16)
        gallery = random_bundle(rng, n_query=1, n_gallery=6).splits["G"]
        part = gallery[2:4]
        assert len(part) == 2
        assert part.identity.tolist() == gallery.identity[2:4].tolist()
        assert part[0].index == 0
        np.testing.assert_array_equal(part[1].global_feature, gallery[3].global_feature)
        assert len(gallery[0:0]) == 0


class TestBuildBundleOrder:
    @pytest.mark.parametrize("rows, want", [
        ([(0, "G", 1, 0, 0), (0, "Q", 2, 0, 0)], "row 1 .*out of order"),
        ([(1, "G", 1, 0, 0), (0, "G", 2, 0, 0)], "row 0: role G expected dense index 0"),
        ([(0, "G", 1, 0, 0), (2, "G", 2, 0, 0)], "row 1: role G expected dense index 1"),
        ([(0, "G", 1, 0, 0), (0, "X", 2, 0, 0)], "row 1: unknown role token 'X'"),
    ])
    def test_bad_rows_are_rejected_by_row(self, rows, want):
        with pytest.raises(BundleFormatError, match=want):
            build_bundle(rows, np.zeros((len(rows), 2)))


class TestReaderFuzz:
    """Every truncation of a small RVR1/RVP1/RVM1 file, and seeded random
    changes to the header bytes that fix its layout (magic, sizes, counts),
    must be rejected with an error naming the file."""

    @staticmethod
    def files(tmp_path):
        from rvrank.verifier import TrainConfig, VerifierModel, load_model, save_model
        rng = np.random.default_rng(51)
        feat, parts, model = (tmp_path / name for name in ("f.bin", "p.bin", "m.bin"))
        write_feature_file(feat, rng.normal(size=(3, 4)))
        write_parts_file(parts, rng.random((3, 2)) < 0.5, rng.normal(size=(3, 2, 3)))
        save_model(model, VerifierModel.initialize(
            (3, 2, 2), 3, 2, seed=5, hyper=TrainConfig(decay_epochs=(4, 9))))
        # RVM1: magic and the five dims, then (after seed and hyperparameters)
        # the milestone count; the other header fields take any value.
        model_layout = [*range(24), *range(64, 68)]
        return [(read_feature_file, feat, range(12)),
                (read_parts_file, parts, range(16)),
                (load_model, model, model_layout)]

    @staticmethod
    def assert_rejected(read, path, data):
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read(path)
        assert str(path) in str(info.value), str(info.value)

    def test_every_truncation_is_rejected(self, tmp_path):
        for read, path, _ in self.files(tmp_path):
            data = path.read_bytes()
            case = tmp_path / f"cut-{path.name}"
            for n in range(len(data)):
                self.assert_rejected(read, case, data[:n])

    def test_zero_model_dims_are_rejected(self, tmp_path):
        read, path, _ = self.files(tmp_path)[2]
        data = path.read_bytes()
        for offset in (4, 12):   # D and K of the RVM1 header
            raw = bytearray(data)
            raw[offset:offset + 4] = bytes(4)
            self.assert_rejected(read, tmp_path / "zero.bin", bytes(raw))

    def test_random_header_changes_are_rejected(self, tmp_path):
        rng = np.random.default_rng(52)
        for read, path, layout in self.files(tmp_path):
            data = path.read_bytes()
            case = tmp_path / f"flip-{path.name}"
            for _ in range(300):
                raw = bytearray(data)
                for pos in rng.choice(layout, size=int(rng.integers(1, 4)),
                                      replace=False):
                    raw[pos] ^= int(rng.integers(1, 256))
                self.assert_rejected(read, case, bytes(raw))


class TestBinaryFaultWording:
    """Each fault reads the same in the RVR1, RVP1 and RVM1 formats."""

    @staticmethod
    def files(tmp_path):
        from rvrank.verifier import MODEL_MAGIC, VerifierModel, load_model, save_model
        feat, parts, model = (tmp_path / name for name in ("f.bin", "p.bin", "m.bin"))
        write_feature_file(feat, np.zeros((2, 3)))
        write_parts_file(parts, np.ones((2, 2), dtype=bool), np.zeros((2, 2, 3)))
        save_model(model, VerifierModel.initialize((3, 3, 2), 4, 4, seed=1))
        return [(read_feature_file, feat, b"RVR1", "<II"),
                (read_parts_file, parts, b"RVP1", "<III"),
                (load_model, model, MODEL_MAGIC, "<5Iq2d2IdI")]

    @staticmethod
    def message(read, path, data):
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read(path)
        return str(info.value)

    def test_bad_magic(self, tmp_path):
        for read, path, magic, _ in self.files(tmp_path):
            data = path.read_bytes()
            assert self.message(read, path, b"XY" + data[2:]) == (
                f"{path}: bad magic at offset 0: expected {magic!r}, got {b'XY' + magic[2:]!r}")
            assert self.message(read, path, b"RV") == (
                f"{path}: bad magic at offset 0: expected {magic!r}, got {b'RV'!r}")

    def test_truncated_header(self, tmp_path):
        for read, path, _, fmt in self.files(tmp_path):
            data = path.read_bytes()
            assert self.message(read, path, data[:6]) == (
                f"{path}: truncated header at offset 4: "
                f"wanted {struct.calcsize(fmt)} bytes, got 2")

    def test_payload_length_mismatch(self, tmp_path):
        for read, path, _, _ in self.files(tmp_path):
            data = path.read_bytes()
            text = self.message(read, path, data + b"\0")
            assert text.startswith(f"{path}: payload length mismatch: header declares "), text
            assert text.endswith(" bytes after the header"), text


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


class TestWriteCsv:
    """``write_csv`` against the f-string rows it replaced: ``str`` of each
    int, ``repr`` of each float and each text field verbatim."""

    @staticmethod
    def columns(rng, n):
        info = np.iinfo(np.int64)
        ints = rng.integers(info.min, info.max, n, endpoint=True)
        # Every digit count, not only the 19-digit values a uniform draw gives.
        ints //= 10 ** rng.integers(0, 19, n)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        text = np.array(["", "T", "VQ", "window", "\u00e9t\u00e9", "a b"])[rng.integers(0, 6, n)]
        edges = ([info.min, info.max, info.min + 1, -1, 0, 9999, 10 ** 4, -10 ** 8],
                 [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1])
        head = min(n, len(edges[0]))
        ints[:head], floats[:head] = edges[0][:head], edges[1][:head]
        return ints, floats, text

    @pytest.mark.parametrize("rows", [0, 1, 8, 2 * datastore._BLOCK_ROWS + 3])
    def test_rows_match_the_f_string_form(self, tmp_path, rows):
        ints, floats, text = self.columns(np.random.default_rng(rows), rows)
        path = tmp_path / "out.csv"
        write_csv(path, ("i", "f", "t", "j"), (ints, floats, text, ints[::-1]),
                  config_comment="config: {}")
        want = "# config: {}\ni,f,t,j\n" + "".join(
            f"{i},{f!r},{t},{j}\n" for i, f, t, j in
            zip(ints.tolist(), floats.tolist(), text.tolist(), ints[::-1].tolist()))
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("bad", [",", '"', "\n", "\r", "\0"])
    def test_a_text_field_that_would_break_its_row_is_rejected(self, tmp_path, bad):
        path = tmp_path / "out.csv"
        text = np.array(["T"] * (datastore._BLOCK_ROWS + 5), dtype="U3")
        text[-2] = f"V{bad}Q"
        with pytest.raises(ValueError) as err:
            write_csv(path, ("index", "role"), (np.arange(len(text)), text))
        assert str(err.value).startswith(f"{path}: column 'role', row {len(text) - 2}: ")
        assert not path.exists()

    def test_negative_labels_are_written_back(self, tmp_path):
        rows = [(0, "Q", -3, 2 ** 40, -1), (0, "G", 5, -2 ** 62, 0)]
        paths = (tmp_path / "meta.csv", tmp_path / "feat.bin")
        write_bundle(build_bundle(rows, np.zeros((2, 2))), *paths)
        assert paths[0].read_text().splitlines()[1:] == \
            [",".join(map(str, row)) for row in rows]
        loaded = load_bundle(*paths)
        assert [(v.role, v.field) for v in validate_bundle(loaded)] == \
            [("Q", "identity"), ("Q", "camera"), ("G", "cloth")]

    def test_columns_of_other_kinds_or_lengths_are_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        for columns, match in (((np.arange(3), np.arange(4)), "differ in length"),
                               ((np.arange(3), np.ones(3, dtype=bool)), "column 'b'"),
                               ((np.arange(3), np.ones((3, 1))), "column 'b'")):
            with pytest.raises(ValueError, match=match):
                write_csv(path, ("a", "b"), columns)
        assert not path.exists()


class TestMissingParts:
    def test_no_parts_file_yields_absent_slots(self, tmp_path):
        rng = np.random.default_rng(31)
        bundle = random_bundle(rng, n_query=1, n_gallery=3)
        meta, feat = tmp_path / "m.csv", tmp_path / "f.bin"
        write_bundle(bundle, meta, feat, None)
        loaded = load_bundle(meta, feat)
        assert loaded.dims == (bundle.feature_dim, 0, DEFAULT_PART_COUNT)
        for role, split in loaded.splits.items():
            n = len(bundle.splits[role])
            assert split.present.shape == (n, DEFAULT_PART_COUNT)
            assert split.vectors.shape == (n, DEFAULT_PART_COUNT, 0)
            assert not split.present.any()

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
        feats = np.zeros((10, 2), dtype=np.float32)
        feats[1 + 7, 0] = np.nan   # row 0 is the query
        rows = [(0, "Q", 1, 0, 0)] + [(i, "G", 2, 0, 0) for i in range(9)]
        violations = validate_bundle(build_bundle(rows, feats))
        assert [(v.role, v.index, v.field) for v in violations] == \
               [("G", 7, "global_feature")]

    def test_nan_in_a_present_part_only_is_reported(self):
        present = np.array([[True, False], [True, True]])
        vectors = np.zeros((2, 2, 3))
        vectors[0, 1, 0] = np.nan   # absent slot: normalised away
        vectors[1, 1, 2] = np.inf
        bundle = build_bundle([(0, "G", 1, 0, 0), (1, "G", 2, 0, 0)],
                              np.zeros((2, 2)), present, vectors)
        violations = validate_bundle(bundle)
        assert [(v.role, v.index, v.field, v.message) for v in violations] == \
               [("G", 1, "part_vectors", "part 1 non-finite value")]

    def test_violations_come_in_role_and_index_order(self):
        feats = np.zeros((3, 2), dtype=np.float32)
        feats[0, 0] = np.inf
        rows = [(0, "T", 1, -1, 0), (0, "Q", -2, 0, -3), (1, "Q", 1, 0, 0)]
        violations = validate_bundle(build_bundle(rows, feats))
        assert [(v.role, v.index, v.field) for v in violations] == [
            ("T", 0, "cloth"), ("T", 0, "global_feature"),
            ("Q", 0, "identity"), ("Q", 0, "camera")]

    def test_negative_identity_is_reported(self):
        feats = np.zeros((1, 2), dtype=np.float32)
        bundle = build_bundle([(0, "G", -3, 0, 0)], feats)
        violations = validate_bundle(bundle)
        assert any(v.field == "identity" for v in violations)

    def test_violation_string_mentions_location(self):
        feats = np.zeros((1, 2), dtype=np.float32)
        bundle = build_bundle([(0, "Q", 1, -1, 0)], feats)
        violations = validate_bundle(bundle)
        assert violations and "Q" in str(violations[0])


PAIRS = b"query_role,query_index,rank,cand_role,cand_index,score,label\n"
META = b"index,role,identity,cloth,camera\n"
SWEEP = b"L,rank1,rank10\n"

#: Pair, metadata and sweep files both paths of ``read_csv`` must agree on:
#: the byte path's own input, and every odd or faulty file it must leave
#: to the row path.  Names in BYTE_PATH are the ones the byte path takes.
CASES = {
    "pairs/well formed": PAIRS + b"Q,0,1,G,3,-0.5,1\nQ,0,2,G,12,-1.25e-05,0\n"
                         b"Q,1,1,G,0,-inf,0\nQ,1,2,G,4,nan,1\nQ,2,1,G,9,-1e+16,0\n",
    "pairs/config comment": b'# config: {"out":"a, \\"b\\"","P":5}\n' + PAIRS
                            + b"T,0,1,T,3,-0.5,1\n",
    "pairs/quotes span lines": b'# config: {"a":1,"b\nc":2}\n' + PAIRS + b"VQ,0,1,VG,3,0.0,1\n",
    "pairs/header only": PAIRS,
    "pairs/crlf": PAIRS.replace(b"\n", b"\r\n") + b"Q,0,1,G,3,-0.5,1\r\n",
    "pairs/quoted role": PAIRS + b'Q,0,1,"G",3,-0.5,1\n',
    "pairs/comment between rows": PAIRS + b"Q,0,1,G,3,-0.5,1\n# note\nQ,0,2,G,4,-0.75,0\n",
    "pairs/blank line": PAIRS + b"Q,0,1,G,3,-0.5,1\n\nQ,0,2,G,4,-0.75,0\n",
    "pairs/signs": PAIRS + b"Q,+0,1,G,3,+0.5,1\nQ,-1,2,G,4,-0.75,0\n",
    "pairs/19 digits": PAIRS + b"Q,0,1,G,9223372036854775807,-0.5,1\n",
    "pairs/2**70": PAIRS + b"Q,0,1,G,%d,-0.5,1\n" % 2 ** 70,
    "pairs/mixed roles": PAIRS + b"Q,0,1,G,3,-0.5,1\nVQ,0,1,VG,3,-0.5,1\n",
    "pairs/roles differing in their last byte": PAIRS + b"VQ,0,1,VG,3,-0.5,1\n"
                                                b"VG,0,1,VQ,3,-0.5,1\n",
    "pairs/comment shaped as a row": PAIRS + b"#Q,0,1,G,3,-0.5,1\n",
    "pairs/unknown role": PAIRS + b"Q,0,1,G,3,-0.5,1\nQ,0,2,XYZ,4,-0.75,0\n",
    "pairs/uniform unknown role": PAIRS + b"Q,0,1,XYZ,3,-0.5,1\nQ,0,2,XYZ,4,-0.75,0\n",
    "pairs/bad label": PAIRS + b"Q,0,1,G,3,-0.5,1\nQ,0,2,G,4,-0.75,2\n",
    "pairs/underscores": PAIRS + b"Q,1_0,1,G,3,-0_5,1\n",
    "pairs/float underscore": PAIRS + b"Q,0,1,G,3,-0_5,1\n",
    "pairs/spaces": PAIRS + b"Q,0, 1,G,3, -0.5,1\n",
    "pairs/bad float": PAIRS + b"Q,0,1,G,3,1e,1\n",
    "pairs/empty score": PAIRS + b"Q,0,1,G,3,,1\n",
    "pairs/extra field": PAIRS + b"Q,0,1,G,3,-0.5,1,9\n",
    "pairs/no trailing newline": PAIRS + b"Q,0,1,G,3,-0.5,1",
    "pairs/non-ascii role": PAIRS + "Q,0,1,Gé,3,-0.5,1\n".encode(),
    "metadata/one role": META + b"0,G,1,0,0\n1,G,2,0,1\n",
    "metadata/every role": META + b"0,T,1,0,0\n0,Q,2,0,1\n",
    "metadata/negative label": META + b"0,G,-3,0,0\n1,G,2,-1,1\n",
    "metadata/crlf": META.replace(b"\n", b"\r\n") + b"0,G,1,0,0\r\n1,G,2,0,1\r\n",
    "metadata/comment between rows": META + b"0,G,1,0,0\n# note\n1,G,2,0,1\n",
    "metadata/quoted field": META + b'0,G,1,0,0\n1,G,"2",0,1\n',
    "metadata/19 digits": META + b"0,G,9223372036854775807,0,0\n1,G,2,0,1\n",
    "metadata/2**70": META + b"0,G,1,0,0\n1,G,%d,0,1\n" % 2 ** 70,
    "metadata/out of order": META + b"1,G,1,0,0\n0,G,2,0,1\n",
    "metadata/unknown role": META + b"0,G,1,0,0\n0,X,2,0,1\n",
    "sweep/well formed": SWEEP + b"1,0.25,0.75\n5,0.5,1.0\n",
    "sweep/crlf": SWEEP.replace(b"\n", b"\r\n") + b"1,0.25,0.75\r\n",
    "sweep/quoted field": SWEEP + b'1,"0.25",0.75\n',
    "sweep/comment between rows": SWEEP + b"1,0.25,0.75\n# note\n5,0.5,1.0\n",
    "sweep/signs": SWEEP + b"+1,-0.25,+0.75\n",
    "sweep/19 digits": SWEEP + b"9223372036854775807,0.25,0.75\n",
    "sweep/2**70": SWEEP + b"%d,0.25,0.75\n" % 2 ** 70,
    "sweep/bad float": SWEEP + b"1,x,0.75\n",
    "sweep/a field moved to the next line": SWEEP + b"1,0.25,0.75,2\n0.5,1.0\n",
}

BYTE_PATH = {"pairs/well formed", "pairs/config comment", "pairs/quotes span lines",
             "pairs/header only", "pairs/uniform unknown role", "pairs/bad label",
             "metadata/one role", "metadata/out of order", "sweep/well formed"}

#: Per format: header, kinds and reader of its files.
FORMATS = {
    "pairs": (PAIR_HEADER, (str, int, int, str, int, float, int), read_pairs_csv),
    "metadata": (datastore.METADATA_HEADER, datastore._METADATA_KINDS,
                 lambda path: load_bundle(path, path.parent / "f.bin").splits),
    "sweep": (SWEEP_HEADER, (int, float, float), read_sweep_csv),
}


def outcome(read, path):
    """What a reader makes of a file: its result as plain values and bytes
    (so that NaNs compare equal), or its error's type and message."""
    try:
        got = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, tuple):  # read_csv's columns and line numbers
        columns, lines = got
        return [(c.dtype.str, c.tolist() if c.dtype.kind == "U" else c.tobytes())
                for c in columns], lines.tolist()
    if isinstance(got, dict):  # a bundle's splits
        return {role: (s.identity.tolist(), s.cloth.tolist(), s.camera.tolist())
                for role, s in got.items()}
    return (got.pairs.dtype, got.pairs.tobytes()) if hasattr(got, "pairs") else got


class TestCsvBytePath:
    @staticmethod
    def outcomes(tmp_path, name):
        header, kinds, reader = FORMATS[name.split("/")[0]]
        path = tmp_path / "file.csv"
        path.write_bytes(CASES[name])
        write_feature_file(tmp_path / "f.bin", np.zeros((2, 2)))
        return (outcome(lambda p: datastore.read_csv(p, header, kinds), path),
                outcome(reader, path))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_byte_path_agrees_with_the_row_path(self, tmp_path, monkeypatch, name):
        shipped = self.outcomes(tmp_path, name)
        monkeypatch.setattr(datastore, "_parse_bytes", lambda *args: None)
        assert self.outcomes(tmp_path, name) == shipped

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_only_the_written_form_takes_the_byte_path(self, tmp_path, monkeypatch, name):
        calls = []
        row_path = datastore._read_rows
        monkeypatch.setattr(datastore, "_read_rows",
                            lambda *args: calls.append(1) or row_path(*args))
        header, kinds, _ = FORMATS[name.split("/")[0]]
        path = tmp_path / "file.csv"
        path.write_bytes(CASES[name])
        try:
            datastore.read_csv(path, header, kinds)
        except ValueError:
            pass
        assert (not calls) == (name in BYTE_PATH)

    def test_a_text_column_keeps_every_character(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_bytes(CASES["pairs/uniform unknown role"])
        (role, *_), _ = datastore.read_csv(path, PAIR_HEADER, FORMATS["pairs"][1])
        assert role.tolist() == ["Q", "Q"]
        with pytest.raises(ValueError, match="line 2: unknown role 'XYZ'"):
            read_pairs_csv(path)

    def test_an_integer_beyond_int64_names_its_line_and_field(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_bytes(CASES["metadata/2**70"])
        write_feature_file(tmp_path / "f.bin", np.zeros((2, 2)))
        with pytest.raises(BundleFormatError,
                           match=f"{path.name}: line 3: identity does not fit in int64"):
            load_bundle(path, tmp_path / "f.bin")
