"""Round-trip and validation tests for the on-disk bundle formats."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from conftest import PeakMemory, random_bundle
from rvrank import datastore
from rvrank.datastore import (
    DEFAULT_PART_COUNT,
    build_bundle,
    load_bundle,
    read_feature_file,
    read_parts_file,
    write_bundle,
    write_csv,
    write_feature_file,
    write_parts_file,
)
from rvrank.evaluation import SWEEP_HEADER
from rvrank.reranker import RankedList, read_ranked_csv, write_ranked_csv
from rvrank.retrieval import PAIR_HEADER, build_eval_pairs, read_pairs_csv, write_pairs_csv
from rvrank.synthgen import SynthConfig, generate


def read_sweep(path):
    return datastore.read_csv(path, SWEEP_HEADER, (int, float, float))


def write_and_reload(bundle, tmp_path):
    paths = (tmp_path / "meta.csv", tmp_path / "feat.bin", tmp_path / "parts.bin")
    write_bundle(bundle, *paths)
    return load_bundle(*paths), paths


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
        assert loaded.dims[0] == 3

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
        ([(0, "G", 1, 0, 0), (0, "Q", 2, 0, 0)], "row 1: [(]Q:0[)] out of order"),
        ([(1, "G", 1, 0, 0), (0, "G", 2, 0, 0)], "row 0: role G expected dense index 0"),
        ([(0, "G", 1, 0, 0), (2, "G", 2, 0, 0)], "row 1: role G expected dense index 1"),
        ([(0, "G", 1, 0, 0), (0, "X", 2, 0, 0)], "row 1: unknown role token 'X'"),
    ])
    def test_bad_rows_are_rejected_by_row(self, rows, want):
        with pytest.raises(ValueError, match=want):
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
    def test_metadata_feature_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(22)
        bundle = random_bundle(rng, n_query=2, n_gallery=4)
        paths = (tmp_path / "m.csv", tmp_path / "f.bin", tmp_path / "p.bin")
        write_bundle(bundle, *paths)
        write_feature_file(paths[1], np.zeros((3, bundle.dims[0])))
        with pytest.raises(ValueError, match="rows"):
            load_bundle(*paths)

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + struct.pack("<f", 0.0))
        with pytest.raises(ValueError, match="magic"):
            read_feature_file(path)

    def test_truncated_payload_is_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        write_feature_file(path, np.zeros((2, 3)))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(ValueError):
            read_feature_file(path)

    def test_bad_presence_flag_is_rejected(self, tmp_path):
        path = tmp_path / "p.bin"
        write_parts_file(path, np.ones((1, 2), dtype=bool), np.zeros((1, 2, 3)))
        raw = bytearray(path.read_bytes())
        raw[16] = 7  # first flag byte follows the 16-byte header
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="flag"):
            read_parts_file(path)

    @pytest.mark.parametrize("n, k, dp", [(0, 5, 2 ** 32 - 1), (3, 0, 2 ** 32 - 1),
                                          (0, 1, 2 ** 29)])
    def test_a_part_dim_too_large_for_a_record_names_the_file(self, tmp_path, n, k, dp):
        # No record is stored, so the size check passes whatever the dim.
        path = tmp_path / "p.bin"
        path.write_bytes(b"RVP1" + struct.pack("<III", n, k, dp))
        with pytest.raises(ValueError) as info:
            read_parts_file(path)
        assert str(info.value) == (f"{path}: part dim {dp} is too large: a part vector "
                                   "must fit in 2147483647 bytes")

    def test_wrong_header_is_rejected(self, tmp_path):
        meta = tmp_path / "m.csv"
        meta.write_text("index,role,identity\n0,Q,1\n")
        feat = tmp_path / "f.bin"
        write_feature_file(feat, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="header"):
            load_bundle(meta, feat)

    def test_unknown_role_is_rejected(self, tmp_path):
        meta = tmp_path / "m.csv"
        meta.write_text("index,role,identity,cloth,camera\n0,X,1,0,0\n")
        feat = tmp_path / "f.bin"
        write_feature_file(feat, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="role"):
            load_bundle(meta, feat)

    def test_non_dense_indices_are_rejected(self, tmp_path):
        meta = tmp_path / "m.csv"
        meta.write_text("index,role,identity,cloth,camera\n"
                        "0,G,1,0,0\n2,G,2,0,1\n")
        feat = tmp_path / "f.bin"
        write_feature_file(feat, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="index"):
            load_bundle(meta, feat)

    def test_out_of_order_rows_are_rejected(self, tmp_path):
        meta = tmp_path / "m.csv"
        meta.write_text("index,role,identity,cloth,camera\n"
                        "0,G,1,0,0\n0,Q,2,0,1\n")
        feat = tmp_path / "f.bin"
        write_feature_file(feat, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="order"):
            load_bundle(meta, feat)

    def test_non_finite_feature_names_the_row(self, tmp_path):
        feats = np.zeros((3, 2), dtype=np.float32)
        feats[1, 0] = np.inf
        meta = tmp_path / "m.csv"
        meta.write_text("index,role,identity,cloth,camera\n"
                        "0,G,1,0,0\n1,G,2,0,1\n2,G,3,0,2\n")
        feat = tmp_path / "f.bin"
        write_feature_file(feat, feats)
        with pytest.raises(ValueError, match="1"):
            load_bundle(meta, feat)

    def test_comment_lines_in_metadata_are_skipped(self, tmp_path):
        meta = tmp_path / "m.csv"
        meta.write_text("# config: {}\nindex,role,identity,cloth,camera\n"
                        "0,G,1,0,0\n")
        feat = tmp_path / "f.bin"
        write_feature_file(feat, np.zeros((1, 2)))
        bundle = load_bundle(meta, feat)
        assert len(bundle.splits["G"]) == 1


class TestFaultContract:
    """A truncated file of each format fails its reader with a plain
    ValueError whose message starts with the file's path."""

    @staticmethod
    def files(tmp_path):
        from rvrank.verifier import VerifierModel, load_model, save_model
        bundle, _ = generate(SynthConfig(n_identities=5, seed=4))
        meta, feat, parts, model, pairs, ranked = (tmp_path / name for name in (
            "meta.csv", "features.bin", "parts.bin", "model.bin", "pairs.csv", "ranked.csv"))
        write_bundle(bundle, meta, feat, parts, config_comment="config: {}")
        save_model(model, VerifierModel.initialize(bundle.dims, 4, 4, seed=1))
        write_pairs_csv(pairs, build_eval_pairs(bundle, "Q", "G", 3))
        write_ranked_csv(ranked, [RankedList(np.arange(4)), RankedList(np.arange(4))])
        def read_bundle(_):
            return load_bundle(meta, feat, parts)

        return {path.name: (path, read) for path, read in (
            (meta, read_bundle), (feat, read_bundle), (parts, read_bundle),
            (model, load_model), (pairs, read_pairs_csv), (ranked, read_ranked_csv))}

    @pytest.mark.parametrize("name", ["meta.csv", "features.bin", "parts.bin", "model.bin",
                                      "pairs.csv", "ranked.csv"])
    def test_a_truncated_file_fails_naming_its_path(self, tmp_path, name):
        path, read = self.files(tmp_path)[name]
        read(path)
        data = path.read_bytes()
        # A CSV loses its last field, a binary file (the ranked file too) its last byte.
        text = name in ("meta.csv", "pairs.csv")
        path.write_bytes(data[:data.rindex(b",")] if text else data[:-1])
        with pytest.raises(ValueError) as info:
            read(path)
        assert type(info.value) is ValueError
        assert str(info.value).startswith(f"{path}: "), str(info.value)


class TestCsvReaders:
    #: reader, header, a good row, the same row with a non-numeric field
    READERS = {
        "pairs": (read_pairs_csv, PAIR_HEADER, "Q,0,1,G,3,1", "Q,0,1,G,x,1"),
        "sweep": (read_sweep, SWEEP_HEADER, "5,0.5,1.0", "5,x,1.0"),
        "metadata": (lambda path: load_bundle(path, path.parent / "f.bin"),
                     ("index", "role", "identity", "cloth", "camera"),
                     "0,G,1,0,0", "0,G,x,0,0"),
    }

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_errors_name_the_file_and_line(self, tmp_path, name):
        read, header, good, bad = self.READERS[name]
        write_feature_file(tmp_path / "f.bin", np.zeros((1, 2)))
        path = tmp_path / f"{name}.csv"
        cases = {
            "line 4: '[^']*' does not parse as": [",".join(header), good, bad],
            "line 4: '[^']*,9' does not parse as": [",".join(header), good, good + ",9"],
            "line 2: expected header '[^']*', got '[^']+'$": [",".join(header[:-1])],
            "line 2: expected header '[^']*', got ''$": ["", ",".join(header)],
            "missing header": [],
            # "\udcff" is written as the byte 0xff, which is not ASCII.
            r"line 4: holds the byte b'\\xff'":
                [",".join(header), good, good.replace(",", ",\udcff", 1)],
        }
        for want, lines in cases.items():
            text = "# config: {}\n" + "".join(ln + "\n" for ln in lines)
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            with pytest.raises(ValueError, match=f"{path.name}: ({want})"):
                read(path)

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_a_binary_file_without_a_newline_is_named_by_a_short_error(self, tmp_path, name):
        read, header, _, _ = self.READERS[name]
        write_feature_file(tmp_path / "f.bin", np.zeros((1, 2)))
        path = tmp_path / f"{name}.bin"
        data = np.random.default_rng(3).integers(0, 256, 1 << 20, dtype=np.uint8)
        data[data == ord("\n")] = 0
        data[0] = ord("R")
        path.write_bytes(data.tobytes())
        with pytest.raises(ValueError) as info:
            read(path)
        message = str(info.value)
        assert message.startswith(f"{path}: line 1: expected header {','.join(header)!r}, "
                                  "got 'R")
        assert message.endswith("'...") and len(message) < len(str(path)) + 400
        path.write_bytes(b"#" + data.tobytes())
        with pytest.raises(ValueError, match=f"^{path}: missing header row$"):
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
        text = np.array(["", "T", "VQ", "window", "1e-05", "G" * (datastore._TEXT_WIDTH - 1)]
                        )[rng.integers(0, 6, n)]
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

    @pytest.mark.parametrize("rows", [1, 9, datastore._BLOCK_ROWS + 9])
    @pytest.mark.parametrize("value", [None, -1, 9999, 10 ** 4, 10 ** 16])
    def test_small_int_columns_match_str(self, tmp_path, value, rows):
        """Int columns, all values in 0-9,999, but for
        one row set to ``value``.  At the largest row count that row falls
        in the first ``_BLOCK_ROWS`` piece and the second holds small
        values only."""
        ints = np.random.default_rng(rows).integers(0, 10 ** 4, rows)
        if value is not None:
            ints[rows // 2] = value
        path = tmp_path / "out.csv"
        write_csv(path, ("i", "j"), (ints, ints[::-1]))
        assert path.read_text() == "i,j\n" + "".join(
            f"{i},{j}\n" for i, j in zip(ints.tolist(), ints[::-1].tolist()))

    # A NUL in a field, and not in the padding after it, is found wherever it is.
    @pytest.mark.parametrize("bad", [",", '"', "\n", "\r", "\0", "\0\0", " ", "#", "\t", "!",
                                     "\u00e9", "\x80"])
    def test_a_text_field_the_reader_rejects_is_rejected(self, tmp_path, bad):
        path = tmp_path / "out.csv"
        text = np.array(["T"] * (datastore._BLOCK_ROWS + 5), dtype="U4")
        text[-2] = f"V{bad}Q"
        with pytest.raises(ValueError) as err:
            write_csv(path, ("index", "role"), (np.arange(len(text)), text))
        assert str(err.value) == (f"{path}: column 'role', row {len(text) - 2}: text field "
                                  f"{str(text[-2])!r} holds {bad[0]!r}; a text field holds only ASCII "
                                  "characters above '#' but the comma")
        assert not path.exists()

    def test_a_text_field_as_wide_as_the_reader_bound_is_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        narrow = "G" * (datastore._TEXT_WIDTH - 1)
        write_csv(path, ("role",), (np.array([narrow, "T"]),))
        (role,), _ = datastore.read_csv(path, ("role",), (str,))
        assert role.tolist() == [narrow, "T"]
        wide, path = narrow + "G", tmp_path / "wide.csv"
        with pytest.raises(ValueError) as err:
            write_csv(path, ("role",), (np.array(["T", narrow, wide]),))
        assert str(err.value) == (f"{path}: column 'role', row 2: text field {wide!r} is "
                                  f"{len(wide)} characters or wider; text fields are narrower")
        assert not path.exists()

    @pytest.mark.parametrize("comment", ["config: {}\n# more", "config: {}\r", "\n"])
    def test_a_config_comment_of_more_than_one_line_is_rejected(self, tmp_path, comment):
        # Its second line would read as a bad header.
        path = tmp_path / "f.csv"
        path.write_bytes(b"old")
        with pytest.raises(ValueError) as info:
            write_csv(path, ("i",), (np.arange(2),), config_comment=comment)
        assert str(info.value) == (f"{path}: config comment {comment!r} holds a newline or "
                                   "carriage return; it must fit on one line")
        assert path.read_bytes() == b"old"

    def test_a_stride_0_column_is_written_as_its_copy(self, tmp_path):
        # Across a block edge.
        n = datastore._BLOCK_ROWS + 3
        columns = [np.broadcast_to(np.array(v), n) for v in ("kreciprocal", -12, 0.1)]
        shared, copied = tmp_path / "shared.csv", tmp_path / "copied.csv"
        write_csv(shared, ("t", "i", "f"), columns)
        write_csv(copied, ("t", "i", "f"), [c.copy() for c in columns])
        assert shared.read_bytes() == copied.read_bytes()
        with pytest.raises(ValueError, match="column 'role', row 0: text field 'V,Q'"):
            write_csv(shared, ("role",), [np.broadcast_to(np.array("V,Q"), n)])

    def test_negative_labels_are_written_back(self, tmp_path):
        rows = [(0, "Q", -3, 2 ** 40, -1), (0, "G", 5, -2 ** 62, 0)]
        meta, feat = tmp_path / "meta.csv", tmp_path / "feat.bin"
        write_csv(meta, datastore.METADATA_HEADER,
                  [np.array(column) for column in zip(*rows)])
        write_feature_file(feat, np.zeros((2, 2)))
        assert meta.read_text().splitlines()[1:] == [",".join(map(str, row)) for row in rows]
        (index, role, *labels), lines = datastore.read_csv(
            meta, datastore.METADATA_HEADER, datastore._METADATA_KINDS)
        assert list(zip(index.tolist(), role.tolist(), *(c.tolist() for c in labels))) == rows
        with pytest.raises(ValueError) as info:
            load_bundle(meta, feat)
        assert str(info.value) == f"{meta}: line 2: identity -3 is negative"

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
        assert loaded.dims == (bundle.dims[0], 0, DEFAULT_PART_COUNT)
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
    """``build_bundle`` applies the rules ``load_bundle`` applies, naming
    the first faulty row."""

    def test_nan_feature_is_rejected_with_its_row(self):
        feats = np.zeros((10, 2), dtype=np.float32)
        feats[1 + 7, 0] = np.nan   # row 0 is the query
        rows = [(0, "Q", 1, 0, 0)] + [(i, "G", 2, 0, 0) for i in range(9)]
        with pytest.raises(ValueError) as info:
            build_bundle(rows, feats)
        assert str(info.value) == "features: non-finite value in feature row 8 (metadata G:7)"

    def test_a_feature_beyond_float32_is_rejected(self):
        feats = np.zeros((2, 2))
        feats[1, 1] = 1e300
        with pytest.raises(ValueError, match="feature row 1 "):
            build_bundle([(0, "G", 1, 0, 0), (1, "G", 2, 0, 0)], feats)

    def test_nan_in_a_present_part_only_is_rejected(self):
        present = np.array([[True, False], [True, True]])
        vectors = np.zeros((2, 2, 3))
        vectors[0, 1, 0] = np.nan   # absent slot: normalised away
        vectors[1, 1, 2] = np.inf
        with pytest.raises(ValueError) as info:
            build_bundle([(0, "G", 1, 0, 0), (1, "G", 2, 0, 0)],
                         np.zeros((2, 2)), present, vectors)
        assert str(info.value) == "vectors: non-finite value in record 1 part 1 (metadata G:1)"

    @pytest.mark.parametrize("row, name", [((0, "G", -3, 0, 0), "identity -3"),
                                           ((0, "G", 1, -1, 0), "cloth -1"),
                                           ((0, "G", 1, 0, -2), "camera -2")])
    def test_a_negative_label_is_rejected_with_its_row(self, row, name):
        rows = [(0, "Q", 1, 0, 0), row]
        with pytest.raises(ValueError) as info:
            build_bundle(rows, np.zeros((2, 2)))
        assert str(info.value) == f"rows: row 1: {name} is negative"

    def test_the_first_faulty_row_is_named(self):
        feats = np.zeros((3, 2), dtype=np.float32)
        feats[0, 0] = np.inf
        rows = [(0, "T", 1, 0, 0), (0, "Q", -2, 0, -3), (1, "Q", 1, -1, 0)]
        # The metadata is checked before the features.
        with pytest.raises(ValueError, match="^rows: row 1: identity -2 is negative$"):
            build_bundle(rows, feats)


PAIRS = b"query_role,query_index,rank,cand_role,cand_index,label\n"
META = b"index,role,identity,cloth,camera\n"
SWEEP = b"L,rank1,rank10\n"
#: An all-int CSV: the rows of ranked orders in the layout they once had on disk.
INTS = b"query_index,rank,gallery_index\n"
INT_HEADER = ("query_index", "rank", "gallery_index")
INT_KINDS = (int, int, int)


def read_ints(path):
    return datastore.read_csv(path, INT_HEADER, INT_KINDS)


#: Per format: header, kinds and the reader of its files.
FORMATS = {
    "pairs": (PAIR_HEADER, (str, int, int, str, int, int), read_pairs_csv),
    "metadata": (datastore.METADATA_HEADER, datastore._METADATA_KINDS,
                 lambda path: load_bundle(path, path.parent / "f.bin")),
    "sweep": (SWEEP_HEADER, (int, float, float), read_sweep),
    "ints": (INT_HEADER, INT_KINDS, read_ints),
}

EMPTY = "is empty; every line below the header is a row"
NO_NEWLINE = "does not end in a newline; every line does"


def holds(byte):
    return f"holds the byte {byte!r}; a row holds only ASCII bytes above '#' and its final newline"


def header(got, fmt):
    return f"expected header {','.join(FORMATS[fmt][0])!r}, got {got!r}"


#: Per format: the fields a row must parse as.
FIELDS = {"pairs": "6 fields str,int64,int64,str,int64,int64",
          "metadata": "5 fields int64,str,int64,int64,int64",
          "sweep": "3 fields int64,float64,float64", "ints": "3 fields int64,int64,int64"}


def unparsed(row, fmt):
    return f"{row!r} does not parse as {FIELDS[fmt]}"


def at(line, message):
    return f"line {line}: {message}"


def unknown_role(role, token=""):
    return f"unknown role{token} {role!r} (expected one of T, VQ, VG, Q, G)"


WIDE = "G" * datastore._TEXT_WIDTH

#: What each file reads as: ``(data, rows, fault)``.  ``rows`` is what
#: ``read_csv`` returns, one tuple per row, or None where it raises
#: ``fault``; with rows, the format's reader raises ``fault`` or, where it
#: is None, reads the file too.  A fault is the message of the one
#: ValueError, after ``"{path}: "``; it names the line.
CASES = {
    "pairs/well formed": (
        PAIRS + b"Q,0,1,G,3,1\nQ,0,2,G,12,0\nQ,1,1,G,0,0\nQ,1,2,G,4,1\nQ,2,1,G,9,0\n",
        [("Q", 0, 1, "G", 3, 1), ("Q", 0, 2, "G", 12, 0), ("Q", 1, 1, "G", 0, 0),
         ("Q", 1, 2, "G", 4, 1), ("Q", 2, 1, "G", 9, 0)], None),
    "pairs/config comment": (b'# config: {"out":"a, \\"b\\"","P":5}\n' + PAIRS + b"T,0,1,T,3,1\n",
                             [("T", 0, 1, "T", 3, 1)], None),
    "pairs/quotes span lines": (b'# config: {"a":1,"b\nc":2}\n' + PAIRS + b"VQ,0,1,VG,3,1\n",
                                None, at(2, header('c":2}', "pairs"))),
    "pairs/header only": (PAIRS, [], None),
    "pairs/crlf": (PAIRS.replace(b"\n", b"\r\n") + b"Q,0,1,G,3,1\r\n",
                   None, at(1, header(",".join(PAIR_HEADER) + "\r", "pairs"))),
    "pairs/crlf in the comment line only": (b"# config: {}\r\n" + PAIRS + b"Q,0,1,G,3,1\n",
                                            [("Q", 0, 1, "G", 3, 1)], None),
    "pairs/quoted role": (PAIRS + b'Q,0,1,"G",3,1\n', None, at(2, holds(b'"'))),
    "pairs/comment between rows": (PAIRS + b"Q,0,1,G,3,1\n# note\nQ,0,2,G,4,0\n",
                                   None, at(3, holds(b"#"))),
    "pairs/blank line": (PAIRS + b"Q,0,1,G,3,1\n\nQ,0,2,G,4,0\n", None, at(3, EMPTY)),
    "pairs/a blank first row": (PAIRS + b"\nQ,0,1,G,3,1\n", None, at(2, EMPTY)),
    "pairs/a blank last line": (PAIRS + b"Q,0,1,G,3,1\n\n", None, at(3, EMPTY)),
    "pairs/signs": (PAIRS + b"Q,+0,1,G,3,+1\nQ,-1,2,G,4,-0\n",
                    [("Q", 0, 1, "G", 3, 1), ("Q", -1, 2, "G", 4, 0)], None),
    "pairs/19 digits": (PAIRS + b"Q,0,1,G,9223372036854775807,1\n",
                        [("Q", 0, 1, "G", 2 ** 63 - 1, 1)], None),
    "pairs/2**70": (PAIRS + b"Q,0,1,G,%d,1\n" % 2 ** 70,
                    None, at(2, unparsed(f"Q,0,1,G,{2 ** 70},1", "pairs"))),
    "pairs/mixed roles": (PAIRS + b"Q,0,1,G,3,1\nVQ,0,1,VG,3,1\n",
                          [("Q", 0, 1, "G", 3, 1), ("VQ", 0, 1, "VG", 3, 1)], None),
    "pairs/roles differing in their last byte": (
        PAIRS + b"VQ,0,1,VG,3,1\nVG,0,1,VQ,3,1\n",
        [("VQ", 0, 1, "VG", 3, 1), ("VG", 0, 1, "VQ", 3, 1)], None),
    "pairs/comment shaped as a row": (PAIRS + b"#Q,0,1,G,3,1\n", None, at(2, holds(b"#"))),
    "pairs/unknown role": (PAIRS + b"Q,0,1,G,3,1\nQ,0,2,XYZ,4,0\n",
                           [("Q", 0, 1, "G", 3, 1), ("Q", 0, 2, "XYZ", 4, 0)],
                           at(3, unknown_role("XYZ"))),
    "pairs/uniform unknown role": (PAIRS + b"Q,0,1,XYZ,3,1\nQ,0,2,XYZ,4,0\n",
                                   [("Q", 0, 1, "XYZ", 3, 1), ("Q", 0, 2, "XYZ", 4, 0)],
                                   at(2, unknown_role("XYZ"))),
    "pairs/bad label": (PAIRS + b"Q,0,1,G,3,1\nQ,0,2,G,4,2\n",
                        [("Q", 0, 1, "G", 3, 1), ("Q", 0, 2, "G", 4, 2)],
                        at(3, "label must be 0 or 1, got 2")),
    "pairs/underscores": (PAIRS + b"Q,1_0,1,G,3,1\n",
                          None, at(2, unparsed("Q,1_0,1,G,3,1", "pairs"))),
    "pairs/spaces": (PAIRS + b"Q,0, 1,G,3, 1\n", None, at(2, holds(b" "))),
    "pairs/empty index": (PAIRS + b"Q,0,1,G,,1\n", None, at(2, unparsed("Q,0,1,G,,1", "pairs"))),
    "pairs/extra field": (PAIRS + b"Q,0,1,G,3,1,9\n",
                          None, at(2, unparsed("Q,0,1,G,3,1,9", "pairs"))),
    "pairs/no trailing newline": (PAIRS + b"Q,0,1,G,3,1", None, at(2, NO_NEWLINE)),
    "pairs/no newline after the header": (PAIRS[:-1], None, at(1, NO_NEWLINE)),
    "pairs/non-ascii role": (PAIRS + "Q,0,1,Gé,3,1\n".encode(), None, at(2, holds(b"\xc3"))),
    "pairs/non-ascii token": (PAIRS + "Qï,0,1,G,3,1\nQ,0,2,G,4,0\n".encode(),
                              None, at(2, holds(b"\xc3"))),
    "pairs/nul byte": (PAIRS + b"Q,0,1,G\0,3,1\n", None, at(2, holds(b"\0"))),
    "pairs/a role one byte short of the width bound": (
        PAIRS + b"Q,0,1,%s,3,1\n" % WIDE[1:].encode(), [("Q", 0, 1, WIDE[1:], 3, 1)],
        at(2, unknown_role(WIDE[1:]))),
    "pairs/a role as wide as the width bound": (
        PAIRS + b"Q,0,1,G,3,1\nQ,0,2,%s,4,0\n" % WIDE.encode(), None,
        at(3, f"cand_role {WIDE!r}... is {len(WIDE)} bytes or wider; text fields are narrower")),
    "pairs/a 15-byte role": (PAIRS + b"Q,0,1,%s,3,1\n" % (b"G" * 15),
                             [("Q", 0, 1, "G" * 15, 3, 1)], at(2, unknown_role("G" * 15))),
    "pairs/empty role": (PAIRS + b"Q,0,1,G,3,1\n,0,2,G,4,0\n",
                         [("Q", 0, 1, "G", 3, 1), ("", 0, 2, "G", 4, 0)],
                         at(3, unknown_role(""))),
    "metadata/one role": (META + b"0,G,1,0,0\n1,G,2,0,1\n",
                          [(0, "G", 1, 0, 0), (1, "G", 2, 0, 1)], None),
    "metadata/every role": (META + b"0,T,1,0,0\n0,Q,2,0,1\n",
                            [(0, "T", 1, 0, 0), (0, "Q", 2, 0, 1)], None),
    "metadata/negative label": (META + b"0,G,-3,0,0\n1,G,2,-1,1\n",
                                [(0, "G", -3, 0, 0), (1, "G", 2, -1, 1)],
                                at(2, "identity -3 is negative")),
    "metadata/crlf": (META.replace(b"\n", b"\r\n") + b"0,G,1,0,0\r\n1,G,2,0,1\r\n",
                      None, at(1, header(",".join(datastore.METADATA_HEADER) + "\r", "metadata"))),
    "metadata/comment between rows": (META + b"0,G,1,0,0\n# note\n1,G,2,0,1\n",
                                      None, at(3, holds(b"#"))),
    "metadata/blank line": (META + b"0,G,1,0,0\n\n1,G,2,0,1\n", None, at(3, EMPTY)),
    "metadata/quoted field": (META + b'0,G,1,0,0\n1,G,"2",0,1\n', None, at(3, holds(b'"'))),
    "metadata/19 digits": (META + b"0,G,9223372036854775807,0,0\n1,G,2,0,1\n",
                           [(0, "G", 2 ** 63 - 1, 0, 0), (1, "G", 2, 0, 1)], None),
    "metadata/2**70": (META + b"0,G,1,0,0\n1,G,%d,0,1\n" % 2 ** 70,
                       None, at(3, unparsed(f"1,G,{2 ** 70},0,1", "metadata"))),
    "metadata/out of order": (META + b"1,G,1,0,0\n0,G,2,0,1\n",
                              [(1, "G", 1, 0, 0), (0, "G", 2, 0, 1)],
                              at(2, "role G expected dense index 0, got 1")),
    "metadata/unknown role": (META + b"0,G,1,0,0\n0,X,2,0,1\n",
                              [(0, "G", 1, 0, 0), (0, "X", 2, 0, 1)],
                              at(3, unknown_role("X", " token"))),
    "metadata/mixed-width roles": (
        META + b"0,T,1,0,0\n0,VQ,2,0,1\n0,VG,2,1,1\n0,Q,3,0,0\n",
        [(0, "T", 1, 0, 0), (0, "VQ", 2, 0, 1), (0, "VG", 2, 1, 1), (0, "Q", 3, 0, 0)], None),
    "metadata/a wider role first": (
        META + b"0,VQ,2,0,1\n0,T,1,0,0\n", [(0, "VQ", 2, 0, 1), (0, "T", 1, 0, 0)],
        "line 3: (T:0) out of order; rows must be sorted by role (T, VQ, VG, Q, G) then index"),
    "metadata/empty role": (META + b"0,G,1,0,0\n1,,2,0,1\n",
                            [(0, "G", 1, 0, 0), (1, "", 2, 0, 1)],
                            at(3, unknown_role("", " token"))),
    "metadata/every role empty": (META + b"0,,1,0,0\n1,,2,0,1\n",
                                  [(0, "", 1, 0, 0), (1, "", 2, 0, 1)],
                                  at(2, unknown_role("", " token"))),
    "sweep/well formed": (SWEEP + b"1,0.25,0.75\n5,0.5,1.0\n6,-1.25e-05,-inf\n7,nan,-1e+16\n",
                          [(1, 0.25, 0.75), (5, 0.5, 1.0), (6, -1.25e-05, -np.inf),
                           (7, np.nan, -1e16)], None),
    "sweep/crlf": (SWEEP.replace(b"\n", b"\r\n") + b"1,0.25,0.75\r\n",
                   None, at(1, header("L,rank1,rank10\r", "sweep"))),
    "sweep/quoted field": (SWEEP + b'1,"0.25",0.75\n', None, at(2, holds(b'"'))),
    "sweep/comment between rows": (SWEEP + b"1,0.25,0.75\n# note\n5,0.5,1.0\n",
                                   None, at(3, holds(b"#"))),
    "sweep/signs": (SWEEP + b"+1,-0.25,+0.75\n2,+0.5,-0.5\n",
                    [(1, -0.25, 0.75), (2, 0.5, -0.5)], None),
    "sweep/19 digits": (SWEEP + b"9223372036854775807,0.25,0.75\n",
                        [(2 ** 63 - 1, 0.25, 0.75)], None),
    "sweep/2**70": (SWEEP + b"%d,0.25,0.75\n" % 2 ** 70,
                    None, at(2, unparsed(f"{2 ** 70},0.25,0.75", "sweep"))),
    "sweep/bad float": (SWEEP + b"1,x,0.75\n", None, at(2, unparsed("1,x,0.75", "sweep"))),
    "sweep/an exponent without digits": (SWEEP + b"1,1e,0.75\n",
                                         None, at(2, unparsed("1,1e,0.75", "sweep"))),
    "sweep/float underscore": (SWEEP + b"1,-0_5,0.75\n",
                               None, at(2, unparsed("1,-0_5,0.75", "sweep"))),
    "sweep/empty float": (SWEEP + b"1,,0.75\n", None, at(2, unparsed("1,,0.75", "sweep"))),
    "sweep/a field moved to the next line": (SWEEP + b"1,0.25,0.75,2\n0.5,1.0\n",
                                             None, at(2, unparsed("1,0.25,0.75,2", "sweep"))),
    "ints/well formed": (INTS + b"0,1,5\n0,2,3\n1,1,4\n",
                           [(0, 1, 5), (0, 2, 3), (1, 1, 4)], None),
    "ints/18 digits": (INTS + b"0,1,999999999999999999\n", [(0, 1, 10 ** 18 - 1)], None),
    "ints/config comment": (b'# config: {"a":"b,c","query_role":"Q"}\n' + INTS + b"0,1,5\n",
                              [(0, 1, 5)], None),
    "ints/quotes span lines": (b'# config: {"a":1,"b\nc":2}\n' + INTS + b"0,1,5\n",
                                 None, at(2, header('c":2}', "ints"))),
    "ints/crlf": (INTS.replace(b"\n", b"\r\n") + b"0,1,5\r\n0,2,6\r\n",
                    None, at(1, header("query_index,rank,gallery_index\r", "ints"))),
    "ints/quoted field": (INTS + b'0,1,"5"\n0,2,6\n', None, at(2, holds(b'"'))),
    "ints/blank line": (INTS + b"0,1,5\n\n0,2,6\n", None, at(3, EMPTY)),
    "ints/comment between rows": (INTS + b"0,1,5\n# note\n0,2,6\n", None, at(3, holds(b"#"))),
    "ints/plus sign": (INTS + b"0,+1,5\n", [(0, 1, 5)], None),
    "ints/leading space": (INTS + b"0, 1,5\n", None, at(2, holds(b" "))),
    "ints/leading zeros": (INTS + b"0,001,007\n", [(0, 1, 7)], None),
    "ints/negative index": (INTS + b"-1,1,5\n", [(-1, 1, 5)], None),
    "ints/19 digits": (INTS + b"0,1,9223372036854775807\n", [(0, 1, 2 ** 63 - 1)], None),
    "ints/2**70": (INTS + b"0,1,%d\n" % 2 ** 70,
                     None, at(2, unparsed(f"0,1,{2 ** 70}", "ints"))),
    "ints/no trailing newline": (INTS + b"0,1,5\n0,2,6", None, at(3, NO_NEWLINE)),
    "ints/truncated last row": (INTS + b"0,1,5\n0,2\n",
                                  None, at(3, unparsed("0,2", "ints"))),
    "ints/extra field": (INTS + b"0,1,5\n0,2,6,9\n",
                           None, at(3, unparsed("0,2,6,9", "ints"))),
    "ints/a field moved to the next line": (INTS + b"1,2,3,1\n2,3\n",
                                              None, at(2, unparsed("1,2,3,1", "ints"))),
    "ints/nul byte": (INTS + b"0,1,5\0\n", None, at(2, holds(b"\0"))),
    "ints/non-ascii token": (INTS + "0,1,5ï\n".encode(), None, at(2, holds(b"\xc3"))),
    "ints/header only": (INTS, [], None),
    "ints/empty file": (b"", None, "missing header row"),
    "ints/only empty lines below the header": (INTS + b"\n\n", None, at(2, EMPTY)),
    "ints/a blank line before a quoted field": (INTS + b'0,1,5\n\n0,2,"6"\n',
                                                  None, at(3, EMPTY)),
    "ints/a quoted field before a blank line": (INTS + b'0,1,"5"\n\n0,2,6\n',
                                                  None, at(2, holds(b'"'))),
    "ints/a blank line and no trailing newline": (INTS + b"0,1,5\n\n0,2,6",
                                                    None, at(3, EMPTY)),
    "ints/a bad row before a blank line": (INTS + b"0,2\n0,1,5\n\n",
                                             None, at(4, EMPTY)),
}


class TestOneDialect:
    """Every file above, through ``read_csv`` and through its format's
    reader: a file in the dialect ``write_csv`` writes reads with a range of
    line numbers, and every other file raises one ValueError naming its
    line."""

    @staticmethod
    def case(tmp_path, name):
        data, rows, fault = CASES[name]
        path = tmp_path / "file.csv"
        path.write_bytes(data)
        # Metadata files get one feature row per image.
        write_feature_file(tmp_path / "f.bin", np.zeros((len(rows or ()), 2)))
        header, kinds, reader = FORMATS[name.split("/")[0]]
        return path, header, kinds, reader, rows, fault and f"{path}: {fault}"

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_read_csv(self, tmp_path, name):
        path, header, kinds, _, rows, fault = self.case(tmp_path, name)
        if rows is None:
            with pytest.raises(ValueError) as info:
                datastore.read_csv(path, header, kinds)
            assert str(info.value) == fault
            return
        columns, lines = datastore.read_csv(path, header, kinds)
        want = [np.array([row[j] for row in rows], dtype=kind) for j, kind in enumerate(kinds)]
        assert [(c.dtype, c.tobytes()) for c in columns] == [(w.dtype, w.tobytes()) for w in want]
        head = CASES[name][0].count(b"\n") - len(rows)
        assert isinstance(lines, range) and lines == range(head + 1, head + 1 + len(rows))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_reader(self, tmp_path, name):
        path, _, _, reader, _, fault = self.case(tmp_path, name)
        if fault is None:
            reader(path)
        else:
            with pytest.raises(ValueError) as info:
                reader(path)
            assert str(info.value) == fault

    def test_a_text_column_keeps_every_character(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_bytes(CASES["pairs/uniform unknown role"][0])
        (role, *_), _ = datastore.read_csv(path, PAIR_HEADER, FORMATS["pairs"][1])
        assert role.tolist() == ["Q", "Q"]
        with pytest.raises(ValueError, match="line 2: unknown role 'XYZ'"):
            read_pairs_csv(path)

    def test_a_written_metadata_file_reads_back(self, tmp_path):
        bundle, _ = generate(SynthConfig(n_identities=5, seed=8))
        paths = tmp_path / "meta.csv", tmp_path / "f.bin"
        write_bundle(bundle, *paths, config_comment="config: {}")
        (_, role, *_), _ = datastore.read_csv(paths[0], datastore.METADATA_HEADER,
                                              datastore._METADATA_KINDS)
        assert role.flags.writeable and role.dtype == np.dtype("<U2")
        assert role.tolist() == [r for r in datastore.ROLES
                                 for _ in range(len(bundle.splits[r]))]
        reloaded = load_bundle(*paths)
        for name in datastore.ROLES:
            assert np.array_equal(reloaded.splits[name].identity,
                                  bundle.splits[name].identity)


class TestOneDialectInSmallGateReads(TestOneDialect):
    """Every case above again, with the gate scanning the file 1, 7 or 64
    bytes at a read: its row count, its byte, empty-line and last-byte
    checks and the lines they name must hold across reads that cut rows
    anywhere."""

    @pytest.fixture(autouse=True, params=[1, 7, 64])
    def small_reads(self, request, monkeypatch):
        monkeypatch.setattr(datastore, "_GATE_BYTES", request.param)


#: The cases ``read_csv`` rejects before ``np.loadtxt`` parses a row.
BYTE_FAULTS = sorted(name for name, (_, rows, fault) in CASES.items()
                     if rows is None and "does not parse as" not in fault)


class TestByteFaultsInOneRead:
    """A fault of the header, a byte, an empty line or the last newline is
    named from the one forward read of the file, at every gate size: no
    second search of the file finds it."""

    @pytest.mark.parametrize("block", [1, 7, 64, datastore._GATE_BYTES])
    @pytest.mark.parametrize("name", BYTE_FAULTS)
    def test_the_fault_is_named_without_reading_the_file_again(self, tmp_path, monkeypatch,
                                                               name, block):
        path, header, kinds, _, _, fault = TestOneDialect.case(tmp_path, name)
        monkeypatch.setattr(datastore, "_GATE_BYTES", block)

        def read_again(self):
            raise AssertionError(f"{self} was read again")

        monkeypatch.setattr("pathlib.Path.read_bytes", read_again)
        with pytest.raises(ValueError) as info:
            datastore.read_csv(path, header, kinds)
        assert str(info.value) == fault


class TestRoleColumns:
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_role_columns_read_alike_at_every_gate_size(self, tmp_path, monkeypatch, block):
        # 3,600 rows: one role throughout a column, and roles of two widths
        # that change between rows.
        n = 3600
        path = tmp_path / "pairs.csv"
        roles = np.array(["T", "VQ", "Q", "VG"])[np.arange(n) % 4]
        write_csv(path, PAIR_HEADER, (np.full(n, "T"), np.arange(n) // 20, np.arange(n) % 20 + 1,
                                      roles, np.arange(n) % 97, np.arange(n) % 2),
                  config_comment="config: {}")
        kinds = FORMATS["pairs"][1]
        want = datastore.read_csv(path, PAIR_HEADER, kinds)
        monkeypatch.setattr(datastore, "_GATE_BYTES", block)
        got = datastore.read_csv(path, PAIR_HEADER, kinds)
        assert [c.tobytes() for c in got[0]] == [c.tobytes() for c in want[0]]
        (query_role, *_, cand_role, _, _), lines = got
        assert lines == range(3, 3 + n)
        assert query_role.tolist() == ["T"] * n and cand_role.tolist() == roles.tolist()
        assert (query_role.dtype, cand_role.dtype) == (np.dtype("<U1"), np.dtype("<U2"))


class TestIntColumns:
    @staticmethod
    def int_file(tmp_path, queries=6, gallery=600):
        """``queries * gallery`` rows of query, rank and a gallery permutation."""
        rng = np.random.default_rng(queries)
        path = tmp_path / "ints.csv"
        write_csv(path, INT_HEADER, (np.repeat(np.arange(queries), gallery),
                                     np.tile(np.arange(1, gallery + 1), queries),
                                     np.concatenate([rng.permutation(gallery)
                                                     for _ in range(queries)])),
                  config_comment="config: {}")
        return path

    @pytest.mark.parametrize("block", [7, 1 << 10, datastore._GATE_BYTES])
    @pytest.mark.parametrize("row, message", [
        (b"5,600,1_0\n", unparsed("5,600,1_0", "ints")),
        (b"5,600, 10\n", holds(b" ")),
        (b"5,600,10\n\n", EMPTY),
        (b"5,600,10", NO_NEWLINE),
    ])
    def test_a_fault_in_the_last_row_names_its_line(self, tmp_path, monkeypatch, block, row,
                                                    message):
        path = self.int_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:data.rindex(b"\n", 0, -1) + 1] + row)
        monkeypatch.setattr(datastore, "_GATE_BYTES", block)
        line = 3602 + (message == EMPTY)
        with pytest.raises(ValueError) as info:
            read_ints(path)
        assert str(info.value) == f"{path}: line {line}: {message}"

    def test_memory_beyond_the_columns_is_fixed(self, tmp_path):
        """450 queries of 1,347 images, the rows a large benchmark once
        ranked as text.  The file is read in bounded pieces, never whole: the
        traced peak is the storage behind the returned columns plus a
        fixed allowance."""
        path = self.int_file(tmp_path, queries=450, gallery=1347)
        with PeakMemory() as peak:
            columns, lines = read_ints(path)
        # The line numbers are a range: rows of a written file are consecutive lines.
        assert isinstance(lines, range)
        # The columns may share one table.
        held = {id(base): base.nbytes for base in (c if c.base is None else c.base
                                                    for c in columns)}
        beyond = peak.bytes - sum(held.values())
        assert beyond < 8 * 2 ** 20, f"{beyond / 2 ** 20:.1f} MB"


class TestNumberFields:
    """``int()`` and ``float()`` read ``1_0`` as 10 and `` 3 `` as 3; the
    writer writes neither, and the reader rejects both, naming the line."""

    @pytest.mark.parametrize("row, message", [(b"0,2,1_0", unparsed("0,2,1_0", "ints")),
                                              (b"0,2, 3 ", holds(b" "))])
    def test_int_rows(self, tmp_path, row, message):
        path = tmp_path / "ints.csv"
        path.write_bytes(INTS + b"0,1,0\n" + row + b"\n")
        with pytest.raises(ValueError) as info:
            read_ints(path)
        assert str(info.value) == f"{path}: line 3: {message}"

    @pytest.mark.parametrize("row, message", [
        (b"Q,1_2,1,G,3,1", unparsed("Q,1_2,1,G,3,1", "pairs")),
        (b"Q,0,1,G,3\t,1", holds(b"\t"))])
    def test_pair_rows(self, tmp_path, row, message):
        path = tmp_path / "pairs.csv"
        path.write_bytes(PAIRS + row + b"\n")
        with pytest.raises(ValueError) as info:
            read_pairs_csv(path)
        assert str(info.value) == f"{path}: line 2: {message}"

    @pytest.mark.parametrize("row, message", [
        (b"1,-1_0.5,0.75", unparsed("1,-1_0.5,0.75", "sweep")),
        (b"1,-0.5\t,0.75", holds(b"\t"))])
    def test_sweep_rows(self, tmp_path, row, message):
        path = tmp_path / "sweep.csv"
        path.write_bytes(SWEEP + row + b"\n")
        with pytest.raises(ValueError) as info:
            read_sweep(path)
        assert str(info.value) == f"{path}: line 2: {message}"

    def test_metadata_rows(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_bytes(META + b"0,G,1,0,0\n1,G,2_0,0,1\n")
        write_feature_file(tmp_path / "f.bin", np.zeros((2, 2)))
        with pytest.raises(ValueError) as info:
            load_bundle(path, tmp_path / "f.bin")
        assert str(info.value) == f"{path}: line 3: {unparsed('1,G,2_0,0,1', 'metadata')}"
