"""Dataset loading, validation and the on-disk feature formats.

A dataset bundle is three files:

* a metadata CSV with header ``index,role,identity,cloth,camera`` listing
  every image across the five splits (train ``T``, validation query ``VQ``,
  validation gallery ``VG``, test query ``Q``, test gallery ``G``),
* a global feature file (magic ``RVR1``) holding one f32 row per image,
* an optional part feature file (magic ``RVP1``) holding, per image, K
  presence-flagged part vectors.

Binary payloads are little-endian f32, row-major, in metadata row order.
Rows in the metadata file are sorted by role (in the order T, VQ, VG, Q, G)
and then by index; indices are dense 0..n-1 within each role.

This module also frames every artifact the package writes or reads:
:func:`write_csv` and :func:`read_csv` for CSVs, :func:`write_json` for JSON
and :class:`BinaryHeader` for the magic and header of a binary file.  Each
format module keeps only its own row or field rule.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

ROLES = ("T", "VQ", "VG", "Q", "G")
_ROLE_RANK = {role: i for i, role in enumerate(ROLES)}

METADATA_HEADER = ("index", "role", "identity", "cloth", "camera")

FEATURE_MAGIC = b"RVR1"
PARTS_MAGIC = b"RVP1"

#: Number of part slots assumed when a bundle has no part feature file.
DEFAULT_PART_COUNT = 15


class BundleFormatError(ValueError):
    """A dataset file violates the on-disk format contract."""


@dataclass(frozen=True)
class ImageRecord:
    """A single image: metadata plus views into its bundle's feature arrays.

    ``part_present`` is a (K,) bool array and ``part_vectors`` a (K, Dp)
    f32 array.  An absent slot's vector is all zeros and carries no
    information; downstream code must consult the flag, never the values.
    """

    index: int
    identity: int
    cloth: int
    camera: int
    global_feature: np.ndarray
    part_present: np.ndarray
    part_vectors: np.ndarray


@dataclass(frozen=True)
class Violation:
    """One invariant failure found by :func:`validate_bundle`."""

    role: str
    index: int
    field: str
    message: str

    def __str__(self) -> str:
        return f"[{self.role}:{self.index}] {self.field}: {self.message}"


@dataclass(frozen=True, eq=False)
class Split:
    """One role's images as columns; row ``i`` is the image with index ``i``.

    ``identity``, ``cloth`` and ``camera`` are (n,) int64, ``features`` is
    (n, D) f32, ``present`` (n, K) bool and ``vectors`` (n, K, Dp) f32.
    ``split[i]`` is the :class:`ImageRecord` view of row ``i``, built once:
    every access returns the same object.  ``split[a:b]`` is a new Split of
    those rows, indexed from 0.
    """

    identity: np.ndarray
    cloth: np.ndarray
    camera: np.ndarray
    features: np.ndarray
    present: np.ndarray
    vectors: np.ndarray
    _records: list = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_records", [None] * len(self.identity))

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Split(self.identity[i], self.cloth[i], self.camera[i],
                         self.features[i], self.present[i], self.vectors[i])
        i = range(len(self))[i]
        rec = self._records[i]
        if rec is None:
            rec = self._records[i] = ImageRecord(
                i, int(self.identity[i]), int(self.cloth[i]), int(self.camera[i]),
                self.features[i], self.present[i], self.vectors[i])
        return rec


@dataclass
class DatasetBundle:
    """All five splits of a dataset plus the shared dimensions (D, Dp, K)."""

    splits: dict[str, Split]
    dims: tuple[int, int, int]

    @property
    def feature_dim(self) -> int:
        return self.dims[0]


# ---------------------------------------------------------------------------
# artifact framing: CSV, JSON and binary headers


Row = TypeVar("Row")


def write_csv(path: str | Path, header: tuple[str, ...], chunks: Iterable[str],
              config_comment: str | None = None) -> None:
    """Write a CSV that :func:`read_csv` reads: an optional ``# `` comment
    line, then ``header``, then ``chunks`` of text, each holding one or more
    complete rows that end in ``\\n``."""
    with open(path, "w", newline="") as fh:
        if config_comment is not None:
            fh.write(f"# {config_comment}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(chunks)


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as JSON: sorted keys, two-space indent, final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_csv(path: str | Path, header: tuple[str, ...],
             parse: Callable[[list[str]], Row],
             error: type[ValueError] = ValueError) -> Iterator[Row]:
    """Iterate over a CSV written by this package: ``#`` comment lines
    anywhere, then ``header``, then rows of exactly ``len(header)`` fields.

    ``parse`` turns each row's fields into the value yielded; a ValueError
    it raises, like any format fault, is re-raised as ``error`` naming the
    file and line.
    """
    path = Path(path)
    header_seen = False
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            if not raw or raw[0].startswith("#"):
                continue
            if not header_seen:
                if tuple(raw) != header:
                    raise error(f"{path}: line {lineno}: expected header "
                                f"{','.join(header)!r}, got {','.join(raw)!r}")
                header_seen = True
                continue
            if len(raw) != len(header):
                raise error(f"{path}: line {lineno}: expected {len(header)} "
                            f"fields, got {len(raw)}")
            try:
                row = parse(raw)
            except ValueError as exc:
                raise error(f"{path}: line {lineno}: {exc}") from None
            yield row
    if not header_seen:
        raise error(f"{path}: missing header row")


class BinaryHeader:
    """A binary file read whole and checked front to back: its ``magic``,
    header fields in order (:meth:`take`), then a payload whose size the
    header fixes (:meth:`payload`).  Every fault raises ``error`` naming the
    file."""

    def __init__(self, path: str | Path, magic: bytes,
                 error: type[ValueError] = BundleFormatError) -> None:
        self.path = Path(path)
        self.error = error
        self.data = self.path.read_bytes()
        found = self.data[:len(magic)]
        if found != magic:
            raise error(f"{self.path}: bad magic at offset 0: expected {magic!r}, "
                        f"got {found!r}")
        self.offset = len(magic)

    def take(self, fmt: str) -> tuple:
        """Unpack the next header fields; a file too short for them raises."""
        size = struct.calcsize(fmt)
        held = len(self.data) - self.offset
        if size > held:
            raise self.error(f"{self.path}: truncated header at offset {self.offset}: "
                             f"wanted {size} bytes, got {held}")
        values = struct.unpack_from(fmt, self.data, self.offset)
        self.offset += size
        return values

    def payload(self, expected_bytes: int, what: str) -> memoryview:
        """The rest of the file, which must be exactly ``expected_bytes``
        long; ``what`` names the contents the header declares."""
        held = len(self.data) - self.offset
        if held != expected_bytes:
            raise self.error(f"{self.path}: payload length mismatch: header declares "
                             f"{what} ({expected_bytes} bytes), file holds {held} bytes "
                             "after the header")
        return memoryview(self.data)[self.offset:]


# ---------------------------------------------------------------------------
# metadata CSV


def _parse_metadata_row(raw: list[str]) -> tuple[int, str, int, int, int]:
    index_s, role, identity_s, cloth_s, camera_s = raw
    return int(index_s), role, int(identity_s), int(cloth_s), int(camera_s)


def _check_metadata_order(source: str | Path,
                          rows: list[tuple[int, str, int, int, int]]) -> dict[str, int]:
    """Check that rows are sorted by role, then index, with dense indices;
    returns the number of rows per role."""
    counts: dict[str, int] = {role: 0 for role in ROLES}
    prev_key = (-1, -1)
    for row_no, (index, role, _, _, _) in enumerate(rows):
        if role not in _ROLE_RANK:
            raise BundleFormatError(f"{source}: row {row_no}: unknown role token "
                                    f"{role!r} (expected one of {', '.join(ROLES)})")
        key = (_ROLE_RANK[role], index)
        if key <= prev_key:
            raise BundleFormatError(
                f"{source}: row {row_no} ({role}:{index}) out of order; rows must be "
                "sorted by role (T, VQ, VG, Q, G) then index"
            )
        if index != counts[role]:
            raise BundleFormatError(
                f"{source}: row {row_no}: role {role} expected dense index "
                f"{counts[role]}, got {index}"
            )
        counts[role] += 1
        prev_key = key
    return counts


# ---------------------------------------------------------------------------
# binary feature files


def read_feature_file(path: str | Path) -> np.ndarray:
    """Read a global feature file into an (N, D) float32 array."""
    header = BinaryHeader(path, FEATURE_MAGIC)
    n, d = header.take("<II")
    return np.frombuffer(header.payload(n * d * 4, f"{n}x{d} f32"),
                         dtype="<f4").reshape(n, d)


def write_feature_file(path: str | Path, features: np.ndarray) -> None:
    """Write an (N, D) array as a global feature file (f32, little-endian)."""
    features = np.ascontiguousarray(features, dtype="<f4")
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<II", features.shape[0], features.shape[1]))
        fh.write(features.tobytes())


def read_parts_file(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a part feature file.

    Returns ``(present, vectors)`` where ``present`` is an (N, K) bool array
    and ``vectors`` is an (N, K, Dp) float32 array.  Vectors whose presence
    flag is 0 are normalised to all-zero regardless of the stored payload.
    """
    header = BinaryHeader(path, PARTS_MAGIC)
    n, k, dp = header.take("<III")
    # The size is checked by arithmetic first: a huge declared dp must not
    # build its record dtype.
    payload = header.payload(n * k * (1 + 4 * dp), f"{n}x{k} parts of dim {dp}")
    record = np.dtype([("flag", "u1"), ("vec", "<f4", (dp,))])
    raw = np.frombuffer(payload, dtype=record).reshape(n, k)
    flags = raw["flag"]
    bad = np.argwhere(flags > 1)
    if bad.size:
        i, j = bad[0]
        raise BundleFormatError(
            f"{header.path}: record {i} part {j}: presence flag must be 0 or 1, "
            f"got {flags[i, j]}"
        )
    present = flags.astype(bool)
    vectors = raw["vec"].copy()
    vectors[~present] = 0.0
    return present, vectors


def write_parts_file(path: str | Path, present: np.ndarray, vectors: np.ndarray) -> None:
    """Write (N, K) presence flags and (N, K, Dp) vectors as a part file.

    Absent slots are stored with zero-filled vectors.
    """
    present = np.asarray(present, dtype=bool)
    vectors = np.asarray(vectors, dtype="<f4")
    if present.ndim != 2 or vectors.ndim != 3 or vectors.shape[:2] != present.shape:
        raise ValueError(
            f"inconsistent shapes: present {present.shape}, vectors {vectors.shape}"
        )
    n, k = present.shape
    dp = vectors.shape[2]
    record = np.dtype([("flag", "u1"), ("vec", "<f4", (dp,))])
    out = np.zeros((n, k), dtype=record)
    out["flag"] = present.astype("u1")
    stored = np.where(present[:, :, None], vectors, np.float32(0.0))
    out["vec"] = stored
    with open(path, "wb") as fh:
        fh.write(PARTS_MAGIC)
        fh.write(struct.pack("<III", n, k, dp))
        fh.write(out.tobytes())


# ---------------------------------------------------------------------------
# bundle assembly


def load_bundle(
    metadata_path: str | Path,
    feature_path: str | Path,
    parts_path: str | Path | None = None,
    expected_dims: tuple[int, int, int] | None = None,
) -> DatasetBundle:
    """Load a dataset bundle from its metadata, feature and part files.

    Raises :class:`BundleFormatError` on malformed headers, unknown role
    tokens, row/payload count mismatches, non-finite feature values, or an
    ``expected_dims`` mismatch.  When ``parts_path`` is None every record
    gets ``DEFAULT_PART_COUNT`` absent part slots of dimension zero.
    """
    metadata_path = Path(metadata_path)
    feature_path = Path(feature_path)
    rows = list(read_csv(metadata_path, METADATA_HEADER, _parse_metadata_row,
                         BundleFormatError))
    counts = _check_metadata_order(metadata_path, rows)

    features = read_feature_file(feature_path)
    if features.shape[0] != len(rows):
        raise BundleFormatError(
            f"{feature_path}: holds {features.shape[0]} rows but "
            f"{metadata_path} lists {len(rows)} images"
        )
    bad_rows = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad_rows.size:
        r = int(bad_rows[0])
        raise BundleFormatError(
            f"{feature_path}: non-finite value in feature row {r} "
            f"(metadata {rows[r][1]}:{rows[r][0]})"
        )

    if parts_path is not None:
        parts_path = Path(parts_path)
        present, vectors = read_parts_file(parts_path)
        if present.shape[0] != len(rows):
            raise BundleFormatError(
                f"{parts_path}: holds {present.shape[0]} records but "
                f"{metadata_path} lists {len(rows)} images"
            )
        finite = np.isfinite(vectors).all(axis=2) | ~present
        bad = np.argwhere(~finite)
        if bad.size:
            i, j = bad[0]
            raise BundleFormatError(
                f"{parts_path}: non-finite value in record {int(i)} part {int(j)} "
                f"(metadata {rows[int(i)][1]}:{rows[int(i)][0]})"
            )
    else:
        present = vectors = None

    bundle = _assemble(rows, counts, features, present, vectors)
    if expected_dims is not None and tuple(expected_dims) != bundle.dims:
        raise BundleFormatError(
            f"dimension mismatch: expected (D, Dp, K) = {tuple(expected_dims)}, "
            f"files hold {bundle.dims}"
        )
    return bundle


def _assemble(rows: list[tuple[int, str, int, int, int]], counts: dict[str, int],
              features: np.ndarray, present: np.ndarray | None,
              vectors: np.ndarray | None) -> DatasetBundle:
    """Slice the arrays of role-ordered rows (see :func:`_check_metadata_order`)
    into one :class:`Split` per role; without part arrays every image gets
    ``DEFAULT_PART_COUNT`` absent slots of dimension zero."""
    if present is None:
        present = np.zeros((len(rows), DEFAULT_PART_COUNT), dtype=bool)
        vectors = np.zeros((len(rows), DEFAULT_PART_COUNT, 0), dtype=np.float32)
    labels = np.array([row[2:] for row in rows], dtype=np.int64).reshape(-1, 3).T.copy()
    splits: dict[str, Split] = {}
    start = 0
    for role in ROLES:
        part = slice(start, start + counts[role])
        splits[role] = Split(labels[0, part], labels[1, part], labels[2, part],
                             features[part], present[part], vectors[part])
        start = part.stop
    return DatasetBundle(splits=splits,
                         dims=(features.shape[1], vectors.shape[2], present.shape[1]))


def validate_bundle(bundle: DatasetBundle) -> list[Violation]:
    """Check what a bundle's arrays do not guarantee; returns one
    :class:`Violation` per failure, in (role, index) order.

    Covers negative identity/cloth/camera labels and non-finite values in
    the global feature or a present part.
    """
    out: list[Violation] = []
    for role in ROLES:
        split = bundle.splits[role]
        for name in ("identity", "cloth", "camera"):
            column = getattr(split, name)
            out.extend(Violation(role, int(i), name, f"negative value {column[i]}")
                       for i in np.flatnonzero(column < 0))
        out.extend(Violation(role, int(i), "global_feature", "non-finite value")
                   for i in np.flatnonzero(~np.isfinite(split.features).all(axis=1)))
        bad_parts = split.present & ~np.isfinite(split.vectors).all(axis=2)
        out.extend(Violation(role, int(i), "part_vectors", f"part {j} non-finite value")
                   for i, j in np.argwhere(bad_parts))
    out.sort(key=lambda v: (_ROLE_RANK[v.role], v.index))
    return out


def write_bundle(
    bundle: DatasetBundle,
    metadata_path: str | Path,
    feature_path: str | Path,
    parts_path: str | Path | None = None,
    config_comment: str | None = None,
) -> None:
    """Write a bundle back to disk in canonical form.

    The canonical form is byte-stable: rows in (role, index) order, plain
    integer formatting, ``\\n`` newlines, payloads in metadata row order.
    ``config_comment`` (if given) is emitted as a leading ``#`` line of the
    metadata CSV.
    """
    splits = [bundle.splits[role] for role in ROLES]
    rows = (f"{i},{role},{identity},{cloth},{camera}\n"
            for role, split in zip(ROLES, splits)
            for i, (identity, cloth, camera) in enumerate(zip(
                split.identity.tolist(), split.cloth.tolist(), split.camera.tolist())))
    write_csv(metadata_path, METADATA_HEADER, rows, config_comment)
    write_feature_file(feature_path, np.concatenate([s.features for s in splits]))
    if parts_path is not None:
        write_parts_file(parts_path, np.concatenate([s.present for s in splits]),
                         np.concatenate([s.vectors for s in splits]))


def build_bundle(
    rows: list[tuple[int, str, int, int, int]],
    features: np.ndarray,
    present: np.ndarray | None = None,
    vectors: np.ndarray | None = None,
) -> DatasetBundle:
    """Assemble a bundle from in-memory arrays (row order = metadata order).

    ``rows`` entries are (index, role, identity, cloth, camera), ordered as
    in a metadata file: by role (T, VQ, VG, Q, G), then dense index from 0.
    A row out of order, with a gap or with an unknown role raises
    :class:`BundleFormatError` naming it.  Arrays are
    cast to float32 so an assembled bundle round-trips bit-for-bit through
    :func:`write_bundle` / :func:`load_bundle`.
    """
    counts = _check_metadata_order("rows", rows)
    features = np.asarray(features, dtype=np.float32)
    if features.shape[0] != len(rows):
        raise ValueError(f"{features.shape[0]} feature rows for {len(rows)} metadata rows")
    if (present is None) != (vectors is None):
        raise ValueError("present and vectors must be given together")
    if present is not None:
        present = np.asarray(present, dtype=bool)
        vectors = np.asarray(vectors, dtype=np.float32)
        vectors = np.where(present[:, :, None], vectors, np.float32(0.0))
    return _assemble(rows, counts, features, present, vectors)
