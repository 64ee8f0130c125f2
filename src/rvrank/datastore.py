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
format module keeps only its header, its column kinds and its own rules,
checked over whole columns with :func:`check_rows`.
"""

from __future__ import annotations

import csv
import io
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

ROLES = ("T", "VQ", "VG", "Q", "G")

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


#: Rows formatted per block by :func:`write_csv`, so that every temporary of
#: the writer is O(block) rather than O(rows).
_BLOCK_ROWS = 1 << 16


def _digit_groups() -> np.ndarray:
    """(3, 10**4) uint32 table of 4-byte digit groups, by kind: 0 all NUL
    (above a number's leading group), 1 NUL-padded on the left (its leading
    group; 0 spells ``0``), 2 zero-padded (every lower group)."""
    groups = np.arange(10 ** 4)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    padded = (groups // place % 10 + ord("0")).astype(np.uint8)
    leading = np.where((groups < place) & (place > 1), np.uint8(0), padded)
    table = np.stack([np.zeros_like(padded), leading, padded])
    return table.view(np.uint32)[..., 0]


_DIGIT_GROUPS = _digit_groups()

#: Bytes a text field may not hold: each would break a row of the file.
_TEXT_FORBIDDEN = np.zeros(256, dtype=bool)
_TEXT_FORBIDDEN[list(b',"\n\r')] = True


def _int_bytes(values: np.ndarray) -> np.ndarray:
    """(rows, width) uint8: each int64 as ``str(v)``, NUL-padded."""
    negative = values < 0
    rest = values.view(np.uint64).copy()
    # Two's complement: exact for every magnitude, int64's minimum included.
    rest[negative] = ~rest[negative] + np.uint64(1)
    top, count = int(rest.max(initial=0)), 1
    while count < 5 and top >= 10 ** (4 * count):
        count += 1
    groups = np.empty((len(values), count), dtype=np.uint32)
    for k in range(count):
        kind = (rest >= 10 ** 4).astype(np.intp) + ((rest > 0) if k else 1)
        groups[:, count - 1 - k] = _DIGIT_GROUPS[kind, (rest % 10 ** 4).astype(np.intp)]
        rest //= 10 ** 4
    digits = groups.view(np.uint8)
    if not negative.any():
        return digits
    # The NULs between the sign and the leading digit drop out when the
    # block is compacted.
    return np.column_stack([np.where(negative, np.uint8(ord("-")), np.uint8(0)), digits])


def _float_bytes(values: np.ndarray) -> np.ndarray:
    """(rows, width) uint8: each float64 as ``repr(v)``, NUL-padded."""
    text = np.array(list(map(repr, values.tolist())), dtype="S")
    return text.view(np.uint8).reshape(len(values), -1)


def _text_bytes(values: np.ndarray) -> np.ndarray:
    """(rows, width) uint8: each str as UTF-8, NUL-padded."""
    values = np.ascontiguousarray(values)
    codes = values.view(np.uint32).reshape(len(values), -1)
    if codes.max(initial=0) < 128:
        return codes.astype(np.uint8)
    return np.char.encode(values, "utf-8").view(np.uint8).reshape(len(values), -1)


#: Column dtype kind -> (dtype it is written as, its block formatter).
_FORMATS = {"i": (np.int64, _int_bytes), "f": (np.float64, _float_bytes),
            "U": (np.str_, _text_bytes)}


def _check_text(path: Path, name: str, values: np.ndarray) -> None:
    """Raise ValueError naming the file, column and row of the first text
    field that holds a byte of :data:`_TEXT_FORBIDDEN` or a NUL."""
    for start in range(0, len(values), _BLOCK_ROWS):
        data = _text_bytes(values[start:start + _BLOCK_ROWS])
        # Every rejected byte, NUL included, sorts below "-"; only rows
        # holding such a byte, if only as padding, are tested further.
        rows = np.flatnonzero((data < ord("-")).any(axis=1))
        data = data[rows]
        bad = _TEXT_FORBIDDEN[data].any(axis=1)
        bad |= ((data[:, :-1] == 0) & (data[:, 1:] != 0)).any(axis=1)
        if bad.any():
            row = start + int(rows[np.argmax(bad)])
            raise ValueError(f"{path}: column {name!r}, row {row}: text field "
                             f"{str(values[row])!r} holds a comma, quote, newline, "
                             "carriage return or NUL")


def write_csv(path: str | Path, header: tuple[str, ...],
              columns: Iterable[np.ndarray],
              config_comment: str | None = None) -> None:
    """Write a CSV that :func:`read_csv` reads: an optional ``# `` comment
    line, then ``header``, then one row per entry of ``columns``, which
    hold one 1-D array per header field, all of one length.

    An integer column is written as ``str(v)`` of each int64 value, a float
    column as ``repr(v)`` of each float64 value and a str column verbatim,
    as UTF-8; an empty string is an empty field.  A text field holding a
    comma, a quote, a newline, a carriage return or a NUL raises ValueError
    naming the file, column and row before the file is opened.  Rows are
    formatted in blocks of at most ``_BLOCK_ROWS``.
    """
    path = Path(path)
    formats = []
    for name, column in zip(header, columns, strict=True):
        column = np.asarray(column)
        if column.ndim != 1 or column.dtype.kind not in _FORMATS:
            raise ValueError(f"{path}: column {name!r} must be a 1-D array of "
                             f"integers, floats or str, got {column.dtype} "
                             f"of shape {column.shape}")
        dtype, fmt = _FORMATS[column.dtype.kind]
        column = column.astype(dtype, casting="safe", copy=False)
        if fmt is _text_bytes:
            _check_text(path, name, column)
        formats.append((column, fmt))
    lengths = {len(column) for column, _ in formats}
    if len(lengths) > 1:
        raise ValueError(f"{path}: columns differ in length: {sorted(lengths)}")

    with open(path, "wb") as fh:
        if config_comment is not None:
            fh.write(f"# {config_comment}\n".encode())
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, max(lengths, default=0), _BLOCK_ROWS):
            fields = [fmt(column[start:start + _BLOCK_ROWS]) for column, fmt in formats]
            block = np.empty((len(fields[0]), sum(f.shape[1] + 1 for f in fields)),
                             dtype=np.uint8)
            at = 0
            for f in fields:
                block[:, at:at + f.shape[1]] = f
                block[:, at + f.shape[1]] = ord(",")
                at += f.shape[1] + 1
            block[:, -1] = ord("\n")
            fh.write(block[block != 0].tobytes())


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as JSON: sorted keys, two-space indent, final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_csv(path: str | Path, header: tuple[str, ...], kinds: tuple[type, ...],
             error: type[ValueError] = ValueError) -> tuple[list[np.ndarray], np.ndarray]:
    """Read a CSV as :func:`write_csv` writes it: ``#`` comment lines
    anywhere, then ``header``, then rows of exactly ``len(header)`` fields.

    Returns one 1-D array per field, typed by ``kinds`` (``int`` as int64,
    ``float`` as float64, or ``str``), and each row's file line number.
    Every format fault, an int64 overflow included, raises ``error`` naming
    the file and line.  :func:`_parse_bytes` reads the body of a file as
    this package writes it; any other file is read row by row, alike.
    """
    path = Path(path)
    data = path.read_bytes()
    rows = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
    try:
        for raw in rows:
            if raw and not raw[0].startswith("#"):
                break
        else:
            raise error(f"{path}: missing header row")
        if tuple(raw) != header:
            raise error(f"{path}: line {rows.line_num}: expected header "
                        f"{','.join(header)!r}, got {','.join(raw)!r}")
        parsed = _parse_bytes(data, rows.line_num, kinds)
        return parsed if parsed is not None else _read_rows(path, rows, header, kinds, error)
    except csv.Error as exc:
        raise error(f"{path}: line {rows.line_num}: {exc}") from None


def check_rows(rules: list[tuple[np.ndarray, Callable[[int], str]]],
               error: type[ValueError] = ValueError) -> None:
    """Raise ``error(message(i))`` for the first row ``i`` that a rule
    flags; each rule is a boolean column ``bad`` and its ``message``, and a
    row that several rules flag takes the first rule's message."""
    flagged = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(rules) if bad.any()]
    if flagged:
        row, k = min(flagged)
        raise error(rules[k][1](row))


#: Bytes ``repr`` writes for a float64, and the NUL padding of a field.
_REPR_BYTES = np.zeros(256, dtype=bool)
_REPR_BYTES[list(b"0123456789.+-einfa\0")] = True


def _digit_column(body: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The integer each ``body[begin:end]`` spells, one digit place at a
    time, or None unless all are 1 to 18 plain digits (no int64 overflow)."""
    width = end - begin
    places = int(width.max())
    if width.min() < 1 or places > 18:
        return None
    value = np.zeros(len(end), dtype=np.int64)
    at = end - places
    for place in range(places, 0, -1):
        digit = body.take(at, mode="clip") - np.uint8(ord("0"))
        digit[width < place] = 0  # a byte before a narrower field
        if (digit > 9).any():
            return None
        value *= 10
        value += digit
        at += 1
    return value


def _float_column(body: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The float64 each ``body[begin:end]`` casts to, or None unless all are
    non-empty, cast, and hold only bytes ``repr`` writes."""
    width = end - begin
    if width.min() < 1:
        return None
    text = np.zeros((len(end), int(width.max())), dtype=np.uint8)  # NUL-padded
    for place in range(text.shape[1]):
        text[:, place] = np.where(width > place, body.take(begin + place, mode="clip"), 0)
    if not _REPR_BYTES[text].all():
        return None
    try:
        return text.view(f"S{text.shape[1]}")[:, 0].astype(np.float64)
    except ValueError:
        return None


def _token_column(body: np.ndarray, begin: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The first ``body[begin:end]`` broadcast to every row, or None unless
    every one holds that same non-empty token, byte for byte."""
    token = body[begin[0]:end[0]].tobytes()
    if not token or (end - begin != len(token)).any():
        return None
    at = begin.copy()
    for byte in token:
        if (body.take(at) != byte).any():
            return None
        at += 1
    return np.broadcast_to(np.array(token.decode()), len(end))


def _parse_bytes(data: bytes, head_lines: int,
                 kinds: tuple[type, ...]) -> tuple[list[np.ndarray], np.ndarray] | None:
    """:func:`read_csv`'s result for the rows after the first ``head_lines``
    lines, parsed from the bytes with numpy, or None to leave the file to
    the row path.  The file must be ASCII without CR or NUL and end in a
    newline, and its body hold no quote or ``#``, only rows of
    ``len(kinds)`` fields.  A text column comes back read-only.
    """
    if not data.isascii() or b"\r" in data or b"\0" in data or not data.endswith(b"\n"):
        return None
    start = 0
    for _ in range(head_lines):
        start = data.index(b"\n", start) + 1
    if data.find(b'"', start) >= 0 or data.find(b"#", start) >= 0:
        return None
    body = np.frombuffer(data, dtype=np.uint8, offset=start)
    # Row by row, the comma after each field but the last, then the newline.
    ends = np.flatnonzero((body == ord(",")) | (body == ord("\n")))
    if len(ends) % len(kinds):
        return None
    ends = ends.reshape(-1, len(kinds))
    if (body[ends[:, :-1]] != ord(",")).any() or (body[ends[:, -1]] != ord("\n")).any():
        return None
    if not len(ends):
        return [np.empty(0, dtype=kind) for kind in kinds], np.empty(0, dtype=np.int64)
    columns = []
    for j, kind in enumerate(kinds):
        begin = ends[:, j - 1] + 1 if j else np.r_[0, ends[:-1, -1] + 1]
        columns.append({int: _digit_column, float: _float_column,
                        str: _token_column}[kind](body, begin, ends[:, j]))
        if columns[-1] is None:
            return None
    return columns, np.arange(head_lines + 1, head_lines + 1 + len(ends))


def _read_rows(path: Path, rows, header: tuple[str, ...], kinds: tuple[type, ...],
               error: type[ValueError]) -> tuple[list[np.ndarray], np.ndarray]:
    """:func:`read_csv`'s result for the rest of ``rows``, a ``csv.reader``
    past the header, converted field by field."""
    fields: list[list] = [[] for _ in header]
    lines: list[int] = []
    for raw in rows:
        if not raw or raw[0].startswith("#"):
            continue
        if len(raw) != len(header):
            raise error(f"{path}: line {rows.line_num}: expected {len(header)} "
                        f"fields, got {len(raw)}")
        try:
            for values, kind, value in zip(fields, kinds, raw):
                values.append(kind(value))
        except ValueError as exc:
            raise error(f"{path}: line {rows.line_num}: {exc}") from None
        lines.append(rows.line_num)
    columns = []
    for name, kind, values in zip(header, kinds, fields):
        try:
            columns.append(np.array(values, dtype=kind))
        except OverflowError:
            row = next(i for i, v in enumerate(values) if not -2 ** 63 <= v < 2 ** 63)
            raise error(f"{path}: line {lines[row]}: {name} does not fit in int64") from None
    return columns, np.array(lines, dtype=np.int64)


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


#: Column kinds of the metadata CSV, field by field.
_METADATA_KINDS = (int, str, int, int, int)


def _check_metadata_order(source: str | Path, index: np.ndarray, role: np.ndarray,
                          where: Callable[[int], str]) -> dict[str, int]:
    """Check that rows are sorted by role, then index, with dense indices;
    returns the number of rows per role.  ``where(i)`` names row ``i`` in
    an error."""
    rank = np.select([role == name for name in ROLES], range(len(ROLES)), -1)
    ascending = np.ones(len(role), dtype=bool)
    ascending[1:] = (rank[1:] > rank[:-1]) | ((rank[1:] == rank[:-1]) & (index[1:] > index[:-1]))
    # Each row's dense index: how many rows of its role come before it.
    dense = np.zeros(len(role), dtype=np.int64)
    for r in range(len(ROLES)):
        dense[rank == r] = np.arange(np.count_nonzero(rank == r))
    check_rows([
        (rank < 0, lambda i: f"{source}: {where(i)}: unknown role token {str(role[i])!r} "
                             f"(expected one of {', '.join(ROLES)})"),
        (~ascending, lambda i: f"{source}: {where(i)} ({role[i]}:{index[i]}) out of order; "
                               "rows must be sorted by role (T, VQ, VG, Q, G) then index"),
        (index != dense, lambda i: f"{source}: {where(i)}: role {role[i]} expected dense "
                                   f"index {dense[i]}, got {index[i]}"),
    ], BundleFormatError)
    return {name: int(np.count_nonzero(rank == r)) for r, name in enumerate(ROLES)}


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
    (index, role, *labels), lines = read_csv(metadata_path, METADATA_HEADER,
                                             _METADATA_KINDS, BundleFormatError)
    counts = _check_metadata_order(metadata_path, index, role, lambda i: f"line {lines[i]}")

    features = read_feature_file(feature_path)
    if features.shape[0] != len(index):
        raise BundleFormatError(f"{feature_path}: holds {features.shape[0]} rows but "
                                f"{metadata_path} lists {len(index)} images")
    check_rows([(~np.isfinite(features).all(axis=1), lambda r: (
        f"{feature_path}: non-finite value in feature row {r} "
        f"(metadata {role[r]}:{index[r]})"))], BundleFormatError)

    present = vectors = None
    if parts_path is not None:
        parts_path = Path(parts_path)
        present, vectors = read_parts_file(parts_path)
        if present.shape[0] != len(index):
            raise BundleFormatError(f"{parts_path}: holds {present.shape[0]} records but "
                                    f"{metadata_path} lists {len(index)} images")
        bad = present & ~np.isfinite(vectors).all(axis=2)
        check_rows([(bad.any(axis=1), lambda i: (
            f"{parts_path}: non-finite value in record {i} part {np.argmax(bad[i])} "
            f"(metadata {role[i]}:{index[i]})"))], BundleFormatError)

    bundle = _assemble(np.array(labels), counts, features, present, vectors)
    if expected_dims is not None and tuple(expected_dims) != bundle.dims:
        raise BundleFormatError(
            f"dimension mismatch: expected (D, Dp, K) = {tuple(expected_dims)}, "
            f"files hold {bundle.dims}"
        )
    return bundle


def _assemble(labels: np.ndarray, counts: dict[str, int],
              features: np.ndarray, present: np.ndarray | None,
              vectors: np.ndarray | None) -> DatasetBundle:
    """Slice the (3, n) identity, cloth and camera labels and the arrays of
    role-ordered rows (see :func:`_check_metadata_order`) into one
    :class:`Split` per role; without part arrays every image gets
    ``DEFAULT_PART_COUNT`` absent slots of dimension zero."""
    if present is None:
        present = np.zeros((len(features), DEFAULT_PART_COUNT), dtype=bool)
        vectors = np.zeros((len(features), DEFAULT_PART_COUNT, 0), dtype=np.float32)
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
    out.sort(key=lambda v: (ROLES.index(v.role), v.index))
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
    sizes = [len(split) for split in splits]
    write_csv(metadata_path, METADATA_HEADER,
              [np.concatenate([np.arange(n) for n in sizes]),
               np.repeat(np.array(ROLES), sizes)]
              + [np.concatenate([getattr(s, name) for s in splits])
                 for name in METADATA_HEADER[2:]],
              config_comment)
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
    index, role, *labels = zip(*rows) if rows else ((),) * 5
    counts = _check_metadata_order("rows", np.array(index, dtype=np.int64),
                                   np.array(role, dtype=str), lambda i: f"row {i}")
    features = np.asarray(features, dtype=np.float32)
    if features.shape[0] != len(rows):
        raise ValueError(f"{features.shape[0]} feature rows for {len(rows)} metadata rows")
    if (present is None) != (vectors is None):
        raise ValueError("present and vectors must be given together")
    if present is not None:
        present = np.asarray(present, dtype=bool)
        vectors = np.asarray(vectors, dtype=np.float32)
        vectors = np.where(present[:, :, None], vectors, np.float32(0.0))
    return _assemble(np.array(labels, dtype=np.int64), counts, features, present, vectors)
