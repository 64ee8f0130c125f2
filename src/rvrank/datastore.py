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
and then by index; indices are dense 0..n-1 within each role.  Identity,
cloth and camera labels are at least 0, and every global feature and
present part value is finite.  :func:`load_bundle` and :func:`build_bundle`
both apply these rules, so a bundle that breaks one never loads.

Every fault in what an input holds is a plain ValueError; one in a file
names the file and, where there is one, its line or row.

This module also frames every artifact the package writes or reads:
:func:`write_csv` and :func:`read_csv` for CSVs, :func:`write_json` for JSON
and :class:`BinaryHeader` for the magic and header of a binary file.  Each
format module keeps only its header, its column kinds and its own rules,
checked over whole columns with :func:`check_rows`.  Every CSV is in one
dialect, the one :func:`write_csv` writes: leading ``#`` lines, the header,
then ASCII rows ending in ``\\n``; :func:`read_csv` rejects any other file,
naming the line.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

ROLES = ("T", "VQ", "VG", "Q", "G")

METADATA_HEADER = ("index", "role", "identity", "cloth", "camera")

FEATURE_MAGIC = b"RVR1"
PARTS_MAGIC = b"RVP1"

#: Number of part slots assumed when a bundle has no part feature file.
DEFAULT_PART_COUNT = 15


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


# ---------------------------------------------------------------------------
# artifact framing: CSV, JSON and binary headers


#: Rows formatted per block by :func:`write_csv`, so that every temporary of
#: the writer is O(block) rather than O(rows).
_BLOCK_ROWS = 1 << 16


def _digit_groups() -> np.ndarray:
    """Flat (3 * 10**4,) uint32 table of 4-byte digit groups, group g of
    kind k at ``k * 10**4 + g``.  Kind 0 is all NUL (above a number's
    leading group), 1 NUL-padded on the left (its leading group; 0 spells
    ``0``), 2 zero-padded (every lower group)."""
    groups = np.arange(10 ** 4)[:, None]
    place = 10 ** np.arange(3, -1, -1)
    padded = (groups // place % 10 + ord("0")).astype(np.uint8)
    leading = np.where((groups < place) & (place > 1), np.uint8(0), padded)
    table = np.stack([np.zeros_like(padded), leading, padded])
    return table.view(np.uint32).ravel()


_DIGIT_GROUPS = _digit_groups()

def _int_bytes(values: np.ndarray) -> np.ndarray:
    """(rows, width) uint8: each int64 as ``str(v)``, NUL-padded."""
    negative = values < 0
    signed = bool(negative.any())
    rest = values.view(np.uint64)
    if signed:
        # Two's complement: exact for every magnitude, int64's minimum included.
        rest = rest.copy()
        rest[negative] = ~rest[negative] + np.uint64(1)
    top, count = int(rest.max(initial=0)), 1
    while count < 5 and top >= 10 ** (4 * count):
        count += 1
    if count == 1:
        # Every value is its own leading group.
        groups = _DIGIT_GROUPS.take(rest.view(np.int64) + 10 ** 4)[:, None]
    else:
        groups = np.empty((len(values), count), dtype=np.uint32)
        for k in range(count):
            kind = (rest >= 10 ** 4).astype(np.intp) + ((rest > 0) if k else 1)
            groups[:, count - 1 - k] = _DIGIT_GROUPS.take(
                kind * 10 ** 4 + (rest % 10 ** 4).astype(np.intp))
            rest = rest // 10 ** 4
    digits = groups.view(np.uint8)
    if not signed:
        return digits
    # The NULs between the sign and the leading digit drop out when the
    # block is compacted.
    return np.column_stack([np.where(negative, np.uint8(ord("-")), np.uint8(0)), digits])


def _float_bytes(values: np.ndarray) -> np.ndarray:
    """(rows, width) uint8: each float64 as ``repr(v)``, NUL-padded."""
    text = np.array(list(map(repr, values.tolist())), dtype="S")
    return text.view(np.uint8).reshape(len(values), -1)


def _text_bytes(values: np.ndarray) -> np.ndarray:
    """(rows, width) uint8: each ASCII str, NUL-padded."""
    return values[:, None].view(np.uint32).astype(np.uint8)


#: Column dtype kind -> (dtype it is written as, its block formatter).
_FORMATS = {"i": (np.int64, _int_bytes), "f": (np.float64, _float_bytes),
            "U": (np.str_, _text_bytes)}


def _check_text(path: Path, name: str, values: np.ndarray) -> None:
    """Raise ValueError naming the file, column and row of the first text
    field that :func:`read_csv` would reject: one holding a comma, a
    character at or below ``#`` (NUL included) or one beyond ASCII, or one
    ``_TEXT_WIDTH`` characters or wider."""
    for start in range(0, len(values), _BLOCK_ROWS):
        codes = values[start:start + _BLOCK_ROWS, None].view(np.uint32)
        # NUL pads a field on the right, so one before another character
        # is in the field.
        held = np.logical_or.accumulate(codes[:, ::-1] != 0, axis=1)[:, ::-1]
        bad = held & ((codes <= ord("#")) | (codes > 127) | (codes == ord(",")))
        check_rows([(bad.any(axis=1) | held[:, _TEXT_WIDTH - 1:].any(axis=1), lambda i: (
            f"{path}: column {name!r}, row {start + i}: text field "
            f"{str(values[start + i])!r} " + (
                f"holds {chr(codes[i, np.argmax(bad[i])])!r}; a text field holds only "
                "ASCII characters above '#' but the comma" if bad[i].any() else
                f"is {_TEXT_WIDTH} characters or wider; text fields are narrower")))])


def write_csv(path: str | Path, header: tuple[str, ...], columns: Sequence[np.ndarray],
              config_comment: str | None = None) -> None:
    """Write a CSV that :func:`read_csv` reads: an optional ``# `` comment
    line, then ``header``, then one row per entry of ``columns``, one 1-D
    array per header field, all of one length.

    An integer column is written as ``str(v)`` of each int64 value, a float
    column as ``repr(v)`` of each float64 value and a str column verbatim;
    an empty string is an empty field.  A column of another kind or length,
    a text field that :func:`read_csv` would reject (see
    :func:`_check_text`) or a ``config_comment`` holding a newline or
    carriage return raises ValueError naming the file, and the column and
    row where there is one, before the file is opened.  Rows are formatted
    in pieces of at most ``_BLOCK_ROWS``.
    """
    path = Path(path)
    if config_comment is not None and ("\n" in config_comment or "\r" in config_comment):
        raise ValueError(f"{path}: config comment {config_comment!r} holds a newline or "
                         "carriage return; it must fit on one line")
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
            piece = np.empty((len(fields[0]), sum(f.shape[1] + 1 for f in fields)),
                             dtype=np.uint8)
            at = 0
            for f in fields:
                piece[:, at:at + f.shape[1]] = f
                piece[:, at + f.shape[1]] = ord(",")
                at += f.shape[1] + 1
            piece[:, -1] = ord("\n")
            fh.write(piece[piece != 0].tobytes())


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as JSON: sorted keys, two-space indent, final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_csv(path: str | Path, header: tuple[str, ...], kinds: tuple[type, ...]
             ) -> tuple[list[np.ndarray], range]:
    """Read a CSV in the one dialect :func:`write_csv` writes: leading lines
    that start with ``#``, ``header``, then rows of ``len(header)`` fields,
    ASCII with no byte at or below ``#`` but the ``\\n`` each ends in.

    Returns one 1-D array per field, typed by ``kinds`` (``int`` as int64,
    ``float`` as float64, or ``str``, an empty field as ``''``), and the
    ``range`` of the rows' line numbers.  Any other file, a row that
    ``np.loadtxt`` rejects (an int64 overflow included) or a text field
    ``_TEXT_WIDTH`` bytes or wider raises one ValueError naming the line.
    The header line is read, and echoed in that error, up to two bytes past
    the expected header (room for ``\r\n``), so a file of another kind
    shows a short prefix, marked ``...``.  Below it, :func:`_gate` finds
    every bad byte, empty line and missing final newline in one forward
    scan, before any row is parsed.
    """
    path = Path(path)
    expected = ",".join(header)
    with open(path, "rb") as fh:
        head_lines = 1
        while fh.peek(1)[:1] == b"#":
            # A comment of any length, skipped a gate read at a time.
            while (part := fh.readline(_GATE_BYTES)) and not part.endswith(b"\n"):
                pass
            head_lines += 1
        line = fh.readline(len(expected) + 2)
        if not line:
            raise ValueError(f"{path}: missing header row")
        got = line.decode("utf-8", "replace").removesuffix("\n")
        if got != expected:
            more = "..." if not line.endswith(b"\n") and fh.peek(1)[:1] else ""
            raise ValueError(f"{path}: line {head_lines}: expected header "
                             f"{expected!r}, got {got!r}{more}")
        fh.seek(fh.tell() - len(line))
        lines = range(head_lines + 1, head_lines + _gate(path, fh, head_lines))
    if not lines:  # loadtxt warns on a file without rows
        return [np.empty(0, dtype=kind) for kind in kinds], lines
    dtype = np.dtype([("", f"S{_TEXT_WIDTH}" if kind is str else kind) for kind in kinds])
    try:
        table = np.loadtxt(path, dtype=dtype, skiprows=head_lines, **_LOADTXT)
    except ValueError:
        # Bisect for the first row loadtxt rejects: numpy's own messages
        # number rows from 0 in some errors and from 1 in others.
        lo, hi = 0, len(lines)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                np.loadtxt(path, dtype=dtype, skiprows=lines[lo] - 1, max_rows=mid - lo,
                           **_LOADTXT)
                lo = mid
            except ValueError:
                hi = mid
        row = path.read_bytes().split(b"\n")[lines[lo] - 1]
        raise ValueError(f"{path}: line {lines[lo]}: {row.decode()!r} does not parse as "
                         f"{len(kinds)} fields {','.join(np.dtype(k).name for k in kinds)}"
                         ) from None
    columns = [table[name] for name in dtype.names]
    for j, (name, kind) in enumerate(zip(header, kinds)):
        if kind is str:
            text = columns[j][:, None].view(np.uint8)
            # The gate let no NUL through, so a field fills its width when its
            # last byte is not NUL, and the widest field spans every byte
            # position that holds text in any row.
            check_rows([(text[:, -1] != 0, lambda i: (
                f"{path}: line {lines[i]}: {name} {text[i].tobytes().decode()!r}... is "
                f"{_TEXT_WIDTH} bytes or wider; text fields are narrower"))])
            width = max(1, int(np.count_nonzero(text.any(axis=0))))
            # ASCII, as the gate let nothing else through: each byte is its code point.
            columns[j] = text[:, :width].astype(np.uint32).view(f"U{width}")[:, 0]
    return columns, lines


def check_rows(rules: list[tuple[np.ndarray, Callable[[int], str]]]) -> None:
    """Raise ``ValueError(message(i))`` for the first row ``i`` that a rule
    flags; each rule is a boolean column ``bad`` and its ``message``, and a
    row that several rules flag takes the first rule's message."""
    flagged = [(int(np.argmax(bad)), k) for k, (bad, _) in enumerate(rules) if bad.any()]
    if flagged:
        row, k = min(flagged)
        raise ValueError(rules[k][1](row))


#: Width of a text field as :func:`read_csv` parses it: one byte above the 24
#: of the longest float ``repr``, which ``per_query.csv`` writes as text.
#: ``np.loadtxt`` cuts a wider field to this width silently, so a field this
#: wide is rejected, and :func:`write_csv` writes none.
_TEXT_WIDTH = 25

#: Bytes the gate of :func:`read_csv` scans per read.
_GATE_BYTES = 1 << 20

#: Payload bytes :func:`read_parts_file` reads and decodes at once.
_PARTS_BLOCK_BYTES = 1 << 16

#: How ``np.loadtxt`` reads the rows of :func:`read_csv`.
_LOADTXT = dict(delimiter=",", comments=None, quotechar=None, ndmin=1, encoding="utf-8")


def _gate(path: Path, fh, line: int) -> int:
    """Scan ``fh`` from the start of its header, on ``line``, to its end in
    ``_GATE_BYTES`` reads and return its count of newlines.  The first bad
    byte (one at or below ``#`` but a newline), empty line or missing final
    newline in the file raises ValueError naming its line."""
    newlines = 0
    # Byte 0 carries the previous read's last byte: an empty line may span reads.
    # Read as int8, every byte that is not ASCII is negative: "<= #" finds it too.
    block = np.zeros(_GATE_BYTES + 1, dtype=np.int8)
    while size := fh.readinto(block[1:]):
        newline = block[:size + 1] == ord("\n")
        body, ends = block[1:size + 1], newline[1:]
        count = np.count_nonzero(ends)
        empty = ends & newline[:-1]
        if np.count_nonzero(body <= ord("#")) != count or empty.any():
            at = int(np.argmax((body <= ord("#")) & ~ends | empty))
            where = f"{path}: line {line + newlines + np.count_nonzero(ends[:at])}: "
            if ends[at]:
                raise ValueError(where + "is empty; every line below the header is a row")
            raise ValueError(where + f"holds the byte {bytes([int(body[at]) % 256])!r}; a row "
                             "holds only ASCII bytes above '#' and its final newline")
        newlines += count
        block[0] = body[-1]
    if block[0] != ord("\n"):
        raise ValueError(f"{path}: line {line + newlines}: does not end in a newline; "
                         "every line does")
    return newlines


class BinaryHeader:
    """A binary file checked front to back as it is read: its ``magic``,
    header fields in order (:meth:`take`), then a payload whose size the
    header fixes, read whole (:meth:`payload`) or, once its size is checked
    (:meth:`check_payload`), from :attr:`file` in blocks.  Every fault
    raises ValueError naming the file.  Use it in a ``with`` block, which
    closes the file."""

    def __init__(self, path: str | Path, magic: bytes) -> None:
        self.path = Path(path)
        self.file = open(self.path, "rb")
        self.size = os.fstat(self.file.fileno()).st_size
        found = self.file.read(len(magic))
        if found != magic:
            self.file.close()
            raise ValueError(f"{self.path}: bad magic at offset 0: expected {magic!r}, "
                             f"got {found!r}")
        self.offset = len(magic)

    def __enter__(self) -> "BinaryHeader":
        return self

    def __exit__(self, *exc) -> None:
        self.file.close()

    def take(self, fmt: str) -> tuple:
        """Unpack the next header fields; a file too short for them raises."""
        size = struct.calcsize(fmt)
        held = self.size - self.offset
        if size > held:
            raise ValueError(f"{self.path}: truncated header at offset {self.offset}: "
                             f"wanted {size} bytes, got {held}")
        values = struct.unpack(fmt, self.file.read(size))
        self.offset += size
        return values

    def check_payload(self, expected_bytes: int, what: str) -> None:
        """Raise unless the rest of the file is exactly ``expected_bytes``
        long; ``what`` names the contents the header declares."""
        held = self.size - self.offset
        if held != expected_bytes:
            raise ValueError(f"{self.path}: payload length mismatch: header declares "
                             f"{what} ({expected_bytes} bytes), file holds {held} bytes "
                             "after the header")

    def payload(self, expected_bytes: int, what: str) -> bytes:
        """The rest of the file, checked by :meth:`check_payload`."""
        self.check_payload(expected_bytes, what)
        return self.file.read(expected_bytes)


# ---------------------------------------------------------------------------
# the rules of a valid bundle: load_bundle and build_bundle apply them all,
# so every DatasetBundle keeps them


#: Column kinds of the metadata CSV, field by field.
_METADATA_KINDS = (int, str, int, int, int)


def _check_metadata(source: str | Path, index: np.ndarray, role: np.ndarray,
                    labels: np.ndarray, where: Callable[[int], str]) -> dict[str, int]:
    """Check that rows are sorted by role, then index, with dense indices,
    and that the (3, n) identity, cloth and camera ``labels`` are at least
    0; returns the number of rows per role.  ``where(i)`` names row ``i``
    in an error."""
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
        (~ascending, lambda i: f"{source}: {where(i)}: ({role[i]}:{index[i]}) out of order; "
                               "rows must be sorted by role (T, VQ, VG, Q, G) then index"),
        (index != dense, lambda i: f"{source}: {where(i)}: role {role[i]} expected dense "
                                   f"index {dense[i]}, got {index[i]}"),
        *((column < 0, lambda i, name=name, column=column:
           f"{source}: {where(i)}: {name} {column[i]} is negative")
          for name, column in zip(METADATA_HEADER[2:], labels)),
    ])
    return {name: int(np.count_nonzero(rank == r)) for r, name in enumerate(ROLES)}


def _check_features(source: str | Path, features: np.ndarray,
                    role: np.ndarray, index: np.ndarray) -> None:
    """Raise ValueError naming the first row of the (n, D) ``features``
    that holds a non-finite value."""
    check_rows([(~np.isfinite(features).all(axis=1), lambda r: (
        f"{source}: non-finite value in feature row {r} (metadata {role[r]}:{index[r]})"))])


def _check_parts(source: str | Path, present: np.ndarray, vectors: np.ndarray,
                 role: np.ndarray, index: np.ndarray) -> None:
    """Raise ValueError naming the first record of the (n, K) ``present``
    flags and (n, K, Dp) ``vectors`` whose present part holds a non-finite
    value."""
    bad = present & ~np.isfinite(vectors).all(axis=2)
    check_rows([(bad.any(axis=1), lambda i: (
        f"{source}: non-finite value in record {i} part {np.argmax(bad[i])} "
        f"(metadata {role[i]}:{index[i]})"))])


# ---------------------------------------------------------------------------
# binary feature files


def read_feature_file(path: str | Path) -> np.ndarray:
    """Read a global feature file into an (N, D) float32 array."""
    with BinaryHeader(path, FEATURE_MAGIC) as header:
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
    The records are decoded :data:`_PARTS_BLOCK_BYTES` at a time straight
    into the two arrays, so no copy of the file is held.
    """
    with BinaryHeader(path, PARTS_MAGIC) as header:
        n, k, dp = header.take("<III")
        # The size is checked by arithmetic first: a huge declared dp must
        # not build its record dtype.
        header.check_payload(n * k * (1 + 4 * dp), f"{n}x{k} parts of dim {dp}")
        if 4 * dp > np.iinfo(np.intc).max:
            raise ValueError(f"{header.path}: part dim {dp} is too large: a part vector "
                             f"must fit in {np.iinfo(np.intc).max} bytes")
        record = np.dtype([("flag", "u1"), ("vec", "<f4", (dp,))])
        present = np.empty((n, k), dtype=bool)
        vectors = np.empty((n, k, dp), dtype=np.float32)
        # Record r is part r % k of image r // k.
        flat_present, flat_vectors = present.reshape(n * k), vectors.reshape(n * k, dp)
        step = max(1, _PARTS_BLOCK_BYTES // record.itemsize)
        for start in range(0, n * k, step):
            raw = np.frombuffer(header.file.read(min(step, n * k - start) * record.itemsize),
                                dtype=record)
            bad = np.flatnonzero(raw["flag"] > 1)
            if bad.size:
                i, j = divmod(start + int(bad[0]), k)
                raise ValueError(f"{header.path}: record {i} part {j}: presence flag must "
                                 f"be 0 or 1, got {raw['flag'][bad[0]]}")
            rows = slice(start, start + len(raw))
            flat_present[rows] = raw["flag"]
            flat_vectors[rows] = raw["vec"]
            flat_vectors[rows][~flat_present[rows]] = 0.0
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
) -> DatasetBundle:
    """Load a dataset bundle from its metadata, feature and part files.

    A file that breaks its format or a rule of a valid bundle raises
    ValueError naming the file and, where there is one, the line or row.
    When ``parts_path`` is None every record gets ``DEFAULT_PART_COUNT``
    absent part slots of dimension zero.
    """
    metadata_path = Path(metadata_path)
    feature_path = Path(feature_path)
    (index, role, *labels), lines = read_csv(metadata_path, METADATA_HEADER, _METADATA_KINDS)
    labels = np.array(labels)
    counts = _check_metadata(metadata_path, index, role, labels, lambda i: f"line {lines[i]}")

    features = read_feature_file(feature_path)
    if features.shape[0] != len(index):
        raise ValueError(f"{feature_path}: holds {features.shape[0]} rows but "
                         f"{metadata_path} lists {len(index)} images")
    _check_features(feature_path, features, role, index)

    present = vectors = None
    if parts_path is not None:
        parts_path = Path(parts_path)
        present, vectors = read_parts_file(parts_path)
        if present.shape[0] != len(index):
            raise ValueError(f"{parts_path}: holds {present.shape[0]} records but "
                             f"{metadata_path} lists {len(index)} images")
        _check_parts(parts_path, present, vectors, role, index)

    return _assemble(labels, counts, features, present, vectors)


def _assemble(labels: np.ndarray, counts: dict[str, int],
              features: np.ndarray, present: np.ndarray | None,
              vectors: np.ndarray | None) -> DatasetBundle:
    """Slice the (3, n) identity, cloth and camera labels and the arrays of
    role-ordered rows (see :func:`_check_metadata`) into one
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
    Rows and arrays must keep the rules of a valid bundle; the first fault
    raises ValueError naming its row.  Arrays are cast to float32 so an
    assembled bundle round-trips bit-for-bit through :func:`write_bundle` /
    :func:`load_bundle`.
    """
    index, role, *labels = zip(*rows) if rows else ((),) * 5
    index, role = np.array(index, dtype=np.int64), np.array(role, dtype=str)
    labels = np.array(labels, dtype=np.int64)
    counts = _check_metadata("rows", index, role, labels, lambda i: f"row {i}")
    # A value beyond float32's range casts to inf, which _check_features names.
    with np.errstate(over="ignore"):
        features = np.asarray(features, dtype=np.float32)
        vectors = None if vectors is None else np.asarray(vectors, dtype=np.float32)
    if features.shape[0] != len(rows):
        raise ValueError(f"{features.shape[0]} feature rows for {len(rows)} metadata rows")
    if (present is None) != (vectors is None):
        raise ValueError("present and vectors must be given together")
    _check_features("features", features, role, index)
    if present is not None:
        present = np.asarray(present, dtype=bool)
        vectors = np.where(present[:, :, None], vectors, np.float32(0.0))
        _check_parts("vectors", present, vectors, role, index)
    return _assemble(labels, counts, features, present, vectors)
