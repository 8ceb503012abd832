"""Flat-file formats and bundled data.

Matrix files: first line ``<rows> <cols> <field>`` with field F2 or Z, then
rows*cols whitespace-separated entries in row-major order (line breaks are
not significant beyond the header).  Either both dimensions are zero or
neither is.  Codes are stored as their generator matrix: n rows, k columns.

Tower manifests: first line ``tower <n> <count>``, then one matrix file
path per line, relative to the manifest's directory, ordered from the
largest code down (C_1 .. C_a, or K_0 .. K_a for Construction-D input).

Both are ASCII: a file holding any other byte is a parse error.
"""

from __future__ import annotations

import os
import re
import sys
from functools import lru_cache

from .errors import ParseError
from .gf2core import BinaryMatrix, BinaryVector, Code, CodeTower, min_weight_codewords

__all__ = [
    "read_matrix",
    "parse_matrix",
    "write_f2_matrix",
    "write_z_matrix",
    "format_f2_matrix",
    "format_z_matrix",
    "read_tower_manifest",
    "load_code_tower",
    "load_matrix_tower",
    "data_path",
    "golay_code",
    "cor23_matrices",
    "cor25_matrices",
    "nonclosed_tower",
]


# the byte values 0..9 to their digit characters, the inverse of gf2core's _DIGITS
_DECIMAL = bytes.maketrans(bytes(range(10)), b"0123456789")

# whitespace-free tokens joined by single spaces, each of them [+-]?[0-9]+
_INT_TOKENS = re.compile(r"(?:[+-]?[0-9]+(?: |\Z))*")


def _parse_ints(tokens: list[str], source: str, what: str) -> list[int]:
    """The integers spelled by ``tokens``, each of the form [+-]?[0-9]+.

    ``int`` alone would also take ``1_0`` and non-ASCII digits, and would
    call a token past the interpreter's digit limit a non-integer.
    """
    if not _INT_TOKENS.fullmatch(" ".join(tokens)):
        raise ParseError(f"{source}: {what}")
    try:
        return [int(t) for t in tokens]
    except ValueError:
        digits = max(len(t.lstrip("+-")) for t in tokens)
        limit = sys.get_int_max_str_digits()
        raise ParseError(
            f"{source}: entry of {digits} digits is too long (limit {limit})"
        ) from None


def parse_matrix(text: str, source: str = "<string>"):
    """Parse matrix text; returns BinaryMatrix for F2, list of columns for Z.

    Z matrices come back as ``(rows, cols, columns)`` with ``columns`` a
    list of integer tuples (column-major, matching lattice generators).
    An F2 body whose every entry is the one character 0 or 1 is joined
    into one string, and column c is the base-2 int of its slice
    ``[c::cols]``, with no int made per entry.  That test counts the
    characters 0 and 1, two scans in C, rather than stripping them.  Any
    other body is read by the integer-token rule and packed from those
    integers, so a non-bit entry is refused with the same message either
    way.
    """
    tokens = text.split()
    if len(tokens) < 3:
        raise ParseError(f"{source}: missing header")
    rows, cols = _parse_ints(tokens[:2], source, "header must start with two integers")
    field = tokens[2]
    if field not in ("F2", "Z"):
        raise ParseError(f"{source}: field must be F2 or Z, got {field!r}")
    if rows < 0 or cols < 0:
        raise ParseError(f"{source}: negative dimensions")
    if (rows == 0) != (cols == 0):
        # no entries back the other dimension, yet every consumer would
        # allocate and walk it
        raise ParseError(f"{source}: header {rows} {cols} has one zero dimension")
    body = tokens[3:]
    if len(body) != rows * cols:
        raise ParseError(
            f"{source}: expected {rows * cols} entries, found {len(body)}"
        )
    if field == "Z":
        entries = _parse_ints(body, source, "non-integer entry")
        return rows, cols, [tuple(entries[c::cols]) for c in range(cols)]
    # the entries are row-major, so column c is entries[c::cols]
    digits = "".join(body)
    if len(digits) == len(body) and digits.count("0") + digits.count("1") == len(digits):
        # row 0 on top is the packed layout's most significant bit
        return BinaryMatrix(rows, [int(digits[c::cols], 2) for c in range(cols)])
    entries = _parse_ints(body, source, "non-integer entry")
    try:
        packed = [BinaryVector.from_coords(entries[c::cols]).bits for c in range(cols)]
    except ValueError:
        raise ParseError(f"{source}: F2 entries must be 0 or 1") from None
    return BinaryMatrix(rows, packed)


def _read_text(path: str) -> str:
    """An input file's text; an unreadable file or a non-ASCII byte is a ParseError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_matrix(path: str):
    return parse_matrix(_read_text(path), source=path)


def format_f2_matrix(M: BinaryMatrix) -> str:
    lines = [f"{M.n} {M.k} F2"]
    for row in M.to_rows():
        lines.append(" ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"


def format_z_matrix(rows: int, columns) -> str:
    """The matrix text of ``columns``, each a column of ``rows`` integers.

    When every column holds ``rows`` entries and every entry is a digit
    0..9, as in Construction A's HNF basis (entries in [0, pivot), pivots
    1 or 2), the body is built in bulk, with
    no str made per entry: ``bytes`` packs the columns into one byte
    string, refusing any entry outside 0..255; strided slices read it row
    by row, ``_DECIMAL`` turns each byte into its digit character, and the
    separators are laid between them by slice assignment.  Any other entry,
    negative or of two digits or more, as in c-star's 2^(n-1)-scaled bases,
    sends the whole matrix through ``str`` per entry, which writes every
    integer exactly whatever its size; so do ragged columns, which it
    refuses as it always has.
    """
    cols = len(columns)
    head = f"{rows} {cols} Z"
    try:
        raw = b"".join(map(bytes, columns))  # column-major
    except (TypeError, ValueError):
        raw = b""
    if raw and all(len(c) == rows for c in columns) and max(raw) < 10:
        body = bytearray(b" ") * (2 * len(raw))
        body[::2] = b"".join([raw[r::rows] for r in range(rows)]).translate(_DECIMAL)
        body[2 * cols - 1::2 * cols] = b"\n" * rows
        return f"{head}\n{body.decode()}"
    lines = [head]
    for r in range(rows):
        lines.append(" ".join(str(col[r]) for col in columns))
    return "\n".join(lines) + "\n"


def write_f2_matrix(path: str, M: BinaryMatrix) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_f2_matrix(M))


def write_z_matrix(path: str, rows: int, columns) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_z_matrix(rows, columns))


def read_tower_manifest(path: str) -> tuple[int, list[str]]:
    """Returns (block_length, matrix file paths resolved against the manifest)."""
    # split on "\n" alone, as a text-mode read does: splitlines would also
    # break a line at \x0b, \x0c or \x1c-\x1e
    lines = [ln.strip() for ln in _read_text(path).split("\n")]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError(f"{path}: empty manifest")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "tower":
        raise ParseError(f"{path}: manifest header must be 'tower <n> <count>'")
    n, count = _parse_ints(head[1:], path, "bad manifest header numbers")
    files = lines[1:]
    if len(files) != count:
        raise ParseError(f"{path}: expected {count} level files, found {len(files)}")
    base = os.path.dirname(os.path.abspath(path))
    return n, [os.path.join(base, f) for f in files]


def load_code_tower(path: str) -> CodeTower:
    """Manifest of code generators C_1 .. C_a -> validated CodeTower."""
    _, mats = load_matrix_tower(path)
    return CodeTower([Code(M) for M in mats])


def load_matrix_tower(path: str) -> tuple[int, list[BinaryMatrix]]:
    """Manifest of F2 matrices -> (n, matrices): the generator blocks
    K_0 .. K_a of Construction D, or the levels of ``load_code_tower``."""
    n, files = read_tower_manifest(path)
    mats = []
    for f in files:
        M = read_matrix(f)
        if not isinstance(M, BinaryMatrix):
            raise ParseError(f"{f}: tower levels must be F2 matrices")
        if M.n != n:
            raise ParseError(f"{f}: {M.n} rows, manifest says {n}")
        mats.append(M)
    return n, mats


# ---------------------------------------------------------------------------
# bundled data
# ---------------------------------------------------------------------------

def data_path(name: str) -> str:
    """Filesystem path of a bundled data file, next to this module."""
    return os.path.join(os.path.dirname(__file__), "data", name)


@lru_cache(maxsize=None)
def golay_code() -> Code:
    """The extended [24,12,8] binary Golay code, revalidated on first load."""
    C = Code(read_matrix(data_path("golay24.txt")))
    S = min_weight_codewords(C) if C.dimension == 12 else ()
    if len(S) != 759 or S[0].weight != 8:
        raise ParseError("bundled Golay generator failed its invariants")
    return C


@lru_cache(maxsize=None)
def cor23_matrices() -> tuple[BinaryMatrix, BinaryMatrix, BinaryVector]:
    """Bundled 16x3 / 3x3 gadget matrices and the all-ones kernel vector."""
    A = read_matrix(data_path("cor23_A.txt"))
    B = read_matrix(data_path("cor23_B.txt"))
    w = read_matrix(data_path("cor23_w.txt"))
    return A, B, w.column(0)


@lru_cache(maxsize=None)
def cor25_matrices() -> tuple[BinaryMatrix, BinaryMatrix, tuple[int, ...]]:
    """Bundled 2x4 / 4x4 gadget matrices and the integer sign vector."""
    A = read_matrix(data_path("cor25_A.txt"))
    B = read_matrix(data_path("cor25_B.txt"))
    _, _, zcols = read_matrix(data_path("cor25_z.txt"))
    return A, B, zcols[0]


@lru_cache(maxsize=None)
def nonclosed_tower() -> CodeTower:
    """Bundled two-level tower that is not Schur-closed."""
    return load_code_tower(data_path("tower_nonclosed.manifest.txt"))
