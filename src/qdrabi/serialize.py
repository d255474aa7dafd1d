"""Plain-text output formats: trajectory CSV, matrix dump, run manifest.

All floats are written with 17 significant digits so that parsing them back
reproduces the exact double.  Files use LF line endings regardless of
platform.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .dynamics import AMPLITUDE_COLUMNS, TimeSeries

__all__ = [
    "fmt",
    "format_block",
    "write_timeseries_csv",
    "write_p2_csv",
    "write_matrix_txt",
    "sha256_file",
    "write_manifest",
    "parse_manifest",
    "verify_manifest",
]

CSV_HEADER = "t," + ",".join(AMPLITUDE_COLUMNS) + ",p2,norm"


def fmt(x) -> str:
    """Render a value for the text formats; floats get 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


# values formatted per `format_block` call: the byte grid and the work arrays
# of one block take about a MB however many samples a run keeps, and each
# call's fixed cost (~0.1 ms) stays small beside its per-value cost
_BLOCK_VALUES = 4096

# Exact 17-digit decimals by an error-free product (Dekker, Numer. Math. 18,
# 1971): x * 10^k is split into hi + lo with hi = fl(x * 10^k), so the
# correctly rounded integer is hi + rint(lo).  10^k for k <= 20 is exact.
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_POW10 = 10.0 ** np.arange(21)
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI

# the 10^4 four-digit groups as 4 ASCII bytes (first digit in the low byte),
# and the number of trailing zeros of each group (4 for 0000)
_GROUP = np.arange(10000, dtype=np.int16)[:, None]
_GROUP_TEXT = ((_GROUP // np.array([1000, 100, 10, 1], dtype=np.int16) % 10 + ord("0"))
               .astype(np.uint8).view("<u4").ravel().astype(np.uint64))
_GROUP_ZEROS = (_GROUP % np.array([10, 100, 1000, 10000], dtype=np.int16) == 0).sum(axis=1)


def _words(rows):
    """(k, 24) byte rows as three uint64 words each, shape (3, k); column j at bits 8j."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view("<u8").astype(np.uint64).T.copy()


# A value's text is laid out in 24 byte columns.  The 17 digits are written to
# columns 5..21; for the decimal exponent X in [-4, 16] (table row X + 4) the
# columns before X + 6 keep them, the point goes at X + 6 and the columns after
# it take the digits shifted right by one.  Below 1 (X < 0) the text starts
# at column X + 5 with "0." and -X - 1 zeros; a minus sign goes just before
# the first column.  Bytes left 0 are dropped from the output.
_X = np.arange(-4, 17)[:, None]
_COL = np.arange(24)
_POINT = _X + 6
_FIRST = np.minimum(_X + 5, 5)
_KEEP = _words(np.where(_COL < _POINT, 255, 0))
_SHIFT = _words(np.where(_COL > _POINT, 255, 0))
_PLAIN = np.where(_COL == _POINT, ord("."),
                  np.where((_X < 0) & (_COL >= _FIRST) & (_COL < 6), ord("0"), 0))
_MINUS = np.where(_COL == _FIRST - 1, ord("-"), _PLAIN)
_FIXED = _words(np.stack([_PLAIN, _MINUS], axis=1).reshape(-1, 24))  # row 2 * (X + 4) + sign
_BEFORE = _words(np.where(_COL < np.arange(25)[:, None], 255, 0))  # row e keeps columns < e
_ZERO = np.frombuffer(b"0\0\0\0\0\0\0\0-0\0\0\0\0\0\0", dtype="<u8")  # +0.0, -0.0


def _scaled(a, k):
    """a * 10^k as an exact double-double (hi, lo)."""
    hi = a * _POW10[k]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _fixed_words(x) -> np.ndarray:
    """The `%.17g` text of values with |x| in [1e-4, 1e17), as 24 bytes in three words each.

    The 17 significant digits are the correctly rounded integer of
    |x| * 10^(16 - X) for the decimal exponent X, computed exactly as a
    double-double; the text is then laid out from the tables above.
    """
    a = np.abs(x)
    # decimal exponent from log10, corrected by one where it missed the decade
    exp10 = np.clip(np.floor(np.log10(a)).astype(np.intp), -4, 16)
    hi, lo = _scaled(a, 16 - exp10)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    if low.any() or high.any():
        exp10 += high
        exp10 -= low
        hi, lo = _scaled(a, 16 - exp10)
    # hi >= 1e16 is an even integer, so rint's half-even on lo is half-even on
    # the sum.  No double here rounds up to 10^17: that needs one within 5e-18
    # (relative) below a power of ten, and the powers from 1e-4 to 1e16 are
    # exact or have their nearest double above them.
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)

    lead = digits // 10 ** 16
    rest = digits - lead * 10 ** 16
    top, bottom = rest // 10 ** 8, rest % 10 ** 8
    groups = (top // 10000, top % 10000, bottom // 10000, bottom % 10000)

    # trailing zeros after the point are dropped, and the point with them
    zeros = _GROUP_ZEROS[groups[3]]
    run = groups[3] == 0
    for g in groups[2::-1]:
        zeros += run * _GROUP_ZEROS[g]
        run &= g == 0
    frac = 16 - exp10
    trim = np.minimum(zeros, frac)
    end = 23 - trim - (trim == frac)

    # the 17 digits in columns 5..21 as three words
    text = [_GROUP_TEXT[g] for g in groups]
    w0 = ((lead + ord("0")).astype(np.uint64) << 40) | (text[0] << 48)
    w1 = (text[0] >> 16) | (text[1] << 16) | (text[2] << 48)
    w2 = (text[2] >> 16) | (text[3] << 16)
    row = exp10 + 4
    fixed_row = 2 * row + np.signbit(x)
    words = np.empty((len(x), 3), dtype=np.uint64)
    for w, word, shifted in ((0, w0, w0 << 8),
                             (1, w1, (w1 << 8) | (w0 >> 56)),
                             (2, w2, (w2 << 8) | (w1 >> 56))):
        words[:, w] = (((word & _KEEP[w][row]) | (shifted & _SHIFT[w][row])
                        | _FIXED[w][fixed_row]) & _BEFORE[w][end])
    return words


def format_block(block, seps: bytes) -> bytes:
    """The text of a 2-D float block, each value as `format(x, ".17g")` plus a separator.

    `seps` holds one separator byte per column, written after each value of
    that column.  Values whose `%.17g` form is fixed notation (|x| in
    [1e-4, 1e17)) are converted in numpy by `_fixed_words`, zeros are
    written as "0" or "-0", and nan, inf, subnormals and exponent-notation
    magnitudes fall back to `format`.
    """
    n_rows, width = block.shape
    x = block.ravel()
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)
    zero = a == 0.0
    out = np.zeros((len(x), 4), dtype="<u8")  # 32 bytes per value, 0 bytes are dropped
    out[:, :3][fixed] = _fixed_words(x[fixed])
    out[zero, 0] = _ZERO[np.signbit(x[zero]).astype(np.intp)]
    out.reshape(n_rows, width, 4)[:, :, 3] = np.frombuffer(seps, dtype=np.uint8)

    other = np.flatnonzero(~(fixed | zero))
    if other.size:
        spelled = b"".join(format(v, ".17g").encode().ljust(24, b"\0")
                           for v in x[other].tolist())
        out.view(np.uint8)[other, :24] = np.frombuffer(spelled, dtype=np.uint8).reshape(-1, 24)
    return out.tobytes().translate(None, b"\0")


def _write_rows(fh, columns, seps: bytes):
    """Write the rows of `columns` (1-D or 2-D float arrays) to the binary file `fh`."""
    rows = max(1, _BLOCK_VALUES // len(seps))
    for lo in range(0, len(columns[0]), rows):
        fh.write(format_block(np.column_stack([col[lo:lo + rows] for col in columns]), seps))


def _write_csv(path, header: str, columns):
    """A header line, then one comma-separated row per sample, one value per header name."""
    width = header.count(",") + 1
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        _write_rows(fh, columns, b"," * (width - 1) + b"\n")


def write_timeseries_csv(path, series: TimeSeries):
    """Full trajectory: t, the 12 real amplitudes, excited population, norm."""
    _write_csv(path, CSV_HEADER, [series.t, series.amplitudes, series.p2, series.norm])


def write_p2_csv(path, series: TimeSeries):
    """Two-column plot file: t, p2."""
    _write_csv(path, "t,p2", [series.t, series.p2])


def write_matrix_txt(path, matrix: np.ndarray):
    """Row-major dump of a complex matrix: space-separated re,im pairs, one row per line."""
    pairs = np.ascontiguousarray(matrix, dtype=complex).view(float)  # re, im interleaved
    with open(path, "wb") as fh:
        _write_rows(fh, [pairs], b", " * (pairs.shape[1] // 2 - 1) + b",\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, entries: list[tuple[str, object]], files: list[str]):
    """Flat key = value manifest; `files` are paths relative to the manifest's directory.

    Digest lines are computed here so the manifest is always written after
    the files it describes.
    """
    base = Path(path).parent
    lines = [f"{key} = {fmt(value)}" for key, value in entries]
    for rel in files:
        lines.append(f"file.{rel} = {sha256_file(base / rel)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_manifest(path) -> dict[str, str]:
    result = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or "=" not in line:
                continue
            key, _, value = line.partition("=")
            result[key.strip()] = value.strip()
    return result


def verify_manifest(path):
    """Recompute digests of every file the manifest lists; raise on any mismatch."""
    base = Path(path).parent
    entries = parse_manifest(path)
    listed = {k[len("file."):]: v for k, v in entries.items() if k.startswith("file.")}
    if not listed:
        raise ValueError(f"manifest {path} lists no files")
    for rel, digest in listed.items():
        actual = sha256_file(base / rel)
        if actual != digest:
            raise ValueError(f"digest mismatch for {rel}: manifest {digest}, actual {actual}")
