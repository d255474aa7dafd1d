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
    "write_lines",
    "write_manifest",
    "parse_manifest",
    "verify_manifest",
]

CSV_HEADER = "t," + ",".join(AMPLITUDE_COLUMNS) + ",p2,norm"
P2_HEADER = "t,p2"
# a comma after each field of a trajectory row and a LF after its last
_CSV_SEPS = b"," * CSV_HEADER.count(",") + b"\n"
# the trajectory fields that p2.csv repeats
_P2_FIELDS = [CSV_HEADER.split(",").index(name) for name in P2_HEADER.split(",")]


def fmt(x) -> str:
    """Render a value for the text formats; floats get 17 significant digits."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


# values formatted per `_word_grid` call: a block's work arrays stay under a
# MB; against 4096, a fig3 trajectory took 1.44x and 1.14x as long at 1024 and
# 2048, 0.98x at 6144 but with page faults, and 1.07x and 1.4x at 8192 and 16384
_BLOCK_VALUES = 4096

# Exact 17-digit decimals by an error-free product (Dekker, Numer. Math. 18,
# 1971): x * 10^k is split into hi + lo with hi = fl(x * 10^k), so the
# correctly rounded integer is hi + rint(lo).  Clearing the low 27 significand
# bits splits x into 26 + 27 bits and 10^k (k <= 20: 5^k has at most 47 bits)
# into 26 + 21, so every partial product and sum below is exact.
_SPLIT_MASK = 0xFFFFFFFFF8000000
_TINY, _HUGE = (int(np.float64(v).view(np.uint64)) for v in (1e-4, 1e17))

# The decimal exponent X in [-4, 16] of a value's `%g` text, as X + 4, from the
# sign and exponent bits (the top 12) of the double: each binade has the row
# of its lowest value, and holds at most one power of ten, which a value must
# reach to take the next row.  Zeros take the row of X = 0.  The powers 1e-3
# to 1e-1 parse to the doubles just above them, so each power here is the
# smallest double at or above it.
_POWERS = np.array([float(f"1e{m}") for m in range(-3, 17)])
_LOW = np.append(np.ldexp(1.0, np.arange(-1022, 1024)), np.inf)  # binades 1..2047
_LOW_ROW = np.searchsorted(_POWERS, _LOW, side="right")
_NEXT = np.append(_POWERS, np.inf)[_LOW_ROW]
_NEXT = np.tile(np.append(np.inf, np.where(_NEXT / 2 < _LOW, _NEXT, np.inf)), 2)
_ROW = np.tile(np.append(4, _LOW_ROW), 2) + np.repeat([0, 357], 2048)  # + 357: minus sign
_SCALE = np.resize(10.0 ** np.arange(20, -1, -1), 714)  # 10^(16 - X) by table index

# the 10^4 four-digit groups as 4 ASCII bytes (first digit in the low byte),
# and in the high 32 bits, signed, 21 times the position (1-4) of the
# group's last nonzero digit, or -12 * 21 for 0000
_GROUP = np.arange(10000)
_GROUP = np.stack([_GROUP // 1000, _GROUP // 100 % 10, _GROUP // 10 % 10, _GROUP % 10], axis=1)
_GROUP_LAST = np.select(_GROUP.T[::-1] > 0, [4, 3, 2, 1], -12)
_GROUP = ((_GROUP + ord("0")).astype(np.uint8).view("<u4")[:, 0].astype(np.int64)
          | _GROUP_LAST * 21 << 32).view(np.uint64)

# A value's text is laid out in the 32 byte columns of its cell: the lead
# digit in column 7 and the other 16 digits as four groups in 8..23.  For the
# decimal exponent X the digits before the point keep their columns (`_KEEP`),
# the point goes at X + 8 and the digits after it, up to the last nonzero one,
# move right by one (`_SHIFT`).  Below 1 (X < 0) the text starts at column
# X + 7 with "0." and -X - 1 zeros, and a minus sign goes just before the
# first column (`_FIXED`).  The tables are indexed 357 * sign + 21 * last +
# X + 4, where last (0-16) is the position after the lead digit of the last
# nonzero digit.  Bytes left 0 are dropped from the output.
_COL, _LAST, _X = np.arange(32), np.arange(17)[:, None, None], np.arange(-4, 17)[:, None]
_POINT = _X + 8
_PLAIN = np.where((_COL == _POINT) & (_LAST > _X), ord("."),
                  np.where((_X < 0) & (_COL >= _X + 7) & (_COL < 8), ord("0"), 0))
_MINUS = np.where(_COL == np.minimum(_X, 0) + 6, ord("-"), _PLAIN)
_KEEP, _SHIFT, _FIXED = (np.ascontiguousarray(np.broadcast_to(t, (2, 17, 21, 32)), dtype=np.uint8)
                         .reshape(714, 32).view("<u8")
                         for t in (((_COL >= 7) & (_COL < _POINT)) * 255,
                                   ((_COL > _POINT) & (_COL >= 8) & (_COL <= _LAST + 8)) * 255,
                                   np.stack(np.broadcast_arrays(_PLAIN, _MINUS))))


def _digit_text(x):
    """Table indexes (sign, X) of x, the `_GROUP` rows of its digits, and where `format` is needed.

    The 17 digits are the correctly rounded integer of |x| * 10^(16 - X), in
    [10^16, 10^17) for |x| in [1e-4, 1e17).  hi >= 1e16 is an even integer,
    so rint's half-even on lo is half-even on the sum.  No double here rounds
    up to 10^17: that needs one within 5e-18 (relative) below a power of ten,
    and the doubles below each threshold lie further from it.
    """
    a = np.abs(x)
    bits = a.view(np.uint64)
    other = np.flatnonzero((bits - 1 < _TINY - 1) | (bits >= _HUGE))  # nonzero, not fixed
    np.fmin(a, 1e17, out=a)
    top = x.view(np.uint64) >> 52
    index = np.take(_ROW, top) + (a >= np.take(_NEXT, top))
    scale = np.take(_SCALE, index)
    hi = a * scale
    a_hi = (bits & _SPLIT_MASK).view(np.float64)
    a_lo = a - a_hi
    s_hi = (scale.view(np.uint64) & _SPLIT_MASK).view(np.float64)
    s_lo = scale - s_hi
    lo = a_hi * s_hi - hi
    lo += a_hi * s_lo
    lo += a_lo * s_hi
    lo += a_lo * s_lo
    digits = hi.astype(np.int64)
    digits += np.rint(lo, out=lo).astype(np.int64)
    return index, np.take(_GROUP, _groups(digits)), other


def _groups(digits):
    """Rows g0, g2, g1, g3 (the 4-digit groups after the lead digit) and the lead digit, int32."""
    top = digits // 10 ** 8
    groups = np.empty((5, digits.size), dtype=np.int32)
    halves = groups[2:4]
    halves[0] = top
    np.subtract(digits, top * 10 ** 8, out=halves[1], casting="unsafe")
    quotients = np.floor_divide(halves, 10 ** 4, out=groups[:2])
    halves -= quotients * 10 ** 4
    np.floor_divide(quotients[0], 10 ** 4, out=groups[4])
    quotients[0] -= groups[4] * 10 ** 4
    return groups


def _word_grid(block, seps: bytes) -> np.ndarray:
    """The text of a 2-D float block as a (rows, width, 4) grid of uint64 words.

    Each value takes 32 bytes: its `format(x, ".17g")` text padded with 0
    bytes, and in the last its column's separator (`seps` holds one per
    column).  Fixed-notation values (|x| in [1e-4, 1e17)) and zeros are laid
    out by the tables above; nan, inf, subnormals and exponent-notation
    magnitudes fall back to `format`.
    """
    n_rows, width = block.shape
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    index, text, other = _digit_text(x)
    last = text.view(np.int32)[:4, 1::2]  # the high halves of rows g0, g2 | g1, g3
    last = np.maximum(last[:2], last[2:] + 4 * 21)
    index += np.maximum(last[0], last[1] + 8 * 21)
    # the digits unshifted in `cells`, and shifted right by one byte in `shifted`
    buf = np.empty(4 * x.size + 1, dtype=np.uint64)
    cells = buf[1:].reshape(-1, 4)
    for row, column in enumerate((2, 4, 3, 5, 1)):  # 4-byte columns g0, g2, g1, g3, lead (byte 7)
        cells.view(np.uint32)[:, column] = text[row]
    del text  # before the layout allocates: a lower peak per block takes fewer page faults
    shifted = buf.view(np.uint8)[7:-1].view(np.uint64).reshape(-1, 4)
    out = np.take(_KEEP, index, axis=0)
    out &= cells
    part = np.take(_SHIFT, index, axis=0)
    part &= shifted
    out |= part
    out |= np.take(_FIXED, index, axis=0)
    if other.size:
        spelled = b"".join(format(v, ".17g").encode().ljust(31, b"\0") for v in x[other].tolist())
        out.view(np.uint8)[other, :31] = np.frombuffer(spelled, dtype=np.uint8).reshape(-1, 31)
    out.view(np.uint8).reshape(n_rows, width, 32)[:, :, 31] = np.frombuffer(seps, dtype=np.uint8)
    return out.reshape(n_rows, width, 4)


def _text(grid) -> bytes:
    """The bytes of a word grid with its 0 bytes dropped."""
    return grid.tobytes().translate(None, b"\0")


def format_block(block, seps: bytes) -> bytes:
    """The text of a 2-D float block, each value as `format(x, ".17g")` plus a separator.

    `seps` holds one separator byte per column, written after each value of
    that column.  The rows are formatted a block at a time, as the writers do.
    """
    return b"".join(_rows([block], seps)) if block.size else b""


def _write(path, chunks) -> str:
    """Write byte chunks to `path` and return their SHA-256; every output file is written here."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()


def _grids(columns, seps: bytes):
    """The word grids of the rows of `columns` (1-D or 2-D float arrays), one block at a time."""
    rows = max(1, _BLOCK_VALUES // len(seps))
    for lo in range(0, len(columns[0]), rows):
        yield _word_grid(np.column_stack([col[lo:lo + rows] for col in columns]), seps)


def _rows(columns, seps: bytes):
    """The text of the rows of `columns`, one block at a time."""
    return map(_text, _grids(columns, seps))


def write_timeseries_csv(path, series: TimeSeries) -> tuple[str, bytes]:
    """Full trajectory: t, the 12 real amplitudes, excited population, norm.

    Returns the file's SHA-256 and the text of p2.csv, cut from the words
    formatted here (each row's t and p2 fields), for `write_p2_csv`.
    """
    p2_text = [P2_HEADER.encode() + b"\n"]

    def chunks():
        yield CSV_HEADER.encode() + b"\n"
        for grid in _grids([series.t, series.amplitudes, series.p2, series.norm], _CSV_SEPS):
            pair = grid.take(_P2_FIELDS, axis=1)
            pair.view(np.uint8)[:, -1, 31] = ord("\n")
            p2_text.append(_text(pair))
            yield _text(grid)

    return _write(path, chunks()), b"".join(p2_text)


def write_p2_csv(path, p2_text: bytes) -> str:
    """Two-column plot file: t, p2; writes the text `write_timeseries_csv` cut for it."""
    return _write(path, [p2_text])


def write_matrix_txt(path, matrix: np.ndarray) -> str:
    """Row-major dump of a complex matrix: space-separated re,im pairs, one row per line."""
    pairs = np.ascontiguousarray(matrix, dtype=complex).view(float)  # re, im interleaved
    return _write(path, _rows([pairs], b", " * (pairs.shape[1] // 2 - 1) + b",\n"))


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_lines(path, lines) -> str:
    """Write text lines as UTF-8, each ending in a LF."""
    return _write(path, ["".join(f"{line}\n" for line in lines).encode()])


def write_manifest(path, entries: list[tuple[str, object]], files: dict[str, str]) -> str:
    """Flat key = value manifest; `files` maps paths relative to its directory to their digests."""
    lines = [f"{key} = {fmt(value)}" for key, value in entries]
    lines += [f"file.{rel} = {digest}" for rel, digest in files.items()]
    return write_lines(path, lines)


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
    """Recompute digests of every file the manifest lists; raise on any mismatch.

    Only a diverged run's manifest may list no files: it wrote none.
    """
    base = Path(path).parent
    entries = parse_manifest(path)
    listed = {k[len("file."):]: v for k, v in entries.items() if k.startswith("file.")}
    if not listed and entries.get("status") != "diverged":
        raise ValueError(f"manifest {path} lists no files")
    for rel, digest in listed.items():
        actual = sha256_file(base / rel)
        if actual != digest:
            raise ValueError(f"digest mismatch for {rel}: manifest {digest}, actual {actual}")
