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


# rows formatted per `%` call: the text and the tuple of floats for one block
# take a few MB however many samples a run keeps
_BLOCK_ROWS = 4096


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_rows(fh, columns, row_template: str):
    """Write the rows of `columns` (1-D or 2-D float arrays) through `row_template`.

    Each block of rows is formatted by one `%` call.  `%.17g` and
    `format(x, ".17g")` use the same float-to-text routine, so the text is
    the same as formatting each value on its own.
    """
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([col[lo:lo + _BLOCK_ROWS] for col in columns])
        fh.write((row_template * len(block)) % tuple(block.ravel().tolist()))


def _write_csv(path, header: str, columns):
    """A header line, then one comma-separated row per sample, one value per header name."""
    width = header.count(",") + 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        _write_rows(fh, columns, "%.17g," * (width - 1) + "%.17g\n")


def write_timeseries_csv(path, series: TimeSeries):
    """Full trajectory: t, the 12 real amplitudes, excited population, norm."""
    _write_csv(path, CSV_HEADER, [series.t, series.amplitudes, series.p2, series.norm])


def write_p2_csv(path, series: TimeSeries):
    """Two-column plot file: t, p2."""
    _write_csv(path, "t,p2", [series.t, series.p2])


def write_matrix_txt(path, matrix: np.ndarray):
    """Row-major dump of a complex matrix: space-separated re,im pairs, one row per line."""
    pairs = np.ascontiguousarray(matrix, dtype=complex).view(float)  # re, im interleaved
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_rows(fh, [pairs], " ".join(["%.17g,%.17g"] * (pairs.shape[1] // 2)) + "\n")


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
    _write_text(path, "\n".join(lines) + "\n")


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
