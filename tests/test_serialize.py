import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdrabi import integrate, parse_config, preset_config, write_config
from qdrabi.cli import EXIT_OK, main
from qdrabi.oracle import build_hamiltonian
from qdrabi.serialize import (
    _BLOCK_VALUES,
    _POWERS,
    CSV_HEADER,
    _rows,
    format_block,
    parse_manifest,
    sha256_file,
    verify_manifest,
    write_lines,
    write_manifest,
    write_matrix_txt,
    write_p2_csv,
    write_timeseries_csv,
)
from qdrabi.signal import dominant_angular_frequency


def reference_rows(rows):
    """The reference text: one `format(x, ".17g")` call per value."""
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\n" for row in rows)


def reference_timeseries_csv(series):
    rows = np.column_stack([series.t, series.amplitudes, series.p2, series.norm])
    return CSV_HEADER + "\n" + reference_rows(rows)


def reference_p2_csv(series):
    return "t,p2\n" + reference_rows(np.column_stack([series.t, series.p2]))


def reference_matrix_txt(matrix):
    return "".join(
        " ".join(f"{format(z.real, '.17g')},{format(z.imag, '.17g')}" for z in row) + "\n"
        for row in np.asarray(matrix, dtype=complex)
    )


def csv_seps(width):
    return b"," * (width - 1) + b"\n"


def block_text(rows):
    return b"".join(_rows([rows], csv_seps(rows.shape[1]))).decode()


def block_rows(width):
    """Rows the writer formats per block at this width."""
    return max(1, _BLOCK_VALUES // width)


def assert_same_text(got, want):
    """Equal texts, or a failure naming the first differing line (not a diff of megabytes)."""
    if got != want:
        got_lines, want_lines = got.split("\n"), want.split("\n")
        line = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
                    min(len(got_lines), len(want_lines)))
        pytest.fail(f"{len(got_lines)} vs {len(want_lines)} lines; first difference at line "
                    f"{line}: {got_lines[line:line + 1]} != {want_lines[line:line + 1]}")


SPECIAL_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, float("inf"), float("-inf"),
    float("nan"), 0.1, 1 / 3, -2.5, 123456789012345678.0,
]
# row counts around 4096, a block edge at width 1
ROW_COUNTS = [0, 1, 4095, 4096, 4097]


def decade_edges(ulps=64):
    """Powers of ten from 1e-5 to 1e18 and the `ulps` doubles on each side, both signs."""
    near = []
    for e in range(-5, 19):
        power = float(f"1e{e}")
        down, up = np.spacing(np.nextafter(power, 0.0)), np.spacing(power)
        near += [power - down * np.arange(1, ulps + 1), power + up * np.arange(ulps)]
    near = np.concatenate(near)
    return np.concatenate([near, -near])


def seeded_values():
    """About a million values: uniform in (-1, 1), signed powers of ten to 1e18, random bits."""
    rng = np.random.default_rng(20190723)
    n = 350_000
    sign = rng.choice([-1.0, 1.0], n)
    return np.concatenate([
        rng.uniform(-1.0, 1.0, n),
        sign * 10.0 ** rng.uniform(-8.0, 18.0, n),
        rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(float),
    ])


def cpu_dispatch():
    """The SIMD features numpy can dispatch to at run time, and which of all features are on."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_dispatch__, umath.__cpu_features__


EDGE_VALUES = [
    # %g's fixed-notation range is [1e-4, 1e17) after rounding to 17 digits
    1e-4, np.nextafter(1e-4, 0.0), -np.nextafter(1e-4, 0.0), 1e17, np.nextafter(1e17, 0.0),
    -np.nextafter(1e17, 0.0), 99999999999999984.0, 1e17 + 16,
    # 17-digit literals that parse to the next decade, and the doubles just below one
    9.9999999999999999e-5, 0.99999999999999999, 9.9999999999999999e15, 0.099999999999999999,
    np.nextafter(1.0, 0.0), np.nextafter(1e-3, 0.0), np.nextafter(1e16, 0.0),
    # exact ties at the 17th digit round half to even
    1e15 + 0.25, 1e15 + 0.75, 1e15 + 1.25, -(1e15 + 0.25),
    # trailing zeros and the point are trimmed
    0.5, 25.0, 1e16, 100.0, 0.25, 1234.5, 1e-4 * 3, 12345678901234567.0,
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e-310,
    # the longest texts: 24 characters, so a value and its separator need 25 bytes
    -2.2250738585072014e-308, -1.2345678901234567e+300,
]


@pytest.fixture(scope="module")
def short_series():
    cfg = preset_config("fig3")
    return integrate(replace(cfg, step=1e-2).to_dynamics_spec())


class TestTrajectoryCsv:
    def test_header_and_shape(self, short_series, tmp_path):
        path = tmp_path / "trajectory.csv"
        write_timeseries_csv(path, short_series)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,a1,a2,b1,b2,c1,c2,d1,d2,e1,e2,f1,f2,p2,norm"
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(short_series) + 1

    def test_lf_line_endings(self, short_series, tmp_path):
        path = tmp_path / "trajectory.csv"
        write_timeseries_csv(path, short_series)
        assert b"\r" not in path.read_bytes()

    def test_round_trip_is_lossless(self, short_series, tmp_path):
        path = tmp_path / "trajectory.csv"
        write_timeseries_csv(path, short_series)
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        np.testing.assert_array_equal(data[:, 0], short_series.t)
        np.testing.assert_array_equal(data[:, 1:13], short_series.amplitudes)
        np.testing.assert_array_equal(data[:, 13], short_series.p2)
        np.testing.assert_array_equal(data[:, 14], short_series.norm)

    def test_p2_text_cut_from_the_trajectory(self, short_series, tmp_path):
        # the text cut while writing the trajectory is the per-value reference's file
        _, p2_text = write_timeseries_csv(tmp_path / "trajectory.csv", short_series)
        digest = write_p2_csv(tmp_path / "p2.csv", p2_text)
        assert (tmp_path / "p2.csv").read_bytes() == reference_p2_csv(short_series).encode()
        assert digest == sha256_file(tmp_path / "p2.csv")

    def test_p2_file(self, short_series, tmp_path):
        path = tmp_path / "p2.csv"
        write_p2_csv(path, write_timeseries_csv(tmp_path / "trajectory.csv", short_series)[1])
        lines = path.read_text().splitlines()
        assert lines[0] == "t,p2"
        data = np.genfromtxt(path, delimiter=",", skip_header=1)
        np.testing.assert_array_equal(data[:, 1], short_series.p2)


class TestBlockFormatting:
    # random finite doubles, subnormals, -0.0, inf and nan (st.floats draws all of
    # them), repeated to fill rows that straddle a block edge
    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=64),
           width=st.sampled_from([1, 2, 15]), rows=st.sampled_from(ROW_COUNTS))
    def test_kernel_equals_format_per_value(self, values, width, rows):
        data = np.resize(np.array(values), (rows, width))
        assert_same_text(block_text(data), reference_rows(data))

    @pytest.mark.parametrize("width", [1, 2, 15])
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_special_values_at_block_edges(self, width, rows):
        data = np.resize(np.array(SPECIAL_VALUES), (rows, width))
        assert_same_text(block_text(data), reference_rows(data))

    @pytest.mark.parametrize("width", [1, 2, 15, 1156])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_values_at_each_widths_block_edge(self, width, offset):
        rows = block_rows(width) + offset
        data = np.resize(np.array(SPECIAL_VALUES + EDGE_VALUES), (rows, width))
        assert_same_text(block_text(data), reference_rows(data))

    def test_columns_are_stacked_per_block(self):
        rng = np.random.default_rng(7)
        n = block_rows(5) + 3
        t, mat = rng.normal(size=n), rng.normal(size=(n, 4))
        text = b"".join(_rows([t, mat], csv_seps(5))).decode()
        assert_same_text(text, reference_rows(np.column_stack([t, mat])))


def kernel_text(values, width=1):
    data = np.asarray(values, dtype=float).reshape(-1, width)
    return format_block(data, csv_seps(width)).decode()


class TestKernelExactness:
    """`format_block` against one `format(x, ".17g")` call per value."""

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=30))
    def test_any_double(self, values):
        assert kernel_text(values) == reference_rows(np.array(values)[:, None])

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(1e-4, 1e17, exclude_max=True), min_size=1, max_size=30),
           signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=30, max_size=30))
    def test_fixed_notation_range(self, values, signs):
        data = np.array(values) * signs[:len(values)]
        assert kernel_text(data) == reference_rows(data[:, None])

    def test_a_million_seeded_values(self):
        data = seeded_values()
        assert_same_text(kernel_text(data, width=15), reference_rows(data.reshape(-1, 15)))

    def test_memory_is_bounded_by_the_text(self):
        # the rows are formatted a block at a time, so the work arrays do not grow
        # with the input: the peak is the text's chunks and their join
        data = seeded_values().reshape(-1, 15)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            text = format_block(data, csv_seps(15))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 3 * len(text)

    def test_empty_blocks(self):
        assert format_block(np.empty((3, 0)), b"") == b""
        assert format_block(np.empty((0, 3)), csv_seps(3)) == b""

    def test_blocks_without_zeros(self):
        # a quarter of a trajectory's values are exact zeros; here every value of the
        # writer's blocks of a 15-column file takes the digit path (or the fallback)
        data = seeded_values()[::28].reshape(-1, 15)
        assert len(data) > 2 * block_rows(15) and np.all(data != 0.0)
        assert_same_text(block_text(data), reference_rows(data))

    def test_text_does_not_depend_on_simd_dispatch(self):
        # numpy picks SIMD kernels for the host CPU at run time; with every feature it can
        # dispatch to turned off, the text must still equal format()'s
        dispatch, features = cpu_dispatch()
        dispatch = [name for name in dispatch if features[name]]
        if not dispatch:
            pytest.skip("numpy dispatches to no SIMD feature on this host")
        script = (
            "from test_serialize import (assert_same_text, block_text, cpu_dispatch,\n"
            "                            decade_edges, reference_rows, seeded_values)\n"
            "dispatch, features = cpu_dispatch()\n"
            "assert not any(features[name] for name in dispatch)\n"
            "for data in (decade_edges(), seeded_values()):\n"
            "    assert_same_text(block_text(data[:, None]), reference_rows(data[:, None]))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(dispatch),
                   PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=600, check=False)
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_decade_thresholds(self):
        # a value takes the next decade's row once it reaches the smallest double at or
        # above that power of ten
        for m, power in zip(range(-3, 17), _POWERS):
            assert Fraction(power) >= Fraction(10) ** m > Fraction(np.nextafter(power, 0.0))

    def test_decade_edges(self):
        data = decade_edges()
        assert_same_text(kernel_text(data), reference_rows(data[:, None]))

    @pytest.mark.parametrize("value", EDGE_VALUES, ids=lambda v: repr(float(v)))
    def test_edge_value(self, value):
        assert kernel_text([value]) == format(value, ".17g") + "\n"

    def test_separators_follow_their_columns(self):
        data = np.array([[0.5, -0.0, float("nan"), 1e-300], [25.0, 1e16, 3.0, -1e-4]])
        assert format_block(data, b", ;\n").decode() == \
            "0.5,-0 nan;1e-300\n25,10000000000000000 3;-0.0001\n"


class TestMatrixDump:
    def test_format_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        path = tmp_path / "matrix.txt"
        write_matrix_txt(path, mat)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        rebuilt = np.array([
            [complex(*map(float, pair.split(","))) for pair in line.split(" ")]
            for line in lines
        ])
        np.testing.assert_array_equal(rebuilt, mat)
        assert path.read_text() == reference_matrix_txt(mat)

    def test_full_hamiltonian_at_cutoffs_16(self, tmp_path):
        # dim 578, mostly zeros, written over many blocks
        cfg = preset_config("fig3")
        ham = build_hamiltonian(cfg.to_model_params(), 16, 16, mode="full", index=cfg.index())
        assert ham.matrix.shape == (578, 578)
        path = tmp_path / "hamiltonian.txt"
        write_matrix_txt(path, ham.matrix)
        assert_same_text(path.read_text(), reference_matrix_txt(ham.matrix))


class TestManifest:
    def test_write_parse_verify(self, tmp_path):
        files = {"a.csv": write_lines(tmp_path / "a.csv", ["t,p2", "0,1"]),
                 "b.csv": write_lines(tmp_path / "b.csv", ["t,p2", "0,0"])}
        write_manifest(tmp_path / "manifest.txt",
                       [("artifact", "qdrabi"), ("param.g_a", 1.0)], files)
        entries = parse_manifest(tmp_path / "manifest.txt")
        assert entries["artifact"] == "qdrabi"
        assert entries["param.g_a"] == "1"
        assert entries["file.a.csv"] == sha256_file(tmp_path / "a.csv")
        verify_manifest(tmp_path / "manifest.txt")

    def test_tampering_detected(self, tmp_path):
        (tmp_path / "a.csv").write_text("t,p2\n0,1\n")
        write_manifest(tmp_path / "manifest.txt", [("artifact", "qdrabi")],
                       {"a.csv": sha256_file(tmp_path / "a.csv")})
        (tmp_path / "a.csv").write_text("t,p2\n0,0.5\n")
        with pytest.raises(ValueError, match="digest mismatch"):
            verify_manifest(tmp_path / "manifest.txt")

    def test_manifest_without_files_rejected(self, tmp_path):
        write_manifest(tmp_path / "manifest.txt", [("artifact", "qdrabi")], {})
        with pytest.raises(ValueError, match="no files"):
            verify_manifest(tmp_path / "manifest.txt")

    def test_only_a_diverged_manifest_may_list_no_files(self, tmp_path):
        # a diverged run writes no file besides its manifest
        write_manifest(tmp_path / "manifest.txt", [("status", "diverged")], {})
        verify_manifest(tmp_path / "manifest.txt")
        write_manifest(tmp_path / "manifest.txt", [("status", "ok")], {})
        with pytest.raises(ValueError, match="no files"):
            verify_manifest(tmp_path / "manifest.txt")


FIG3_SHORT = "g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0.01\nt_end = 2\n"


def _fig3_series():
    return integrate(parse_config(FIG3_SHORT).to_dynamics_spec())


def _complex_matrix():
    rng = np.random.default_rng(3)
    return rng.normal(size=(120, 120)) + 1j * rng.normal(size=(120, 120))


# each writer, the CSV and matrix ones with inputs of several row blocks
WRITERS = {
    "timeseries_csv": lambda path: write_timeseries_csv(path, _fig3_series())[0],
    "p2_csv": lambda path: write_p2_csv(
        path, write_timeseries_csv(path.with_name("trajectory.csv"), _fig3_series())[1]),
    "matrix_txt": lambda path: write_matrix_txt(path, _complex_matrix()),
    "lines": lambda path: write_lines(path, ["a = 1", "b = \u00e9"] * 3000),
    "manifest": lambda path: write_manifest(path, [("status", "ok")], {"a.csv": "0" * 64}),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_writer_returns_digest_of_its_file(tmp_path, writer):
    path = tmp_path / "out.txt"
    assert WRITERS[writer](path) == sha256_file(path)


def file_digests(out_dir, skip_manifests=False):
    """The manifest's file.* digests; point manifests record durations, so may be skipped."""
    entries = parse_manifest(out_dir / "manifest.txt")
    return {k: v for k, v in entries.items()
            if k.startswith("file.") and not (skip_manifests and k.endswith("manifest.txt"))}


class TestByteIdentity:
    """Files written through the command line equal the per-value reference writers' text."""

    def test_sweep_outputs(self, tmp_path):
        text = FIG3_SHORT + ("[sweep]\nparameter = g_nl\nvalues = 0.5, 2\n"
                             "parameter2 = delta_a\nvalues2 = 0.2, 1\n")
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(text)
        for name in ("first", "rerun"):
            argv = ["sweep", str(cfg_path), "--out", str(tmp_path / name), "--workers", "2"]
            assert main(argv) == EXIT_OK
        out = tmp_path / "first"
        summary = []
        for i, (values, point) in enumerate(parse_config(text).points()):
            series = integrate(point.to_dynamics_spec())
            point_dir = out / f"point_{i:03d}"
            assert (point_dir / "trajectory.csv").read_bytes() == \
                reference_timeseries_csv(series).encode()
            assert (point_dir / "p2.csv").read_bytes() == reference_p2_csv(series).encode()
            summary.append([*values, series.p2.max(), series.p2.min(),
                            dominant_angular_frequency(series.t, series.p2),
                            series.max_norm_drift()])
        assert (out / "summary.csv").read_bytes() == \
            ("g_nl,delta_a,max_p2,min_p2,dominant_freq,max_norm_drift\n"
             + reference_rows(summary)).encode()
        assert file_digests(out, skip_manifests=True) == \
            file_digests(tmp_path / "rerun", skip_manifests=True)

    @pytest.mark.parametrize("fig", ["fig3", "fig4", "fig5"])
    def test_run_outputs(self, tmp_path, fig):
        # a preset's 2,501 samples span several trajectory blocks and a partial last one
        text = write_config(preset_config(fig))
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_OK
        series = integrate(parse_config(text).to_dynamics_spec())
        assert len(series) == 2501 and len(series) % block_rows(15) != 0
        assert len(series) > 2 * block_rows(15)
        trajectory = (tmp_path / "out" / "trajectory.csv").read_bytes()
        p2 = (tmp_path / "out" / "p2.csv").read_bytes()
        assert trajectory == reference_timeseries_csv(series).encode()
        assert p2 == reference_p2_csv(series).encode()
        # p2.csv is the t and p2 fields of trajectory.csv, line for line
        fields = [line.split(b",") for line in trajectory.splitlines()]
        assert p2.splitlines() == [row[0] + b"," + row[13] for row in fields]

    @pytest.mark.parametrize("mode", ["restricted", "full"])
    def test_check_hamiltonian_dump(self, tmp_path, mode):
        text = FIG3_SHORT + f"oracle_mode = {mode}\n"
        cfg_path = tmp_path / "check.cfg"
        cfg_path.write_text(text)
        for name in ("first", "rerun"):
            argv = ["check", str(cfg_path), "--out", str(tmp_path / name), "--dump-hamiltonian"]
            assert main(argv) == EXIT_OK
        cfg = parse_config(text)
        ham = build_hamiltonian(cfg.to_model_params(), mode=mode, index=cfg.index())
        assert (tmp_path / "first" / "hamiltonian.txt").read_bytes() == \
            reference_matrix_txt(ham.matrix).encode()
        assert file_digests(tmp_path / "first") == file_digests(tmp_path / "rerun")
