import codecs
import concurrent.futures
import hashlib
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qdrabi
from qdrabi import (
    integrate,
    parse_config,
    preset_config,
    run_single,
    run_sweep,
    oracle_check,
    override,
    runner,
    verify_manifest,
)
from qdrabi.cli import EXIT_NUMERIC, EXIT_OK, EXIT_ORACLE, EXIT_USAGE, main
from qdrabi.config import (FIELD_BY_KEY, MAX_CONFIG_BYTES, MAX_ROWS, MAX_STEPS, MAX_SWEEP_ROWS,
                           SWEEPABLE_KEYS, RunConfig)
from qdrabi.serialize import fmt, parse_manifest

FIG3_TEXT = "g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0.01\n"
# coarse step keeps unit tests fast; acceptance runs the default step
FAST = "t_end = 10\nstep = 0.01\nsamples = 1000\n"
# oracle comparisons need the integrator at full accuracy, so shorten the
# window instead of coarsening the step
FAST_CHECK = "t_end = 10\nsamples = 1000\n"

DIVERGING_TEXT = (
    "g_nl = 10\ndelta_a = 0\ndelta_b = 0\nlambda = 0\ng_a = 0\ng_b = 0\n"
    "initial = b\nt_end = 100000\nstep = 100\n"
)


def write(path, text):
    path.write_text(text)
    return str(path)


def usable_cpus():
    """The CPUs this process may run on, which cap a sweep's workers."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the sweep's process pool by one that maps in this process; yield its sizes."""
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", InlinePool)
    return started


def output_files(out_dir):
    """Every file under `out_dir`, by path relative to it, with its bytes."""
    return {path.relative_to(out_dir).as_posix(): path.read_bytes()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


class TestRunSingle:
    def test_writes_expected_files_and_manifest(self, tmp_path):
        cfg = parse_config(FIG3_TEXT + FAST)
        outcome = run_single(cfg, tmp_path / "out")
        assert outcome.status == "ok"
        for name in ("trajectory.csv", "p2.csv", "resolved_config.txt", "manifest.txt"):
            assert (tmp_path / "out" / name).exists()
        verify_manifest(tmp_path / "out" / "manifest.txt")
        entries = parse_manifest(tmp_path / "out" / "manifest.txt")
        assert entries["param.g_nl"] == "2"
        assert entries["param.lambda"] == "0.01"
        assert "g_a" in entries["defaulted"]
        assert float(entries["max_norm_drift"]) < 1e-6  # coarse test step

    def test_manifest_param_keys_in_order(self, tmp_path):
        cfg = parse_config(FIG3_TEXT.replace("lambda = 0.01\n", "phonon_modes = 0.1:1, 0.05:2\n")
                           + FAST + "oracle_mode = full\ncutoff_a = 5\n")
        run_single(override(cfg, step=0.02), tmp_path / "out")
        entries = parse_manifest(tmp_path / "out" / "manifest.txt")
        keys = [k for k in entries if k.startswith("param.") or k == "defaulted"]
        assert keys == [
            "param.g_a", "param.g_b", "param.g_nl", "param.delta_a", "param.delta_b",
            "param.lambda", "param.shift", "param.phonon_modes", "param.m", "param.n",
            "param.initial", "param.t_start", "param.t_end", "param.samples", "param.step",
            "param.oracle", "param.oracle_mode", "param.cutoff_a", "defaulted",
        ]
        assert entries["param.step"] == "0.02"
        assert entries["defaulted"] == \
            "g_a, g_b, m, n, initial, t_start, oracle, cutoff_b"

    def test_manifest_records_grid(self, tmp_path):
        # 0.3 does not divide 25: the last sample lands at 83 * 0.3, short of t_end
        cfg = parse_config(FIG3_TEXT + "t_end = 25\nstep = 0.3\n")
        assert run_single(cfg, tmp_path / "out").status == "ok"
        entries = parse_manifest(tmp_path / "out" / "manifest.txt")
        assert (entries["n_steps"], entries["sample_every"]) == ("83", "1")
        assert entries["t_final"] == "24.899999999999999"
        assert entries["param.t_end"] == "25"
        last = (tmp_path / "out" / "p2.csv").read_text().splitlines()[-1]
        assert last.startswith(entries["t_final"] + ",")

        run_single(parse_config(DIVERGING_TEXT), tmp_path / "div")
        entries = parse_manifest(tmp_path / "div" / "manifest.txt")
        assert (entries["n_steps"], entries["sample_every"]) == ("1000", "1")
        assert entries["t_final"] == "100000"

    def test_manifest_records_phase_timings(self, tmp_path):
        run_cfg = parse_config(FIG3_TEXT + FAST_CHECK + "oracle = true\n")
        sweep_cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 1\n")
        timing = {"duration_s", "phase.integrate_s", "phase.oracle_s", "phase.write_s"}
        for rerun in ("one", "two"):
            run_single(run_cfg, tmp_path / rerun / "run")
            oracle_check(run_cfg, tmp_path / rerun / "check")
            run_sweep(sweep_cfg, tmp_path / rerun / "sweep")
        manifests = {}
        for rerun in ("one", "two"):
            for rel in ("run", "check", "sweep/point_000"):
                entries = parse_manifest(tmp_path / rerun / rel / "manifest.txt")
                for key in timing:
                    assert float(entries[key]) >= 0.0
                manifests[rerun, rel] = {k: v for k, v in entries.items() if k not in timing}
        for rel in ("run", "check", "sweep/point_000"):
            assert manifests["one", rel] == manifests["two", rel]
        entries = parse_manifest(tmp_path / "one" / "run" / "manifest.txt")
        assert float(entries["phase.oracle_s"]) > 0.0 and float(entries["phase.write_s"]) > 0.0
        entries = parse_manifest(tmp_path / "one" / "check" / "manifest.txt")
        assert entries["phase.write_s"] == "0"  # check writes no trajectory files

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        cfg = parse_config(FIG3_TEXT + FAST)
        run_single(cfg, tmp_path / "one")
        run_single(cfg, tmp_path / "two")
        for name in ("trajectory.csv", "p2.csv", "resolved_config.txt"):
            assert (tmp_path / "one" / name).read_bytes() == \
                (tmp_path / "two" / name).read_bytes()

    def test_divergence_is_flagged_in_manifest(self, tmp_path):
        cfg = parse_config(DIVERGING_TEXT)
        outcome = run_single(cfg, tmp_path / "out")
        assert outcome.status == "diverged"
        entries = parse_manifest(tmp_path / "out" / "manifest.txt")
        assert entries["status"] == "diverged"
        assert "t_last" in entries
        assert not (tmp_path / "out" / "trajectory.csv").exists()
        verify_manifest(tmp_path / "out" / "manifest.txt")

    def test_oracle_flag_writes_deviation_report(self, tmp_path):
        cfg = parse_config(FIG3_TEXT + FAST_CHECK)
        outcome = run_single(override(cfg, oracle=True), tmp_path / "out")
        assert outcome.status == "ok"
        assert outcome.deviation < 1e-8
        report = parse_manifest(tmp_path / "out" / "deviation.txt")
        assert report["status"] == "ok"
        assert float(report["max_deviation"]) == outcome.deviation


class TestOracleCheck:
    def test_fig3_passes(self, tmp_path):
        cfg = parse_config(FIG3_TEXT + FAST_CHECK)
        outcome = oracle_check(cfg, tmp_path / "out")
        assert outcome.status == "ok"
        assert outcome.deviation < 1e-8
        verify_manifest(tmp_path / "out" / "manifest.txt")

    def test_degraded_integrator_is_caught(self, tmp_path):
        # a deliberately huge step makes the integrator drift past the
        # tolerance while the oracle stays exact
        cfg = parse_config(FIG3_TEXT + "t_end = 10\nsamples = 100\n")
        outcome = oracle_check(replace(cfg, step=0.3), tmp_path / "out")
        assert outcome.status == "oracle-mismatch"
        assert outcome.deviation > 1e-8

    def test_mismatch_says_why(self, tmp_path):
        cfg = parse_config(FIG3_TEXT + "t_end = 10\nsamples = 100\n")
        outcome = oracle_check(replace(cfg, step=0.3), tmp_path / "out")
        assert outcome.error.startswith("oracle deviation ")
        assert outcome.error.endswith(" exceeds the tolerance 1e-08")

    def test_zero_coupling_config_has_vanishing_deviation(self, tmp_path):
        cfg = parse_config("g_nl = 0\ng_a = 0\ng_b = 0\ndelta_a = 1\ndelta_b = 0.3\n"
                           "lambda = 0\n" + FAST)
        outcome = oracle_check(cfg, tmp_path / "out")
        assert outcome.status == "ok"
        assert outcome.deviation < 1e-12

    def test_full_mode_reports_but_never_fails(self, tmp_path):
        cfg = parse_config(FIG3_TEXT + FAST + "oracle_mode = full\n")
        outcome = oracle_check(cfg, tmp_path / "out")
        assert outcome.status == "ok"
        assert outcome.max_leakage > 0.0

    def test_dump_hamiltonian(self, tmp_path):
        cfg = parse_config(FIG3_TEXT + FAST)
        oracle_check(cfg, tmp_path / "out", dump_hamiltonian=True)
        dump = (tmp_path / "out" / "hamiltonian.txt").read_text().splitlines()
        assert len(dump) == 6  # restricted mode: the manifold block, a..f
        verify_manifest(tmp_path / "out" / "manifest.txt")

    def test_failed_eigendecomposition_exits_2(self, tmp_path, capsys, monkeypatch):
        def failing_eigh(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + FAST_CHECK)
        assert main(["check", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("qdrabi: numerical failure: eigendecomposition failed for a 6x6 ")
        assert err.endswith(": Eigenvalues did not converge\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["restricted", "full"])
    def test_nonfinite_oracle_result_exits_3(self, tmp_path, capsys, mode):
        # the detunings are finite, but the oracle's phases overflow to nan
        # (6e307), or so do omega_a and omega_ex and the Hamiltonian with them
        # (+-1e308)
        detunings = ["delta_a = 6e307\ndelta_b = 0.1\n", "delta_a = 1e308\ndelta_b = -1e308\n"]
        for k, pair in enumerate(detunings):
            text = (FIG3_TEXT.replace("delta_a = 1\ndelta_b = 0.1\n", pair) + "t_end = 1\n"
                    f"oracle_mode = {mode}\n")
            if mode == "full":
                text += "cutoff_a = 16\ncutoff_b = 16\n"
            cfg_path = write(tmp_path / f"run{k}.cfg", text)
            out = tmp_path / f"out{k}"
            code = main(["check", cfg_path, "--out", str(out)])
            assert code == EXIT_ORACLE
            assert "qdrabi: oracle deviation nan is not finite" in capsys.readouterr().err
            report = parse_manifest(out / "deviation.txt")
            assert (report["max_deviation"], report["status"]) == ("nan", "mismatch")
            verify_manifest(out / "manifest.txt")
            entries = parse_manifest(out / "manifest.txt")
            assert entries["status"] == "oracle-mismatch"
            assert entries["error"] == "oracle deviation nan is not finite"

    @pytest.mark.parametrize("verb", ["run", "check", "sweep"])
    @pytest.mark.parametrize("key, mode", [("cutoff_a", ""), ("cutoff_b", ""),
                                           ("cutoff_a", "oracle_mode = restricted\n")],
                             ids=["cutoff_a", "cutoff_b", "cutoff_a-restricted"])
    def test_cutoffs_without_full_mode_exit_1(self, tmp_path, capsys, verb, key, mode):
        # the restricted oracle works on the six manifold states and takes no cutoffs
        sweep = "[sweep]\nparameter = g_nl\nvalues = 1, 2\n" if verb == "sweep" else ""
        cfg_path = write(tmp_path / "run.cfg",
                         FIG3_TEXT + FAST_CHECK + mode + f"{key} = 4\n" + sweep)
        out = tmp_path / "out"
        assert main([verb, cfg_path, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        line = len((FIG3_TEXT + FAST_CHECK + mode).splitlines()) + 1
        assert f"config error: line {line}: '{key}' needs oracle_mode = full" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_restricted_report_has_no_cutoffs(self, tmp_path):
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + FAST_CHECK)
        out = tmp_path / "out"
        assert main(["check", cfg_path, "--out", str(out), "--dump-hamiltonian"]) == EXIT_OK
        assert len((out / "hamiltonian.txt").read_text().splitlines()) == 6
        report = parse_manifest(out / "deviation.txt")
        assert list(report) == ["mode", "tolerance", "max_deviation", "max_leakage", "status"]
        assert report["mode"] == "restricted"


class TestSweep:
    def test_single_point_sweep_equals_run(self, tmp_path):
        run_cfg = parse_config(FIG3_TEXT + FAST)
        sweep_cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 2\n")
        run_single(run_cfg, tmp_path / "run")
        outcome = run_sweep(sweep_cfg, tmp_path / "sweep")
        assert outcome.status == "ok"
        assert (tmp_path / "sweep" / "point_000" / "trajectory.csv").read_bytes() == \
            (tmp_path / "run" / "trajectory.csv").read_bytes()

    def test_summary_and_manifest(self, tmp_path):
        cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 0.5, 2\n")
        outcome = run_sweep(cfg, tmp_path / "sweep")
        assert outcome.status == "ok"
        lines = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
        assert lines[0] == "g_nl,max_p2,min_p2,dominant_freq,max_norm_drift"
        assert len(lines) == 3
        assert lines[1].startswith("0.5,")
        # the last column is each point's manifest max_norm_drift, text for text
        for i, line in enumerate(lines[1:]):
            point = parse_manifest(tmp_path / "sweep" / f"point_{i:03d}" / "manifest.txt")
            assert line.split(",")[-1] == point["max_norm_drift"]
        verify_manifest(tmp_path / "sweep" / "manifest.txt")

    def test_gnl_sweep_fixture(self, tmp_path):
        # frozen from the first full-precision computation at the caption
        # settings; the dominant frequency falls (beat period grows)
        # monotonically with g_nl
        cfg = parse_config(FIG3_TEXT + "[sweep]\nparameter = g_nl\nvalues = 0.5, 1, 2\n")
        run_sweep(cfg, tmp_path / "sweep")
        rows = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()[1:]
        freqs = [float(r.split(",")[3]) for r in rows]
        expected = [3.1863411054775188, 2.3815588382354806, 2.0849928581558097]
        np.testing.assert_allclose(freqs, expected, rtol=1e-9)
        assert freqs[0] > freqs[1] > freqs[2]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_point_recorded_and_skipped(self, tmp_path, workers):
        text = (
            "delta_a = 0\ndelta_b = 0\nlambda = 0\ng_a = 0\ng_b = 0\ninitial = b\n"
            "t_end = 50\nstep = 0.05\nsamples = 1000\n"
            "[sweep]\nparameter = g_nl\nvalues = 0.001, 10000000\n"
        )
        outcome = run_sweep(parse_config(text), tmp_path / "sweep", workers=workers)
        assert outcome.status == "partial"
        entries = parse_manifest(tmp_path / "sweep" / "manifest.txt")
        assert entries["point.point_000.status"] == "ok"
        assert entries["point.point_001.status"] == "diverged"
        rows = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
        assert len(rows) == 2  # header + the surviving point
        verify_manifest(tmp_path / "sweep" / "manifest.txt")
        verify_manifest(tmp_path / "sweep" / "point_001" / "manifest.txt")

    def test_each_point_spec_built_once(self, tmp_path, monkeypatch):
        built = []
        to_spec = RunConfig.to_dynamics_spec

        def counting(config):
            built.append(config)
            return to_spec(config)

        monkeypatch.setattr(RunConfig, "to_dynamics_spec", counting)
        cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 1, 2\n"
                           "parameter2 = delta_a\nvalues2 = 0.2, 1\n")
        assert run_sweep(cfg, tmp_path / "sweep").status == "ok"
        points = [point for _, point in cfg.points()]
        assert len(points) == 4
        assert [built.count(point) for point in points] == [1, 1, 1, 1]

    def test_only_the_points_are_checked(self, tmp_path):
        # at the default step of 1e-3 this window is over MAX_STEPS, but no point runs it
        cfg = parse_config(FIG3_TEXT + "t_end = 11000\nsamples = 100\n"
                           "[sweep]\nparameter = step\nvalues = 0.05, 0.1\n")
        assert (cfg.base.t_end - cfg.base.t_start) / cfg.base.step > MAX_STEPS
        assert run_sweep(cfg, tmp_path / "sweep").status == "ok"

    def test_workers_match_sequential(self, tmp_path):
        cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = lambda\nvalues = 0, 0.5\n")
        run_sweep(cfg, tmp_path / "seq", workers=1)
        run_sweep(cfg, tmp_path / "par", workers=2)
        assert (tmp_path / "seq" / "summary.csv").read_bytes() == \
            (tmp_path / "par" / "summary.csv").read_bytes()
        for point in ("point_000", "point_001"):
            assert (tmp_path / "seq" / point / "trajectory.csv").read_bytes() == \
                (tmp_path / "par" / point / "trajectory.csv").read_bytes()

        def manifest_lines(name):
            # timings and the digests of the point manifests (which hold timings) differ
            lines = (tmp_path / name / "manifest.txt").read_text().splitlines()
            return [line for line in lines
                    if not line.startswith(("duration_s ", "phase."))
                    and not (line.startswith("file.") and "manifest.txt " in line)]

        # only the worker count may differ
        workers = min(2, usable_cpus())
        assert manifest_lines("par") == [f"workers = {workers}" if line == "workers = 1" else line
                                         for line in manifest_lines("seq")]

    def test_chunked_workers_match_sequential(self, tmp_path):
        # 130 points over 2 workers go out in chunks of 2
        cfg = parse_config(FIG3_TEXT + "t_end = 0.05\n[sweep]\nparameter = g_nl\n"
                           "start = 0.5\nstop = 3\ncount = 130\n")
        run_sweep(cfg, tmp_path / "seq", workers=1)
        run_sweep(cfg, tmp_path / "par", workers=2)
        seq, par = output_files(tmp_path / "seq"), output_files(tmp_path / "par")
        assert len(seq) == 2 + 130 * 4  # summary, manifest and four files a point
        assert seq.keys() == par.keys()
        for rel, data in seq.items():
            if not rel.endswith("manifest.txt"):
                assert data == par[rel], rel

    def test_sweep_reads_no_file_back(self, tmp_path, monkeypatch):
        def read_back(path):
            raise AssertionError(f"{path} was read back to hash it")

        monkeypatch.setattr(qdrabi.serialize, "sha256_file", read_back)
        cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 1, 2\n")
        assert run_sweep(cfg, tmp_path / "sweep", workers=1).status == "ok"
        monkeypatch.undo()
        verify_manifest(tmp_path / "sweep" / "manifest.txt")

    def test_workers_capped_at_point_count(self, tmp_path, inline_pool):
        cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 1, 2\n")
        assert run_sweep(cfg, tmp_path / "sweep", workers=64).status == "ok"
        assert inline_pool == [2]


    def test_workers_capped_at_cpu_count(self, tmp_path, monkeypatch, inline_pool):
        monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 1, 2, 3, 4, 5\n")
        assert run_sweep(cfg, tmp_path / "sweep", workers=5000).status == "ok"
        assert inline_pool == [4]
        entries = parse_manifest(tmp_path / "sweep" / "manifest.txt")
        assert entries["workers"] == "4"

    def test_workers_capped_at_usable_cpus_not_host_cpus(self, tmp_path, monkeypatch,
                                                         inline_pool):
        # pinned to 2 of the host's 64 CPUs, as by taskset or a cpuset
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {5, 9}, raising=False)
        cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 1, 2, 3, 4, 5\n")
        assert run_sweep(cfg, tmp_path / "sweep", workers=8).status == "ok"
        assert inline_pool == [2]
        assert parse_manifest(tmp_path / "sweep" / "manifest.txt")["workers"] == "2"

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
    def test_workers_capped_at_cpu_count_without_affinity(self, tmp_path, monkeypatch,
                                                          inline_pool, cpus, workers):
        # a platform with no sched_getaffinity; cpu_count() may not know the count
        monkeypatch.delattr(runner.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 1, 2, 3, 4, 5\n")
        assert run_sweep(cfg, tmp_path / "sweep", workers=8).status == "ok"
        assert inline_pool == ([workers] if workers > 1 else [])
        assert parse_manifest(tmp_path / "sweep" / "manifest.txt")["workers"] == str(workers)

    def test_pool_class_resolved_at_call_time(self, tmp_path, monkeypatch):
        # perfbench subclasses runner.ProcessPoolExecutor, so it must be the real class
        assert runner.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
        maps = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                maps.append(fn)
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(runner.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 1, 2, 3\n")
        run_sweep(cfg, tmp_path / "seq", workers=1)
        assert maps == []
        run_sweep(cfg, tmp_path / "par", workers=2)
        assert len(maps) == 1
        assert parse_manifest(tmp_path / "par" / "manifest.txt")["workers"] == "2"
        seq, par = output_files(tmp_path / "seq"), output_files(tmp_path / "par")
        assert seq.keys() == par.keys()
        for rel, data in seq.items():
            if not rel.endswith("manifest.txt"):
                assert data == par[rel], rel

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_point_error_recorded(self, tmp_path, workers):
        text = (
            "delta_a = 0\ndelta_b = 0\nlambda = 0\ng_a = 0\ng_b = 0\ninitial = b\n"
            "t_end = 50\nstep = 0.05\nsamples = 1000\n"
            "[sweep]\nparameter = g_nl\nvalues = 0.001, 10000000\n"
        )
        run_sweep(parse_config(text), tmp_path / "sweep", workers=workers)
        entries = parse_manifest(tmp_path / "sweep" / "manifest.txt")
        assert "point.point_000.error" not in entries
        assert entries["point.point_001.error"].startswith(
            "step 0.05 is past the RK4 stability limit: the step matrix's spectral radius ")
        point = parse_manifest(tmp_path / "sweep" / "point_001" / "manifest.txt")
        assert entries["point.point_001.error"] == point["error"]
        assert point["t_final"] == "50"
        assert entries["workers"] == str(min(workers, usable_cpus()))


    def test_nonfinite_oracle_hamiltonian_point_is_partial(self, tmp_path):
        # delta_a = 1e308 overflows omega_ex, and the oracle's Hamiltonian with it
        text = (FIG3_TEXT + "t_end = 1\n"
                "[sweep]\nparameter = delta_a\nvalues = 1, 1e308\n")
        cfg_path = write(tmp_path / "sweep.cfg", text)
        out = tmp_path / "sweep"
        assert main(["sweep", cfg_path, "--out", str(out), "--oracle"]) == EXIT_NUMERIC
        entries = parse_manifest(out / "manifest.txt")
        assert entries["status"] == "partial"
        assert entries["point.point_000.status"] == "ok"
        assert entries["point.point_001.error"] == "oracle deviation nan is not finite"
        rows = (out / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["1"]
        verify_manifest(out / "manifest.txt")
        verify_manifest(out / "point_001" / "manifest.txt")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unstable_step_point_is_partial(self, tmp_path, workers):
        text = FIG3_TEXT + "t_end = 10\n[sweep]\nparameter = step\nvalues = 0.01, 1\n"
        outcome = run_sweep(parse_config(text), tmp_path / "sweep", workers=workers)
        assert outcome.status == "partial"
        entries = parse_manifest(tmp_path / "sweep" / "manifest.txt")
        assert entries["point.point_000.status"] == "ok"
        assert entries["point.point_001.status"] == "diverged"
        assert "RK4 stability limit" in entries["point.point_001.error"]
        verify_manifest(tmp_path / "sweep" / "manifest.txt")
        verify_manifest(tmp_path / "sweep" / "point_001" / "manifest.txt")


class TestSummaryEstimates:
    """max_p2, min_p2 and dominant_freq are computed for sweep points only."""

    def test_run_and_check_skip_them(self, tmp_path, monkeypatch):
        def unread(t, x):
            raise AssertionError("dominant_freq computed for a verb that writes no summary.csv")

        monkeypatch.setattr(runner, "dominant_angular_frequency", unread)
        path = write(tmp_path / "fig3.conf", FIG3_TEXT + FAST_CHECK)
        for verb in ("run", "check"):
            assert main([verb, path, "--out", str(tmp_path / verb)]) == EXIT_OK
            assert "max_norm_drift" in parse_manifest(tmp_path / verb / "manifest.txt")

    def test_sweep_summary_unchanged(self, tmp_path, monkeypatch):
        estimate, calls = runner.dominant_angular_frequency, []

        def counting(t, x):
            calls.append(len(t))
            return estimate(t, x)

        monkeypatch.setattr(runner, "dominant_angular_frequency", counting)
        text = FIG3_TEXT + FAST + ("[sweep]\nparameter = g_nl\nvalues = 0.5, 2\n"
                                   "parameter2 = delta_a\nvalues2 = 0.2, 1\n")
        path = write(tmp_path / "grid.conf", text)
        assert main(["sweep", path, "--out", str(tmp_path / "sweep")]) == EXIT_OK
        assert len(calls) == 4
        rows = ["g_nl,delta_a,max_p2,min_p2,dominant_freq,max_norm_drift"]
        for values, point in parse_config(text).points():
            series = integrate(point.to_dynamics_spec())
            cells = [*values, series.p2.max(), series.p2.min(),
                     estimate(series.t, series.p2), series.max_norm_drift()]
            rows.append(",".join(fmt(v) for v in cells))
        assert (tmp_path / "sweep" / "summary.csv").read_text() == "\n".join(rows) + "\n"


class TestCli:
    def test_run_verb(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + FAST)
        code = main(["run", cfg_path, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert "status: ok" in capsys.readouterr().out
        verify_manifest(tmp_path / "out" / "manifest.txt")

    @pytest.mark.parametrize("flags, text", [
        (["run"], FIG3_TEXT + FAST),
        (["check", "--dump-hamiltonian"], FIG3_TEXT + FAST_CHECK),
        (["check", "--dump-hamiltonian"], FIG3_TEXT + "t_end = 2\noracle_mode = full\n"),
        (["sweep", "--workers", "2"], FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\n"
         "values = 1, 2\nparameter2 = delta_a\nvalues2 = 0.2, 1\n"),
    ], ids=["run", "check", "check-full", "sweep"])
    def test_manifest_lists_every_file(self, tmp_path, flags, text):
        cfg_path = write(tmp_path / "in.cfg", text)
        out = tmp_path / "out"
        assert main([flags[0], cfg_path, "--out", str(out), *flags[1:]]) == EXIT_OK
        listed = {key[len("file."):] for key in parse_manifest(out / "manifest.txt")
                  if key.startswith("file.")}
        assert set(output_files(out)) == listed | {"manifest.txt"}
        verify_manifest(out / "manifest.txt")

    def test_preset_verb_resolves_caption_parameters(self, tmp_path):
        for name, expected in (
            ("fig3", {"param.g_nl": 2.0, "param.delta_a": 1.0}),
            ("fig4", {"param.g_nl": 2.0, "param.delta_a": 0.2}),
            ("fig5", {"param.g_nl": 0.5, "param.delta_a": 1.0}),
        ):
            out = tmp_path / name
            assert main(["preset", name, "--out", str(out), "--step", "0.01"]) == EXIT_OK
            entries = parse_manifest(out / "manifest.txt")
            expected.update({"param.delta_b": 0.1, "param.lambda": 0.01})
            for key, value in expected.items():
                assert float(entries[key]) == value  # 17-digit text, exact double

    def test_sweep_verb(self, tmp_path):
        cfg_path = write(tmp_path / "sweep.cfg",
                         FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 1, 2\n")
        assert main(["sweep", cfg_path, "--out", str(tmp_path / "out"),
                     "--workers", "2"]) == EXIT_OK
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_check_verb(self, tmp_path):
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + FAST_CHECK)
        assert main(["check", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_OK

    @pytest.mark.parametrize("text, flags", [
        (FIG3_TEXT, ["--step", "0.01", "--oracle"]),
        (FIG3_TEXT.replace("0.01", "0.5") + "phonon_modes = 0.1:1, 0.05:2\n", ["--oracle"]),
        ("g_nl = 2\nomega_a = 3\nomega_ex = 4.2\nphonon_modes = 0.1:1.0, 0.2:2.0\n", []),
    ], ids=["flags", "lambda-and-phonon_modes", "omega"])
    def test_resolved_config_reruns_to_the_same_run(self, tmp_path, capsys, text, flags):
        # resolved_config.txt reruns to the same files and parameters, and the
        # manifests record flagged values as configured
        cfg_path = write(tmp_path / "run.cfg", text + "t_end = 0.5\nsamples = 50\n")
        first, second = tmp_path / "first", tmp_path / "second"
        resolved = first / "resolved_config.txt"
        assert main(["run", cfg_path, "--out", str(first)] + flags) == EXIT_OK
        assert main(["run", str(resolved), "--out", str(second)]) == EXIT_OK
        capsys.readouterr()
        names = ["trajectory.csv", "p2.csv"] + (["deviation.txt"] if "--oracle" in flags else [])
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        manifests = [parse_manifest(out / "manifest.txt") for out in (first, second)]
        params = [[(k, v) for k, v in entries.items() if k.startswith("param.")]
                  for entries in manifests]
        assert params[0] == params[1]
        # every stated key reads as in the manifest; the rerun states all but
        # the unset cutoffs, so only those stay defaulted
        stated = dict(line.split(" = ", 1) for line in resolved.read_text().splitlines()[1:])
        assert all(manifests[0][f"param.{key}"] == value for key, value in stated.items())
        assert manifests[1]["defaulted"] == ", ".join(
            key for key in manifests[0]["defaulted"].split(", ") if key not in stated)
        if "--step" in flags:
            for entries in manifests:
                assert (entries["param.step"], entries["param.oracle"]) == ("0.01", "true")
                defaulted = entries["defaulted"].split(", ")
                assert "step" not in defaulted and "oracle" not in defaulted

    def test_check_manifest_records_oracle_on(self, tmp_path):
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + FAST_CHECK)
        assert main(["check", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_OK
        entries = parse_manifest(tmp_path / "out" / "manifest.txt")
        assert entries["param.oracle"] == "true"
        assert "oracle" not in entries["defaulted"].split(", ")

    def test_step_flag_on_swept_step_exits_1(self, tmp_path, capsys):
        # the flag would replace values that summary.csv still lists
        cfg_path = write(tmp_path / "sweep.cfg",
                         FIG3_TEXT + FAST + "[sweep]\nparameter = step\nvalues = 0.01, 0.02\n")
        out = tmp_path / "out"
        assert main(["sweep", cfg_path, "--out", str(out), "--step", "0.001"]) == EXIT_USAGE
        assert "--step cannot override the swept 'step'" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_errors_exit_1(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE
        assert main(["preset", "fig9"]) == EXIT_USAGE
        capsys.readouterr()

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == EXIT_USAGE

    def test_bad_config_exits_1(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "bad.cfg", "g_nl = 2\nbogus = 1\n")
        assert main(["run", cfg_path]) == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    def test_run_verb_rejects_sweep_config(self, tmp_path):
        cfg_path = write(tmp_path / "sweep.cfg",
                         FIG3_TEXT + "[sweep]\nparameter = g_nl\nvalues = 1\n")
        assert main(["run", cfg_path]) == EXIT_USAGE

    def test_run_verb_rejects_empty_sweep_section(self, tmp_path, capsys):
        # a [sweep] header with no keys is not a plain run
        cfg_path = write(tmp_path / "sweep.cfg", FIG3_TEXT + "[sweep]\n")
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error: line 5: [sweep] section needs a 'parameter' key" in err
        assert not out.exists()

    def test_sweep_verb_rejects_run_config(self, tmp_path):
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT)
        assert main(["sweep", cfg_path]) == EXIT_USAGE

    def test_divergence_exits_2(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "div.cfg", DIVERGING_TEXT)
        assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
        capsys.readouterr()

    def test_check_divergence_exits_2(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "div.cfg", DIVERGING_TEXT)
        assert main(["check", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
        capsys.readouterr()
        entries = parse_manifest(tmp_path / "out" / "manifest.txt")
        assert entries["verb"] == "check"
        assert entries["status"] == "diverged"
        assert "t_last" in entries
        assert not (tmp_path / "out" / "deviation.txt").exists()
        verify_manifest(tmp_path / "out" / "manifest.txt")

    @pytest.mark.parametrize("verb", ["run", "check"])
    def test_step_past_stability_limit_exits_2(self, tmp_path, capsys, verb):
        # fig3's RK4 norm at step 1 grows ~1e9-fold while every value stays finite
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + "step = 1\n")
        assert main([verb, cfg_path, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
        assert "RK4 stability limit" in capsys.readouterr().err
        entries = parse_manifest(tmp_path / "out" / "manifest.txt")
        assert entries["verb"] == verb
        assert entries["status"] == "diverged"
        assert entries["t_last"] == "0"  # rejected before the first step
        assert sorted(os.listdir(tmp_path / "out")) == ["manifest.txt"]
        verify_manifest(tmp_path / "out" / "manifest.txt")

    @pytest.mark.parametrize("step, t_end, code", [
        ("0.93", "25", EXIT_OK), ("0.94", "25", EXIT_NUMERIC), ("0.95", "10", EXIT_NUMERIC),
    ])
    def test_spectral_radius_rejects_unstable_steps(self, tmp_path, capsys, step, t_end, code):
        # at 0.94 and 0.95 the norm stays below twice its start, so only the
        # step matrix's spectral radius shows that RK4 is past its limit
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + f"step = {step}\nt_end = {t_end}\n")
        assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == code
        entries = parse_manifest(tmp_path / "out" / "manifest.txt")
        if code == EXIT_NUMERIC:
            assert "spectral radius" in capsys.readouterr().err
            assert entries["status"] == "diverged"
            assert entries["error"].startswith(f"step {step} is past the RK4 stability limit")
            assert entries["t_last"] == "0"
        else:
            assert entries["status"] == "ok"
        verify_manifest(tmp_path / "out" / "manifest.txt")

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_non_utf8_config_exits_1(self, tmp_path, capsys, verb):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_bytes(b"g_nl = 2\n\xff\n")
        assert main([verb, str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "line 2" in err and "UTF-8" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes((FIG3_TEXT + FAST).encode())
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        for path in (plain, marked):
            assert main(["run", str(path), "--out", str(tmp_path / path.stem)]) == EXIT_OK
        files = [output_files(tmp_path / name) for name in ("plain", "marked")]
        for found in files:
            found["manifest.txt"] = [line for line in found["manifest.txt"].splitlines()
                                     if not line.startswith((b"duration_s = ", b"phase."))]
        assert files[0] == files[1]
        # the mark is not counted in the byte offsets of a later bad byte
        marked.write_bytes(codecs.BOM_UTF8 + b"g_nl = 2\ndelta_a = 1\n\xff\n")
        capsys.readouterr()
        assert main(["run", str(marked), "--out", str(tmp_path / "bad")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error: line 3: not UTF-8 text" in err and "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    def test_oversized_config_exits_1(self, tmp_path, capsys):
        # a sparse file one byte over the bound: only the bound plus one byte
        # is read, so /dev/zero or a huge file cannot exhaust memory
        cfg_path = tmp_path / "huge.cfg"
        with open(cfg_path, "wb") as fh:
            fh.truncate(MAX_CONFIG_BYTES + 1)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (f"qdrabi: config error: config is larger than the limit of "
                       f"{MAX_CONFIG_BYTES} bytes\n")
        assert not (tmp_path / "out").exists()

    def test_warning_is_one_stderr_line_naming_its_line(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + FAST + "phonon_modes = 0.1:1\n")
        assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert err == ["qdrabi: warning: line 4: both lambda and phonon_modes given; using the "
                       "direct lambda (0.01) over the spectrum-derived value "
                       "(0.010000000000000002)"]

    @pytest.mark.parametrize("verb, text", [
        ("run", FIG3_TEXT.replace("delta_a = 1", "delta_a = 1e10")
         + "t_end = 1e300\nstep = 1e300\n"),
        ("sweep", FIG3_TEXT + "t_end = 1e308\n[sweep]\nparameter = step\nvalues = 1e308\n"
         "parameter2 = delta_b\nvalues2 = 458810260424\n"),
    ], ids=["run", "sweep"])
    def test_overflowing_step_phase_exits_2(self, tmp_path, capsys, verb, text):
        # delta * step overflows to inf: a numerical failure, not a traceback
        cfg_path = write(tmp_path / "run.cfg", text)
        assert main([verb, cfg_path, "--out", str(tmp_path / "out")]) == EXIT_NUMERIC
        point = "." if verb == "run" else "point_000"
        entries = parse_manifest(tmp_path / "out" / point / "manifest.txt")
        assert entries["status"] == "diverged"
        assert entries["error"].startswith("detuning phase over one step of ")
        assert entries["t_last"] == "0"
        capsys.readouterr()

    @pytest.mark.parametrize("text", [
        FIG3_TEXT.replace("delta_a = 1", "delta_a = inf"),
        FIG3_TEXT + "t_end = inf\n",
        FIG3_TEXT + "t_end = nan\n",
        FIG3_TEXT + "t_start = nan\n",
        FIG3_TEXT.replace("g_nl = 2", "g_nl = nan"),
        FIG3_TEXT.replace("lambda = 0.01", "lambda = nan"),
        FIG3_TEXT + "g_a = inf\n",
        FIG3_TEXT + "[sweep]\nparameter = g_nl\nvalues = 1, nan\n",
        FIG3_TEXT + "[sweep]\nparameter = g_a\nstart = -1e308\nstop = 1e308\ncount = 3\n",
        "g_nl = 2\nomega_a = 1e308\nomega_ex = 1e308\nlambda = 0\nt_end = 1\n",
    ], ids=["delta_a-inf", "t_end-inf", "t_end-nan", "t_start-nan", "g_nl-nan",
            "lambda-nan", "g_a-inf", "sweep-values-nan", "sweep-range-overflow",
            "omega-overflow"])
    def test_nonfinite_values_exit_1(self, tmp_path, capsys, text):
        cfg_path = write(tmp_path / "bad.cfg", text)
        verb = "sweep" if "[sweep]" in text else "run"
        assert main([verb, cfg_path, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "line " in err and "finite" in err

    @pytest.mark.parametrize("verb", ["run", "check", "sweep"])
    @pytest.mark.parametrize("step", ["0", "nan", "inf", "-0.01"])
    def test_bad_step_flag_exits_1(self, tmp_path, capsys, verb, step):
        sweep = "[sweep]\nparameter = g_nl\nvalues = 1\n" if verb == "sweep" else ""
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + FAST + sweep)
        assert main([verb, cfg_path, "--out", str(tmp_path / "out"), "--step", step]) == EXIT_USAGE
        assert "--step must be finite and > 0" in capsys.readouterr().err

    def test_no_workers_exits_1(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "sweep.cfg",
                         FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 1\n")
        out = tmp_path / "out"
        assert main(["sweep", cfg_path, "--out", str(out), "--workers", "0"]) == EXIT_USAGE
        assert "config error: --workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb, text, flags", [
        ("run", FIG3_TEXT + "step = 1e-12\n", []),
        ("run", FIG3_TEXT, ["--step", "1e-12"]),
        ("check", FIG3_TEXT, ["--step", "1e-12"]),
        ("sweep", FIG3_TEXT + FAST + "[sweep]\nparameter = step\nvalues = 0.01, 1e-12\n", []),
    ], ids=["config", "run-flag", "check-flag", "swept-step"])
    def test_step_count_limit_exits_1(self, tmp_path, capsys, verb, text, flags):
        cfg_path = write(tmp_path / "run.cfg", text)
        out = tmp_path / "out"
        assert main([verb, cfg_path, "--out", str(out)] + flags) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "e+13 steps" in err and f"limit of {MAX_STEPS}" in err
        assert not out.exists()  # rejected before any work started

    @pytest.mark.parametrize("verb, text", [
        ("run", "g_nl = 0\ng_a = 0\ng_b = 0\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0\n"
         "t_end = 0.5\nstep = 100\n"),
        ("sweep", FIG3_TEXT + "t_end = 0.5\n[sweep]\nparameter = step\nvalues = 0.01, 100\n"),
    ], ids=["run", "swept-step"])
    def test_window_shorter_than_half_a_step_exits_1(self, tmp_path, capsys, verb, text):
        # rounding would take one whole step, far past t_end
        cfg_path = write(tmp_path / "run.cfg", text)
        out = tmp_path / "out"
        assert main([verb, cfg_path, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        point = "point_001 (step = 100): " if verb == "sweep" else ""
        assert f"config error: {point}window [0, 0.5] is at most half the step 100" in err
        assert "Traceback" not in err
        assert not out.exists()  # rejected before any work started

    @pytest.mark.parametrize("verb, text", [
        ("run", FIG3_TEXT + "step = 1e-5\nsamples = 1000000000\n"),
        ("check", FIG3_TEXT + "step = 1e-5\nsamples = 1000000000\n"),
        ("sweep", FIG3_TEXT + "samples = 1000000000\n"
         "[sweep]\nparameter = step\nvalues = 0.01, 1e-5\n"),
    ], ids=["run", "check", "swept-step"])
    def test_row_limit_exits_1(self, tmp_path, capsys, verb, text):
        cfg_path = write(tmp_path / "run.cfg", text)
        out = tmp_path / "out"
        assert main([verb, cfg_path, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "keeps 2500001 samples" in err and f"limit of {MAX_ROWS} rows" in err
        assert not out.exists()  # rejected before any work started

    def test_sweep_row_total_limit_exits_1(self, tmp_path, capsys, monkeypatch):
        # each point keeps MAX_ROWS samples, within every per-point limit, but
        # 101 of them pass the sweep's total; only the point grids are built
        def no_run(job):
            raise AssertionError("a point ran")

        monkeypatch.setattr(runner, "_sweep_point", no_run)
        text = (FIG3_TEXT + "t_end = 999.999\nsamples = 1000000\n"
                "[sweep]\nparameter = g_nl\nstart = 1\nstop = 2\ncount = 101\n")
        assert parse_config(text).points()[0][1].grid().n_samples() == MAX_ROWS
        cfg_path = write(tmp_path / "sweep.cfg", text)
        out = tmp_path / "out"
        assert main(["sweep", cfg_path, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"qdrabi: config error: sweep of 101 points keeps {101 * MAX_ROWS} samples, more "
            f"than the limit of {MAX_SWEEP_ROWS} rows\n")
        assert not out.exists()

    @pytest.mark.parametrize("where, kind", [
        ("config", "config"),  # the config file cannot be read
        ("out-is-a-file", "output"),  # --out names a file, so no directory can be made there
        ("file-is-a-directory", "output"),  # a directory stands where a file is written
    ])
    def test_os_error_names_its_stage(self, tmp_path, capsys, where, kind):
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + FAST)
        out = tmp_path / "out"
        if where == "config":
            cfg_path = str(tmp_path / "missing.cfg")
        elif where == "out-is-a-file":
            out.write_text("")
        else:
            (out / "trajectory.csv").mkdir(parents=True)
        assert main(["run", cfg_path, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"qdrabi: {kind} error: [Errno ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("text", ["cutoff_a = -3\n", "cutoff_b = -1\n",
                                      "m = 1" + "0" * 200 + "\n"],
                             ids=["cutoff_a", "cutoff_b", "m-huge"])
    def test_run_value_out_of_range_exits_1(self, tmp_path, capsys, text):
        # checked by the key table even when no oracle runs to use the value
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + FAST + text)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == EXIT_USAGE
        key = text.split(" = ")[0]
        assert f"config error: line 8: '{key}': must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis", [
        "parameter = m\nvalues = -1\n",
        "parameter = n\nvalues = -2\n",
        "parameter = step\nvalues = 0\n",
        "parameter = step\nvalues = -0.01\n",
        "parameter = lambda\nvalues = -1\n",
        "parameter = lambda\nstart = -1\nstop = 1\ncount = 3\n",
        "parameter = m\nstart = 1.3407807929942597e+154\nstop = 0\ncount = 1\n",
    ], ids=["m=-1", "n=-2", "step=0", "step=-0.01", "lambda=-1", "lambda-range",
            "m-huge-range"])
    def test_swept_value_out_of_range_exits_1(self, tmp_path, capsys, axis):
        # a swept value obeys the same rule as the [run] key it replaces
        cfg_path = write(tmp_path / "sweep.cfg", FIG3_TEXT + FAST + "[sweep]\n" + axis)
        out = tmp_path / "out"
        assert main(["sweep", cfg_path, "--out", str(out)]) == EXIT_USAGE
        key = axis.split("\n")[0].removeprefix("parameter = ")
        assert f"config error: line 10: '{key}': must be " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("verb, text, flags", [
        ("run", FIG3_TEXT + FAST + "oracle = true\noracle_mode = full\ncutoff_a = 1\n", []),
        ("sweep", FIG3_TEXT + FAST + "oracle = true\noracle_mode = full\ncutoff_a = 4\n"
         "[sweep]\nparameter = m\nvalues = 0, 5\n", []),
        ("sweep", FIG3_TEXT + FAST + "oracle_mode = full\n"
         "[sweep]\nparameter = m\nvalues = 0, 14\n", ["--oracle"]),
    ], ids=["run-cutoff_a", "sweep-cutoff_a", "sweep-full-cap"])
    def test_bad_oracle_cutoffs_exit_1_before_any_output(self, tmp_path, capsys, verb, text,
                                                         flags):
        cfg_path = write(tmp_path / "run.cfg", text)
        out = tmp_path / "out"
        assert main([verb, cfg_path, "--out", str(out)] + flags) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "config error: " in err and "cutoffs" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, flags, message", [
        (FIG3_TEXT + "oracle_mode = full\n[sweep]\nparameter = m\nvalues = 0, 13\n",
         ["--oracle"], "point_001 (m = 13): full-mode cutoffs are capped at 16, got (17, 3)"),
        (FIG3_TEXT + "t_end = 1\n[sweep]\nparameter = step\nvalues = 0.01, 5\n"
         "parameter2 = g_nl\nvalues2 = 1.5\n", [],
         "point_001 (step = 5, g_nl = 1.5): window [0, 1] is at most half the step 5, "
         "so it takes no step"),
    ], ids=["full-cap", "window"])
    def test_point_check_error_names_the_point(self, tmp_path, capsys, text, flags, message):
        cfg_path = write(tmp_path / "sweep.cfg", text)
        out = tmp_path / "out"
        assert main(["sweep", cfg_path, "--out", str(out)] + flags) == EXIT_USAGE
        assert capsys.readouterr().err == f"qdrabi: config error: {message}\n"
        assert not out.exists()

    def test_import_leaves_scipy_out(self, tmp_path):
        # scipy is a test and benchmark dependency only, and the process pool
        # is loaded only by a sweep that still has more than one worker
        run_cfg = write(tmp_path / "run.cfg", FIG3_TEXT + "t_end = 1\n")
        sweep_cfg = write(tmp_path / "sweep.cfg",
                          FIG3_TEXT + "t_end = 1\n[sweep]\nparameter = g_nl\nvalues = 1\n")
        code = f"""
import sys
import qdrabi.cli

def unloaded():
    loaded = {{"scipy", "multiprocessing", "concurrent.futures.process"}} & set(sys.modules)
    assert not loaded, loaded

unloaded()
for argv in (["run", {run_cfg!r}], ["check", {run_cfg!r}], ["preset", "fig3"],
             ["sweep", {sweep_cfg!r}, "--workers", "2"]):
    assert qdrabi.cli.main(argv + ["--out", {str(tmp_path / "out")!r} + argv[0]]) == 0
    unloaded()
"""
        src = str(Path(qdrabi.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_blas_threads_leave_trajectory_bytes_unchanged(self, tmp_path):
        # 25,001 samples: the last doubling round advances 8,617 rows in one
        # product, large enough for OpenBLAS to split it across threads
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + "samples = 20000\n")
        src = str(Path(qdrabi.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            out = tmp_path / f"threads{threads}"
            subprocess.run([sys.executable, "-m", "qdrabi", "run", cfg_path, "--out", str(out)],
                           env=env, capture_output=True, check=True, timeout=60)
            digests.append(hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("argv, code", [(["--help"], EXIT_OK), ([], EXIT_USAGE)],
                             ids=["help", "bare"])
    def test_python_dash_m_runs_main(self, argv, code):
        src = str(Path(qdrabi.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "qdrabi", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == code
        assert (proc.stdout if code == EXIT_OK else proc.stderr).startswith("usage: qdrabi [-h]")

    @pytest.mark.parametrize("axis, line, message", [
        ("parameter = g_nl\nstart = 0\ncount = 3\n", 7,
         "linear range needs start, stop and count; missing stop"),
        ("parameter = g_nl\nvalues = 1\nparameter2 = m\nstop2 = 3\n", 9,
         "linear range needs start2, stop2 and count2; missing start2 and count2"),
        ("parameter = g_nl\n", 6, "sweep axis 'g_nl' has no values or range"),
        ("\nvalues = 1, 2\nstart = 0\n", 7, "[sweep] section needs a 'parameter' key"),
        ("", 5, "[sweep] section needs a 'parameter' key"),
        ("values2 = 1\nparameter = g_nl\nvalues = 1\n", 6,
         "sweep values2 given without parameter2"),
        ("parameter = g_nl\nvalues = 1\ncount2 = 3\nstart2 = 0\n", 8,
         "sweep values2 given without parameter2"),
        ("parameter = g_nl\nvalues = 1\nparameter2 = g_nl\nvalues2 = 2\n", 8,
         "parameter 'g_nl' swept twice"),
        ("parameter = g_nl\nvalues = 1,,2\n", 7, "values has an empty entry (entry 2 of 3"),
    ], ids=["partial-range", "partial-range2", "no-values", "no-parameter", "empty",
            "stray-values2", "stray-range2", "swept-twice", "empty-entry"])
    def test_sweep_section_error_names_line(self, tmp_path, capsys, axis, line, message):
        cfg_path = write(tmp_path / "sweep.cfg", FIG3_TEXT + "[sweep]\n" + axis)
        out = tmp_path / "out"
        assert main(["sweep", cfg_path, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"config error: line {line}: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["restricted", "full"])
    def test_overflowing_oracle_prints_no_numpy_warning(self, tmp_path, mode):
        # the oracle's phases overflow to nan; the status report is the only output
        text = (FIG3_TEXT.replace("delta_a = 1", "delta_a = 6e307") + "t_end = 1\n"
                f"oracle_mode = {mode}\n")
        cfg_path = write(tmp_path / "run.cfg", text)
        src = str(Path(qdrabi.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "qdrabi", "check", cfg_path,
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_ORACLE
        assert "qdrabi: oracle deviation nan is not finite" in proc.stderr
        assert "Warning" not in proc.stderr

    def test_oracle_mismatch_exits_3(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + "t_end = 10\nsamples = 100\n")
        code = main(["check", cfg_path, "--out", str(tmp_path / "out"), "--step", "0.3"])
        assert code == EXIT_ORACLE
        capsys.readouterr()

    def test_lambda_sweep_dressing_ratio(self, tmp_path):
        # the summary pipeline reproduces the exp(-1/2) frequency dressing
        cfg_path = write(
            tmp_path / "sweep.cfg",
            "g_nl = 0\ndelta_a = 0\ndelta_b = 0\ng_b = 0\n"
            "[sweep]\nparameter = lambda\nvalues = 0, 1\n",
        )
        assert main(["sweep", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_OK
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        freqs = {float(r.split(",")[0]): float(r.split(",")[3]) for r in rows}
        assert freqs[1.0] / freqs[0.0] == pytest.approx(math.exp(-0.5), abs=1e-3)


class TestParserReuse:
    """`main` builds its parser on the first call; no call leaks state into a later one."""

    def test_parser_is_built_once(self):
        assert qdrabi.cli._build_parser() is qdrabi.cli._build_parser()

    def test_oracle_flag_does_not_stick(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + FAST_CHECK)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", cfg_path, "--out", str(first), "--oracle"]) == EXIT_OK
        assert main(["run", cfg_path, "--out", str(second)]) == EXIT_OK
        capsys.readouterr()
        assert parse_manifest(first / "manifest.txt")["param.oracle"] == "true"
        assert parse_manifest(second / "manifest.txt")["param.oracle"] == "false"

    def test_dump_flag_does_not_stick(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + FAST_CHECK)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["check", cfg_path, "--out", str(first), "--dump-hamiltonian"]) == EXIT_OK
        assert main(["check", cfg_path, "--out", str(second)]) == EXIT_OK
        capsys.readouterr()
        assert (first / "hamiltonian.txt").exists()
        assert not (second / "hamiltonian.txt").exists()

    def test_usage_error_then_preset_equals_a_first_call(self, tmp_path, capsys):
        # the first call of a fresh process against a call after a usage error
        src = str(Path(qdrabi.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        subprocess.run([sys.executable, "-m", "qdrabi", "preset", "fig3", "--out", str(fresh)],
                       env=env, capture_output=True, check=True, timeout=60)
        assert main(["preset", "fig9"]) == EXIT_USAGE
        assert main(["preset", "fig3", "--out", str(reused)]) == EXIT_OK
        capsys.readouterr()
        assert (fresh / "trajectory.csv").read_bytes() == (reused / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("argv, usage", [
        (["--help"], "usage: qdrabi [-h]"),
        (["run", "--help"], "usage: qdrabi run [-h]"),
    ], ids=["main", "run"])
    def test_help_exits_0_and_a_run_follows(self, tmp_path, capsys, argv, usage):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith(usage)
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + FAST)
        assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert "status: ok" in capsys.readouterr().out


# config values of every kind: in range, out of range, not a number, huge.
# In-range magnitudes stay >= 1e-3 so a drawn step keeps a run short; a
# smaller step comes only as 1e-308, which the step limit rejects.
_IN_RANGE = st.one_of(
    st.floats(0, 3).filter(lambda x: x == 0 or x >= 1e-3).map(repr),
    st.integers(0, 12).map(str),
)
_VALUE = st.one_of(
    _IN_RANGE,
    _IN_RANGE,
    st.floats(-3, 3).filter(lambda x: x == 0 or abs(x) >= 1e-3).map(repr),
    st.integers(-3, 12).map(str),
    st.floats(-1e308, 1e308).filter(lambda x: abs(x) >= 1e6).map(repr),
    st.integers(-10 ** 308, 10 ** 308).map(str),
    st.sampled_from(["1e308", "-1e308", "1e-308", "abc", "", "1, 2", "true", "full",
                     "restricted", "e", "0.1:1, 0.05:2", "1:-1", "1e160:1e-10",
                     "1e300:1e-300"]),
)
_KEY = st.sampled_from([*FIELD_BY_KEY, "omega_a", "omega_ex", "phonon_modes", "bogus"])


@st.composite
def cli_config(draw):
    """(run text, [sweep] block) of a whole config file."""
    values = {"g_nl": "2", "delta_a": "1", "delta_b": "0.1", "lambda": "0.01"}
    for key in list(values):
        if draw(st.sampled_from([False] * 9 + [True])):
            del values[key]
    values.update(draw(st.dictionaries(_KEY, _VALUE, max_size=3)))
    lines = [f"{k} = {v}" for k, v in values.items()]
    if lines and draw(st.sampled_from([False] * 3 + [True])):
        lines.append(draw(st.sampled_from(lines)))  # a duplicate line
    lines.append("t_end = 0.5")
    sweep = ["[sweep]"]
    for suffix in ("", "2")[:draw(st.integers(1, 2))]:
        sweep.append(f"parameter{suffix} = "
                     + draw(st.sampled_from(SWEEPABLE_KEYS + ("t_end",))))
        if draw(st.booleans()):
            sweep.append(f"values{suffix} = "
                         + ", ".join(draw(st.lists(_VALUE, min_size=1, max_size=2))))
        else:
            sweep += [f"start{suffix} = {draw(_VALUE)}", f"stop{suffix} = {draw(_VALUE)}",
                      f"count{suffix} = {draw(st.integers(0, 2))}"]
    return "\n".join(lines) + "\n", "\n".join(sweep) + "\n"


class TestCliProperty:
    @settings(max_examples=60, deadline=None)
    @given(cli_config())
    # one RK4 step far past the stability limit: a finite p2 of ~1e274 that
    # overflowed in the signal estimate
    @example((FIG3_TEXT + "step = 23805164097865171753420388860690433\nt_end = 0.5\n",
              "[sweep]\nparameter = g_nl\nvalues = 2\n"))
    # finite detunings whose omega_a and omega_ex overflow: the oracle's
    # Hamiltonian is not finite
    @example((FIG3_TEXT.replace("delta_a = 1\ndelta_b = 0.1", "delta_a = 1e308\ndelta_b = -1e308")
              + "t_end = 0.5\n", "[sweep]\nparameter = g_nl\nvalues = 2\n"))
    def test_no_traceback(self, texts):
        # any exception escaping main fails the test: every input ends in a
        # result, a config error or a numerical-failure status
        run_text, sweep_block = texts
        cases = [
            ("run", run_text),
            ("check", run_text + "oracle_mode = restricted\n"),
            ("check", run_text + "oracle_mode = full\n"),
            ("sweep", run_text + sweep_block),
        ]
        with tempfile.TemporaryDirectory() as tmp:
            for k, (verb, text) in enumerate(cases):
                cfg_path = write(Path(tmp) / f"{k}.cfg", text)
                out = Path(tmp) / f"out{k}"
                code = main([verb, cfg_path, "--out", str(out)])
                assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC, EXIT_ORACLE)
                if code != EXIT_USAGE:  # every run that started leaves a manifest
                    verify_manifest(out / "manifest.txt")
