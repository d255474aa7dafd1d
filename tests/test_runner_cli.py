import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qdrabi
from qdrabi import (
    parse_config,
    preset_config,
    run_single,
    run_sweep,
    oracle_check,
    runner,
    verify_manifest,
)
from qdrabi.cli import EXIT_NUMERIC, EXIT_OK, EXIT_ORACLE, EXIT_USAGE, main
from qdrabi.config import FIELD_BY_KEY, MAX_ROWS, MAX_STEPS, SWEEPABLE_KEYS
from qdrabi.serialize import parse_manifest

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
                           + FAST + "cutoff_a = 5\n")
        run_single(cfg, tmp_path / "out", step=0.02)
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
            "g_a, g_b, m, n, initial, t_start, oracle, oracle_mode, cutoff_b"

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

    def test_oracle_flag_writes_deviation_report(self, tmp_path):
        cfg = parse_config(FIG3_TEXT + FAST_CHECK)
        outcome = run_single(cfg, tmp_path / "out", oracle=True)
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
        outcome = oracle_check(cfg, tmp_path / "out", step=0.3)
        assert outcome.status == "oracle-mismatch"
        assert outcome.deviation > 1e-8

    def test_mismatch_says_why(self, tmp_path):
        cfg = parse_config(FIG3_TEXT + "t_end = 10\nsamples = 100\n")
        outcome = oracle_check(cfg, tmp_path / "out", step=0.3)
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

    @pytest.mark.parametrize("mode", ["restricted", "full"])
    def test_nonfinite_oracle_result_exits_3(self, tmp_path, capsys, mode):
        # the detuning is finite, but the oracle's phases overflow to nan
        text = (FIG3_TEXT.replace("delta_a = 1", "delta_a = 6e307") + "t_end = 1\n"
                f"cutoff_a = 16\ncutoff_b = 16\noracle_mode = {mode}\n")
        cfg_path = write(tmp_path / "run.cfg", text)
        out = tmp_path / "out"
        code = main(["check", cfg_path, "--out", str(out)])
        assert code == EXIT_ORACLE
        assert "qdrabi: oracle deviation nan is not finite" in capsys.readouterr().err
        report = parse_manifest(out / "deviation.txt")
        assert (report["max_deviation"], report["status"]) == ("nan", "mismatch")
        verify_manifest(out / "manifest.txt")
        entries = parse_manifest(out / "manifest.txt")
        assert entries["status"] == "oracle-mismatch"
        assert entries["error"] == "oracle deviation nan is not finite"

    def test_restricted_cutoffs_only_validated(self, tmp_path):
        # restricted cost does not grow with the cutoffs
        cfg_path = write(tmp_path / "run.cfg",
                         FIG3_TEXT + FAST_CHECK + "cutoff_a = 400\ncutoff_b = 400\n")
        out = tmp_path / "out"
        assert main(["check", cfg_path, "--out", str(out), "--dump-hamiltonian"]) == EXIT_OK
        assert len((out / "hamiltonian.txt").read_text().splitlines()) == 6
        report = parse_manifest(out / "deviation.txt")
        assert (report["cutoff_a"], report["cutoff_b"]) == ("400", "400")


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
        assert lines[0] == "g_nl,max_p2,min_p2,dominant_freq"
        assert len(lines) == 3
        assert lines[1].startswith("0.5,")
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

    def test_failed_point_recorded_and_skipped(self, tmp_path):
        text = (
            "delta_a = 0\ndelta_b = 0\nlambda = 0\ng_a = 0\ng_b = 0\ninitial = b\n"
            "t_end = 50\nstep = 0.05\nsamples = 1000\n"
            "[sweep]\nparameter = g_nl\nvalues = 0.001, 10000000\n"
        )
        outcome = run_sweep(parse_config(text), tmp_path / "sweep")
        assert outcome.status == "partial"
        entries = parse_manifest(tmp_path / "sweep" / "manifest.txt")
        assert entries["point.point_000.status"] == "ok"
        assert entries["point.point_001.status"] == "diverged"
        rows = (tmp_path / "sweep" / "summary.csv").read_text().splitlines()
        assert len(rows) == 2  # header + the surviving point
        verify_manifest(tmp_path / "sweep" / "manifest.txt")

    def test_workers_match_sequential(self, tmp_path):
        cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = lambda\nvalues = 0, 0.5\n")
        run_sweep(cfg, tmp_path / "seq", workers=1)
        run_sweep(cfg, tmp_path / "par", workers=2)
        assert (tmp_path / "seq" / "summary.csv").read_bytes() == \
            (tmp_path / "par" / "summary.csv").read_bytes()
        for point in ("point_000", "point_001"):
            assert (tmp_path / "seq" / point / "trajectory.csv").read_bytes() == \
                (tmp_path / "par" / point / "trajectory.csv").read_bytes()

    def test_workers_capped_at_point_count(self, tmp_path, monkeypatch):
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", InlinePool)
        cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 1, 2\n")
        assert run_sweep(cfg, tmp_path / "sweep", workers=64).status == "ok"
        assert started == [2]


    def test_workers_capped_at_cpu_count(self, tmp_path, monkeypatch):
        started = []

        class InlinePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
        cfg = parse_config(FIG3_TEXT + FAST + "[sweep]\nparameter = g_nl\nvalues = 1, 2, 3, 4, 5\n")
        assert run_sweep(cfg, tmp_path / "sweep", workers=5000).status == "ok"
        assert started == [4]
        entries = parse_manifest(tmp_path / "sweep" / "manifest.txt")
        assert entries["workers"] == "4"

    def test_failed_point_error_recorded(self, tmp_path):
        text = (
            "delta_a = 0\ndelta_b = 0\nlambda = 0\ng_a = 0\ng_b = 0\ninitial = b\n"
            "t_end = 50\nstep = 0.05\nsamples = 1000\n"
            "[sweep]\nparameter = g_nl\nvalues = 0.001, 10000000\n"
        )
        run_sweep(parse_config(text), tmp_path / "sweep")
        entries = parse_manifest(tmp_path / "sweep" / "manifest.txt")
        assert "point.point_000.error" not in entries
        assert entries["point.point_001.error"].startswith("state became nonfinite between t=")
        point = parse_manifest(tmp_path / "sweep" / "point_001" / "manifest.txt")
        assert entries["point.point_001.error"] == point["error"]
        assert point["t_final"] == "50"
        assert entries["workers"] == "1"


class TestCli:
    def test_run_verb(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "run.cfg", FIG3_TEXT + FAST)
        code = main(["run", cfg_path, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert "status: ok" in capsys.readouterr().out
        verify_manifest(tmp_path / "out" / "manifest.txt")

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

    @pytest.mark.parametrize("verb, text", [
        ("run", FIG3_TEXT.replace("delta_a = 1", "delta_a = 1e10")
         + "t_end = 0.5\nstep = 1e300\n"),
        ("sweep", FIG3_TEXT + "t_end = 0.5\n[sweep]\nparameter = step\nvalues = 1e308\n"
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
    ], ids=["delta_a-inf", "t_end-inf", "t_end-nan", "t_start-nan", "g_nl-nan",
            "lambda-nan", "g_a-inf", "sweep-values-nan", "sweep-range-overflow"])
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
        ("run", FIG3_TEXT + FAST + "oracle = true\ncutoff_a = 1\n", []),
        ("sweep", FIG3_TEXT + FAST + "oracle = true\ncutoff_a = 4\n"
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

    def test_import_leaves_scipy_out(self):
        # scipy is a test and benchmark dependency only
        src = str(Path(qdrabi.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        code = "import qdrabi.cli, sys; assert 'scipy' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

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
                     "restricted", "e", "0.1:1, 0.05:2", "1:-1"]),
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
        with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"):
            for k, (verb, text) in enumerate(cases):
                cfg_path = write(Path(tmp) / f"{k}.cfg", text)
                code = main([verb, cfg_path, "--out", str(Path(tmp) / f"out{k}")])
                assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC, EXIT_ORACLE)
