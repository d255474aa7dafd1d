import math

import numpy as np
import pytest

from qdrabi import (
    parse_config,
    preset_config,
    run_single,
    run_sweep,
    oracle_check,
    verify_manifest,
)
from qdrabi.cli import EXIT_NUMERIC, EXIT_OK, EXIT_ORACLE, EXIT_USAGE, main
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
        assert len(dump) == 2 * 3 * 2  # restricted default cutoffs (2, 1)
        verify_manifest(tmp_path / "out" / "manifest.txt")


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
