from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qdrabi import (
    ConfigError,
    RunConfig,
    SweepConfig,
    parse_config,
    preset_config,
    write_config,
)
from qdrabi.config import FIELD_BY_KEY, MAX_POINTS, SWEEPABLE_KEYS


class TestRunParsing:
    def test_minimal_config_equals_fig3_preset(self):
        cfg = parse_config("g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0.01\n")
        assert cfg == preset_config("fig3")
        assert (cfg.g_nl, cfg.delta_a, cfg.delta_b, cfg.lam) == (2.0, 1.0, 0.1, 0.01)
        assert (cfg.g_a, cfg.g_b, cfg.m, cfg.n) == (1.0, 1.0, 0, 0)
        assert cfg.initial == "excited"

    def test_defaults_are_tracked(self):
        cfg = parse_config("g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0.01\ng_a = 3\n")
        assert "g_a" not in cfg.defaulted
        assert "g_b" in cfg.defaulted
        assert "samples" in cfg.defaulted

    def test_empty_file_lists_required_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("")
        message = str(err.value)
        for key in ("g_nl", "delta_a", "delta_b", "lambda"):
            assert key in message

    def test_unknown_key_reports_line(self):
        text = "g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0.01\nbogus = 3\n"
        with pytest.raises(ConfigError, match="line 5") as err:
            parse_config(text)
        assert "bogus" in str(err.value)

    @pytest.mark.parametrize("text, line, reason", [
        ("g_nl = twelve\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0.01\n", 1, ""),
        ("g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0.01\noracle = maybe\n", 5,
         "expected true/false for 'oracle', got 'maybe'"),
    ], ids=["float", "bool"])
    def test_type_mismatch_reports_line(self, text, line, reason):
        with pytest.raises(ConfigError, match=f"line {line}: .*{reason}"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        text = "g_nl = 2\ng_nl = 3\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0.01\n"
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_comments_and_sections(self):
        text = "# caption values\n[run]\ng_nl = 2  # nonlinear\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0.01\n"
        assert parse_config(text) == preset_config("fig3")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("[plot]\n")

    def test_constraint_violations(self):
        base = "g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\n"
        with pytest.raises(ConfigError, match="lambda"):
            parse_config(base + "lambda = -0.5\n")
        with pytest.raises(ConfigError, match="t_end"):
            parse_config(base + "lambda = 0\nt_end = -1\n")
        with pytest.raises(ConfigError, match="step"):
            parse_config(base + "lambda = 0\nstep = 0\n")
        with pytest.raises(ConfigError, match="initial"):
            parse_config(base + "lambda = 0\ninitial = q\n")
        with pytest.raises(ConfigError, match="oracle_mode"):
            parse_config(base + "lambda = 0\noracle_mode = both\n")

    def test_omega_route(self):
        cfg = parse_config("g_nl = 2\nomega_a = 0.9\nomega_ex = 1.9\nlambda = 0.01\n")
        assert cfg.delta_a == pytest.approx(1.0, abs=1e-14)
        assert cfg.delta_b == pytest.approx(0.1, abs=1e-14)

    def test_mixed_routes_rejected(self):
        text = "g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\nomega_a = 0.9\nomega_ex = 1.9\nlambda = 0\n"
        with pytest.raises(ConfigError, match="not both"):
            parse_config(text)

    def test_spectrum_supplies_lambda_and_shift(self):
        cfg = parse_config(
            "g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\nphonon_modes = 0.1:1.0, 0.2:2.0\n")
        assert cfg.lam == pytest.approx(0.02, abs=1e-15)
        assert cfg.shift == pytest.approx(0.03, abs=1e-15)

    def test_direct_lambda_wins_with_warning(self):
        text = "g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0.5\nphonon_modes = 0.1:1.0\n"
        with pytest.warns(UserWarning, match="^line 4: both lambda .* direct lambda"):
            cfg = parse_config(text)
        assert cfg.lam == 0.5
        assert cfg.shift == pytest.approx(0.01, abs=1e-16)

    @pytest.mark.parametrize("extra, modes, reason", [
        pytest.param("", "0.1:-1.0", "", id="negative-frequency"),
        pytest.param("", "1e160:1e-10", "", id="lambda-overflows"),  # (c/w)**2 overflows
        pytest.param("", "1e300:1e-300", "", id="lambda-and-shift-inf"),
        # a direct lambda still takes the spectrum's shift
        pytest.param("lambda = 0.01\n", "1e160:1e-10", "", id="direct-lambda-shift-inf"),
        pytest.param("", "", "phonon_modes is empty", id="empty"),
        pytest.param("", "0.1:1.0,", "phonon_modes has an empty entry", id="trailing-comma"),
        pytest.param("", "0.1", "phonon_modes entries are coupling:frequency pairs, got '0.1'",
                     id="no-colon"),
    ])
    def test_bad_phonon_mode_reports_line(self, extra, modes, reason):
        text = f"g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\n{extra}phonon_modes = {modes}\n"
        line = 4 + extra.count("\n")
        with pytest.raises(ConfigError, match=f"line {line}: .*{reason}"):
            parse_config(text)


LONG = "x" * 100_000
FIG3 = "g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0.01\n"


class TestLongInputErrors:
    """An error quotes an excerpt of the offending text and its length, never all of it."""

    @pytest.mark.parametrize("text, line, length", [
        pytest.param(FIG3 + "\x00" * 2**20 + "\n", 5, 2**20, id="nul-line"),
        pytest.param(FIG3 + f"[{LONG}]\n", 5, len(LONG) + 2, id="section"),
        pytest.param(FIG3 + f"{LONG} = 1\n", 5, len(LONG), id="key"),
        pytest.param(FIG3 + f"t_end = {LONG}\n", 5, len(LONG), id="value"),
        pytest.param(FIG3 + f"[sweep]\nparameter = {LONG}\nvalues = 1\n", 6, len(LONG),
                     id="sweep-parameter"),
    ])
    def test_message_is_short_and_names_its_line(self, text, line, length):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        message = str(err.value)
        assert len(message) < 200
        assert message.startswith(f"line {line}: ")
        assert f"... ({length} characters)" in message

    def test_short_text_quoted_whole(self):
        with pytest.raises(ConfigError, match=r"^line 5: expected a number for 't_end', "
                                              r"got 'twelve'$"):
            parse_config(FIG3 + "t_end = twelve\n")


class TestSweepParsing:
    BASE = "g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0.01\n"

    def test_values_axis(self):
        cfg = parse_config(self.BASE + "[sweep]\nparameter = g_nl\nvalues = 0.5, 2\n")
        assert isinstance(cfg, SweepConfig)
        points = cfg.points()
        assert [v for (v,), _ in points] == [0.5, 2.0]
        assert points[0][1].g_nl == 0.5
        assert points[1][1] == replace(points[0][1], g_nl=2.0)

    @pytest.mark.parametrize("values", ["1,,2", "1, 2,"], ids=["inner", "trailing"])
    def test_empty_value_entry_rejected(self, values):
        # an empty entry is a typo, not a point to drop
        with pytest.raises(ConfigError, match="^line 7: values has an empty entry"):
            parse_config(self.BASE + f"[sweep]\nparameter = g_nl\nvalues = {values}\n")

    def test_linear_range(self):
        cfg = parse_config(self.BASE + "[sweep]\nparameter = lambda\nstart = 0\nstop = 1\ncount = 5\n")
        assert cfg.axes[0].values == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_range_ends_exactly_at_stop(self):
        # start + 9 * (stop - start) / 9 is 0.050000000000000266
        cfg = parse_config(self.BASE + "[sweep]\nparameter = lambda\nstart = 3.9\nstop = 0.05\n"
                           "count = 10\n")
        values = cfg.axes[0].values
        assert (values[0], values[-1], len(values)) == (3.9, 0.05, 10)
        assert values[1] == 3.9 + (0.05 - 3.9) / 9

    def test_single_count_range(self):
        cfg = parse_config(self.BASE + "[sweep]\nparameter = lambda\nstart = 0.3\nstop = 9\ncount = 1\n")
        assert cfg.axes[0].values == (0.3,)

    def test_swept_required_key_may_be_omitted(self):
        text = "g_nl = 0\ndelta_a = 0\ndelta_b = 0\n[sweep]\nparameter = lambda\nvalues = 0, 1\n"
        cfg = parse_config(text)
        assert [p.lam for _, p in cfg.points()] == [0.0, 1.0]

    def test_integer_axis(self):
        cfg = parse_config(self.BASE + "[sweep]\nparameter = m\nvalues = 0, 1, 3\n")
        assert cfg.axes[0].values == (0, 1, 3)
        assert all(isinstance(v, int) for v in cfg.axes[0].values)

    def test_two_axes_row_major(self):
        cfg = parse_config(
            self.BASE
            + "[sweep]\nparameter = g_nl\nvalues = 1, 2\nparameter2 = lambda\nvalues2 = 0, 0.5\n")
        combos = [vals for vals, _ in cfg.points()]
        assert combos == [(1.0, 0.0), (1.0, 0.5), (2.0, 0.0), (2.0, 0.5)]

    def test_unsweepable_parameter_rejected(self):
        with pytest.raises(ConfigError, match="cannot sweep"):
            parse_config(self.BASE + "[sweep]\nparameter = initial\nvalues = a, b\n")

    @pytest.mark.parametrize("tail, line", [
        ("[sweep]\n", 5),
        ("[sweep]\n# no keys\n[run]\nt_end = 10\n", 5),
        ("[sweep]\n[sweep]\n", 5),
        ("[sweep]\n[run]\nt_end = 10\n[sweep]\nvalues = 1\n", 9),
    ], ids=["empty", "empty-then-run", "two-empty", "keys-later"])
    def test_sweep_section_without_parameter_names_line(self, tail, line):
        # the first key's line, or the first [sweep] header's when the section has no keys
        message = rf"^line {line}: \[sweep\] section needs a 'parameter' key"
        with pytest.raises(ConfigError, match=message):
            parse_config(self.BASE + tail)

    def test_axis_without_values_rejected(self):
        with pytest.raises(ConfigError, match="no values"):
            parse_config(self.BASE + "[sweep]\nparameter = g_nl\n")

    def test_values_and_range_conflict(self):
        with pytest.raises(ConfigError, match="not both"):
            parse_config(
                self.BASE + "[sweep]\nparameter = g_nl\nvalues = 1\nstart = 0\nstop = 1\ncount = 2\n")

    def test_count_must_be_positive(self):
        with pytest.raises(ConfigError, match="count"):
            parse_config(self.BASE + "[sweep]\nparameter = g_nl\nstart = 0\nstop = 1\ncount = 0\n")

    def test_noninteger_values_for_photon_number_rejected(self):
        with pytest.raises(ConfigError, match="integers"):
            parse_config(self.BASE + "[sweep]\nparameter = n\nstart = 0\nstop = 1\ncount = 3\n")

    @pytest.mark.parametrize("axes", [
        "parameter = g_nl\nstart = 0\nstop = 1\ncount = 1000000000000\n",
        "parameter = g_nl\nstart = 0\nstop = 1\ncount = 100000\n"
        "parameter2 = lambda\nstart2 = 0\nstop2 = 1\ncount2 = 100000\n",
        "parameter = g_nl\nstart = 0\nstop = 1\ncount = 1000\n"
        "parameter2 = m\nvalues2 = " + ", ".join(["0"] * 101) + "\n",
    ], ids=["count", "count2", "values2"])
    def test_grid_bounded_before_it_is_built(self, axes):
        # the last line of `axes` is the one that takes the grid over the limit
        line = len((self.BASE + "[sweep]\n" + axes).splitlines())
        with pytest.raises(ConfigError, match=f"line {line}: .*limit of {MAX_POINTS}"):
            parse_config(self.BASE + "[sweep]\n" + axes)


number = st.one_of(st.integers(-3, 3), st.floats(-3, 3))


@st.composite
def sweep_axis(draw):
    key = draw(st.sampled_from(SWEEPABLE_KEYS))
    if draw(st.booleans()):
        values = draw(st.lists(number, min_size=1, max_size=4))
        return key, "values = " + ", ".join(map(repr, values)), None
    start, stop, count = draw(number), draw(number), draw(st.integers(1, 4))
    return key, f"start = {start!r}\nstop = {stop!r}\ncount = {count}", (start, stop, count)


class TestSweepProperty:
    @settings(max_examples=200, deadline=None)
    @given(sweep_axis())
    def test_every_point_builds_or_config_error(self, axis):
        # any other exception fails the test: swept values must be checked
        # like [run] values, not surface later as a traceback
        key, lines, ends = axis
        try:
            cfg = parse_config(TestSweepParsing.BASE + f"[sweep]\nparameter = {key}\n{lines}\n")
            points = cfg.points()
            for _, point in points:
                point.to_dynamics_spec()
        except ConfigError:
            return
        assert all(getattr(point, FIELD_BY_KEY[key]) == value for (value,), point in points)
        if ends is not None:  # a range starts at start and, past one value, ends at stop
            start, stop, count = ends
            values = cfg.axes[0].values
            assert values[0] == start and (count == 1 or values[-1] == stop)


class TestRoundTrip:
    def strip(self, cfg):
        return replace(cfg, defaulted=())

    def test_run_config_round_trips_exactly(self):
        cfg = parse_config(
            "g_nl = 2.7182818284590452\ndelta_a = 0.3333333333333333\n"
            "delta_b = 0.1\nlambda = 0.015\ng_a = 1.4142135623730951\n"
            "t_end = 12.5\nsamples = 1234\nstep = 0.0007\noracle = true\n"
            "oracle_mode = full\ncutoff_a = 6\ncutoff_b = 5\n")
        again = parse_config(write_config(cfg))
        assert self.strip(again) == self.strip(cfg)

    def test_inas_gaas_huang_rhys_round_trips(self):
        # lambda = 0.015 is the InAs/GaAs benchmark value
        cfg = parse_config("g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\nlambda = 0.015\n")
        again = parse_config(write_config(cfg))
        assert again.lam == 0.015
        assert self.strip(again) == self.strip(cfg)

    def test_awkward_floats_survive(self):
        values = [1e-17, 0.1 + 0.2, 2.0 ** -52, 12345.678901234567]
        for x in values:
            cfg = RunConfig(g_nl=x, delta_a=x, delta_b=x / 3.0, lam=abs(x))
            again = parse_config(write_config(cfg))
            assert again.g_nl == x
            assert again.delta_a == x
            assert again.delta_b == x / 3.0
            assert again.lam == abs(x)

    def test_phonon_modes_round_trip(self):
        cfg = parse_config(
            "g_nl = 2\ndelta_a = 1\ndelta_b = 0.1\nphonon_modes = 0.1:1.0, 0.25:1.75\n")
        again = parse_config(write_config(cfg))
        assert again.phonon_modes == cfg.phonon_modes
        assert again.lam == cfg.lam
        assert again.shift == cfg.shift

    def test_sweep_round_trips(self):
        cfg = parse_config(
            TestSweepParsing.BASE
            + "[sweep]\nparameter = g_nl\nvalues = 0.5, 1, 2\nparameter2 = m\nvalues2 = 0, 2\n")
        again = parse_config(write_config(cfg))
        assert again.axes == cfg.axes
        assert self.strip(again.base) == self.strip(cfg.base)


class TestPresets:
    def test_fig3_caption_values(self):
        cfg = preset_config("fig3")
        assert (cfg.g_nl, cfg.delta_a, cfg.delta_b, cfg.lam) == (2.0, 1.0, 0.1, 0.01)

    def test_fig4_caption_values(self):
        cfg = preset_config("fig4")
        assert (cfg.g_nl, cfg.delta_a, cfg.delta_b, cfg.lam) == (2.0, 0.2, 0.1, 0.01)

    def test_fig5_caption_values(self):
        cfg = preset_config("fig5")
        assert (cfg.g_nl, cfg.delta_a, cfg.delta_b, cfg.lam) == (0.5, 1.0, 0.1, 0.01)

    def test_documented_defaults(self):
        for name in ("fig3", "fig4", "fig5"):
            cfg = preset_config(name)
            assert (cfg.g_a, cfg.g_b) == (1.0, 1.0)
            assert (cfg.m, cfg.n) == (0, 0)
            assert cfg.initial == "excited"
            assert (cfg.t_start, cfg.t_end, cfg.samples, cfg.step) == (0.0, 25.0, 2500, 1e-3)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="fig3"):
            preset_config("fig9")
