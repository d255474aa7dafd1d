"""Flat key = value run/sweep configuration.

The format is deliberately minimal: one `key = value` pair per line,
`#` comments, and two optional section headers `[run]` and `[sweep]`.
A line ends at LF, CR LF or CR, so an error's line number is the one an
editor shows.  Keys before any header belong to [run].  Unknown keys are
rejected with the offending line number.  Floats survive a write/parse round trip
exactly (17 significant digits).  One table, `_KEYS`, gives each [run] key
its field, parser and check; a swept value passes the same parse and check
as the [run] key it replaces, and a sweep grid holds at most MAX_POINTS
points.

A run is parameterized either directly by the detunings the figure
captions quote (delta_a, delta_b) or by the underlying frequencies
(omega_a, omega_ex); the two routes are mutually exclusive.  The
Huang-Rhys factor may be given as `lambda` or derived from an explicit
`phonon_modes` list; if both appear, the direct value wins with a warning.
"""

from __future__ import annotations

import itertools
import math
import re
import warnings
from dataclasses import MISSING, dataclass, fields, replace

from .dynamics import SLOTS, DynamicsSpec, ManifoldAmplitudes, ManifoldIndex, TimeGrid
from .errors import ConfigError, InvalidSpectrumError
from .model import ModelParams, detunings, huang_rhys, polaron_shift
from .serialize import fmt

__all__ = [
    "RunConfig",
    "SweepAxis",
    "SweepConfig",
    "parse_config",
    "parse_config_file",
    "override",
    "write_config",
    "preset_config",
    "PRESET_NAMES",
    "MAX_STEPS",
    "MAX_ROWS",
    "MAX_SWEEP_ROWS",
    "MAX_POINTS",
    "MAX_PHOTONS",
    "MAX_CONFIG_BYTES",
]

REQUIRED_KEYS = ("g_nl", "delta_a", "delta_b", "lambda")
SWEEPABLE_KEYS = ("g_a", "g_b", "g_nl", "delta_a", "delta_b", "lambda", "m", "n", "step")
INITIAL_SLOTS = (*SLOTS, "excited")
PRESET_NAMES = ("fig3", "fig4", "fig5")
# RK4 steps one trajectory may take, 400x the fig3 grid.  Steps are powered per
# sample stride, not taken one by one, so this no longer bounds the time (10^7
# fig3 steps, t_end = 10^4, integrate in ~2 ms on a 2-core x86 host); it is kept
# so that every accepted step count is a float-exact integer that n_steps() can
# round, and a mistyped step or window fails with a config error
MAX_STEPS = 10_000_000
# samples one trajectory may keep: each is a row of trajectory.csv and p2.csv
# (about 300 MB of text at this limit), 400x the default grid
MAX_ROWS = 1_000_000
# samples all the points of one sweep may keep together, checked before any
# output: at ~263 B of trajectory.csv and p2.csv text a row, about 26 GB, where
# MAX_POINTS points at MAX_ROWS rows each would write some 26 TB.  A 100 x 100
# map on the default grid keeps 2.5 x 10^7 rows and still runs
MAX_SWEEP_ROWS = 100_000_000
# points one sweep grid may have.  Only each point's grid and oracle cutoffs are
# checked before the first runs (about 2 s and 76 MiB peak RSS at this limit, a
# g_nl sweep on a 2-core x86 host), so the check is cheap; the bound is kept for
# the output, since each point writes its own directory (~0.65 MB for a
# default fig3 point, some 65 GB at this limit)
MAX_POINTS = 100_000
# photon numbers m and n: the couplings take square roots of products like
# (n+1)(m+1)(m+2), which stop converting to a float near 1e308; this bound
# keeps them exact, far past any photon number the model is meant for
MAX_PHOTONS = 1_000_000_000
# bytes one config file may hold, read before any of it is parsed: far above
# any real config (write_config writes ~2.6 MB for a 100,000-value sweep axis),
# so a huge or endless input such as /dev/zero is a config error, not a read
# that lasts until memory runs out
MAX_CONFIG_BYTES = 16 * 2**20

# each sweep axis has these keys, spelled with its suffix: "" for the first
# axis, "2" for the second
_RANGE_KEYS = ("start", "stop", "count")
_AXIS_KEYS = ("parameter", "values", *_RANGE_KEYS)
_AXIS_SUFFIXES = ("", "2")
_SWEEP_KEYS = {key + suffix for suffix in _AXIS_SUFFIXES for key in _AXIS_KEYS}
_BOOL_TRUE = {"true", "yes", "on", "1"}
_BOOL_FALSE = {"false", "no", "off", "0"}
# characters of an offending text that an error quotes: a longer text is cut
# to them and its length, so a message stays short however long its line is
_QUOTED_CHARS = 24
# a line ends at LF, CR LF or CR, as editors and grep -n count lines; a form
# feed, NEL or U+2028 stays inside its line, where str.splitlines would break
_LINE_END = re.compile(r"\r\n|\r|\n")


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved trajectory configuration (detuning-canonical form)."""

    g_nl: float
    delta_a: float
    delta_b: float
    lam: float
    g_a: float = 1.0
    g_b: float = 1.0
    phonon_modes: tuple[tuple[float, float], ...] = ()
    m: int = 0
    n: int = 0
    initial: str = "excited"
    t_start: float = 0.0
    t_end: float = 25.0
    samples: int = 2500
    step: float = 1e-3
    oracle: bool = False
    oracle_mode: str = "restricted"
    cutoff_a: int | None = None
    cutoff_b: int | None = None
    defaulted: tuple[str, ...] = ()

    @property
    def shift(self) -> float:
        """Polaron shift of `phonon_modes`; 0 without a spectrum."""
        return polaron_shift(self.phonon_modes)

    def entries(self):
        """(key, value) for each set [run] key in manifest order.

        An unset cutoff is left out, and the `phonon_modes` text follows
        `lambda`.  Both the resolved config file and the manifest spell a
        run this way.
        """
        for key, (fname, _, _) in _KEYS.items():
            value = getattr(self, fname)
            if value is None:  # an unset cutoff
                continue
            yield key, value
            if key == "lambda" and self.phonon_modes:
                yield "phonon_modes", ", ".join(f"{fmt(c)}:{fmt(w)}" for c, w in self.phonon_modes)

    def index(self) -> ManifoldIndex:
        return ManifoldIndex(self.m, self.n)

    def to_model_params(self) -> ModelParams:
        return ModelParams(g_a=self.g_a, g_b=self.g_b, g_nl=self.g_nl,
                           delta_a=self.delta_a, delta_b=self.delta_b, lam=self.lam)

    def grid(self) -> TimeGrid:
        """The integration grid, with the sample stride that keeps about `samples` rows.

        Raises ConfigError when the window rounds to no step (it is at most
        half the step), takes more than MAX_STEPS steps or keeps more than
        MAX_ROWS samples.
        """
        try:
            grid = TimeGrid(self.t_start, self.t_end, self.step, sample_every=1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        steps = (grid.t_end - grid.t_start) / grid.step  # may be inf, which n_steps() cannot round
        if steps > MAX_STEPS:
            raise ConfigError(
                f"window [{self.t_start:g}, {self.t_end:g}] at step {self.step:g} takes "
                f"{steps:.3g} steps, more than the limit of {MAX_STEPS}"
            )
        grid = replace(grid, sample_every=max(1, int(round(grid.n_steps() / self.samples))))
        if grid.n_samples() > MAX_ROWS:
            raise ConfigError(
                f"samples = {self.samples} at step {self.step:g} keeps {grid.n_samples()} "
                f"samples, more than the limit of {MAX_ROWS} rows"
            )
        return grid

    def to_dynamics_spec(self) -> DynamicsSpec:
        """Build the integrator spec on `grid()`; the detunings enter exactly as configured."""
        slot = "d" if self.initial == "excited" else self.initial
        return DynamicsSpec(params=self.to_model_params(), index=self.index(),
                            y0=ManifoldAmplitudes.unit(slot), grid=self.grid())


_FIELD_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}


@dataclass(frozen=True)
class SweepAxis:
    parameter: str
    values: tuple


@dataclass(frozen=True)
class SweepConfig:
    base: RunConfig
    axes: tuple[SweepAxis, ...]

    def points(self) -> list[tuple[tuple, RunConfig]]:
        """Cartesian grid in row-major axis order: (swept values, point config)."""
        names = [FIELD_BY_KEY[axis.parameter] for axis in self.axes]
        return [(values, replace(self.base, **dict(zip(names, values))))
                for values in itertools.product(*(axis.values for axis in self.axes))]


def _quote(text: str) -> str:
    """repr of a text from the config; a longer one is cut to _QUOTED_CHARS and its length."""
    if len(text) <= _QUOTED_CHARS:
        return repr(text)
    return f"{text[:_QUOTED_CHARS]!r}... ({len(text)} characters)"


def _parse_float(key, text, lineno) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number for '{key}', got {_quote(text)}",
                          line=lineno) from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number for '{key}', got {_quote(text)}", line=lineno)
    return value


def _parse_int(key, text, lineno) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer for '{key}', got {_quote(text)}",
                          line=lineno) from None


def _parse_bool(key, text, lineno) -> bool:
    low = text.lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise ConfigError(f"expected true/false for '{key}', got {_quote(text)}", line=lineno)


def _parse_text(key, text, lineno) -> str:
    return text


_AT_LEAST_0 = (lambda v: v >= 0, "must be >= 0")
_PHOTONS = (lambda v: 0 <= v <= MAX_PHOTONS, f"must be >= 0 and <= {MAX_PHOTONS}")

# config key -> (RunConfig field, parser, check), in manifest order; a check is
# (predicate, error) and holds for every value of the key, swept ones too
_KEYS = {
    "g_a": ("g_a", _parse_float, None),
    "g_b": ("g_b", _parse_float, None),
    "g_nl": ("g_nl", _parse_float, None),
    "delta_a": ("delta_a", _parse_float, None),
    "delta_b": ("delta_b", _parse_float, None),
    "lambda": ("lam", _parse_float, _AT_LEAST_0),
    "m": ("m", _parse_int, _PHOTONS),
    "n": ("n", _parse_int, _PHOTONS),
    "initial": ("initial", _parse_text, (INITIAL_SLOTS.__contains__,
                                         f"must be one of {', '.join(INITIAL_SLOTS)}")),
    "t_start": ("t_start", _parse_float, None),
    "t_end": ("t_end", _parse_float, None),
    "samples": ("samples", _parse_int, (lambda v: v >= 1, "must be >= 1")),
    "step": ("step", _parse_float, (lambda v: v > 0, "must be > 0")),
    "oracle": ("oracle", _parse_bool, None),
    "oracle_mode": ("oracle_mode", _parse_text, (("restricted", "full").__contains__,
                                                 "must be restricted or full")),
    "cutoff_a": ("cutoff_a", _parse_int, _AT_LEAST_0),
    "cutoff_b": ("cutoff_b", _parse_int, _AT_LEAST_0),
}
FIELD_BY_KEY = {key: fname for key, (fname, _, _) in _KEYS.items()}
_RUN_KEYS = set(_KEYS) | {"omega_a", "omega_ex", "phonon_modes"}


def _check(key, value, lineno) -> None:
    _, _, check = _KEYS[key]
    if check is not None:
        holds, error = check
        if not holds(value):
            raise ConfigError(f"'{key}': {error}", line=lineno)


def _value(key, text, lineno):
    """Parse one value of a [run] key, from [run] or a sweep's values, and check it."""
    _, parse, _ = _KEYS[key]
    value = parse(key, text, lineno)
    _check(key, value, lineno)
    return value


def _entries(key, text, lineno) -> list[str]:
    """The comma-separated entries of a list value; no entry, or an empty one, is an error."""
    parts = [p.strip() for p in text.split(",")]
    if not any(parts):
        raise ConfigError(f"{key} is empty", line=lineno)
    if not all(parts):
        raise ConfigError(f"{key} has an empty entry (entry {parts.index('') + 1} of "
                          f"{len(parts)})", line=lineno)
    return parts


def _parse_modes(text, lineno) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in _entries("phonon_modes", text, lineno):
        if ":" not in chunk:
            raise ConfigError(
                f"phonon_modes entries are coupling:frequency pairs, got {_quote(chunk)}",
                line=lineno,
            )
        c_text, _, w_text = chunk.partition(":")
        pairs.append((
            _parse_float("phonon_modes", c_text.strip(), lineno),
            _parse_float("phonon_modes", w_text.strip(), lineno),
        ))
    return tuple(pairs)


def _resolve_run(run: dict, swept: set[str]) -> RunConfig:
    given = set(run) | swept  # keys set in [run] or by a sweep axis
    via_omega = "omega_a" in given or "omega_ex" in given
    if via_omega and ("delta_a" in given or "delta_b" in given):
        key = "omega_a" if "omega_a" in given else "omega_ex"
        raise ConfigError(
            "give either detunings (delta_a, delta_b) or frequencies "
            "(omega_a, omega_ex), not both",
            line=run[key][1],
        )

    required = ["g_nl"] + (["omega_a", "omega_ex"] if via_omega else ["delta_a", "delta_b"])
    missing = [k for k in required if k not in given]
    if "lambda" not in given and "phonon_modes" not in given:
        missing.append("lambda")
    if missing:
        raise ConfigError(
            "missing required keys: " + ", ".join(missing)
            + " (required: " + ", ".join(REQUIRED_KEYS) + ")"
        )

    # a key with no default is required: a swept one is replaced per sweep
    # point, lambda and the detunings may still come from phonon_modes or omega_*
    values = {fname: _FIELD_DEFAULTS.get(fname, 0.0) for fname in FIELD_BY_KEY.values()}
    values.update((FIELD_BY_KEY[key], _value(key, *run[key])) for key in _KEYS if key in run)
    defaulted = tuple(k for k in _KEYS if k not in given and k not in REQUIRED_KEYS)

    if values["t_end"] <= values["t_start"]:
        where = run.get("t_end", run.get("t_start", (None, None)))[1]
        raise ConfigError("t_end must be greater than t_start", line=where)
    for key in ("cutoff_a", "cutoff_b"):
        if key in run and values["oracle_mode"] != "full":
            raise ConfigError(f"'{key}' needs oracle_mode = full; the restricted oracle "
                              f"takes no cutoffs", line=run[key][1])

    spectrum_pairs: tuple = ()
    shift = 0.0
    if "phonon_modes" in run:
        text, lineno = run["phonon_modes"]
        spectrum_pairs = _parse_modes(text, lineno)
        try:
            shift = polaron_shift(spectrum_pairs)
        except InvalidSpectrumError as exc:
            raise ConfigError(str(exc), line=lineno) from exc
        lam_from_spectrum = huang_rhys(spectrum_pairs)
        if not (math.isfinite(shift) and math.isfinite(lam_from_spectrum)):
            raise ConfigError(
                f"phonon_modes give a Huang-Rhys factor of {fmt(lam_from_spectrum)} and "
                f"a polaron shift of {fmt(shift)}; both must be finite",
                line=lineno,
            )
        if "lambda" in run:
            warnings.warn(
                f"line {run['lambda'][1]}: both lambda and phonon_modes given; using the "
                f"direct lambda ({fmt(values['lam'])}) over the spectrum-derived value "
                f"({fmt(lam_from_spectrum)})",
                stacklevel=2,
            )
        else:
            values["lam"] = lam_from_spectrum

    if via_omega:
        omega_a = _parse_float("omega_a", *run["omega_a"])
        omega_ex = _parse_float("omega_ex", *run["omega_ex"])
        values["delta_a"], values["delta_b"] = detunings(omega_ex, omega_a, shift)
        if not (math.isfinite(values["delta_a"]) and math.isfinite(values["delta_b"])):
            raise ConfigError(
                f"omega_a = {fmt(omega_a)} and omega_ex = {fmt(omega_ex)} give detunings "
                f"delta_a = {fmt(values['delta_a'])} and delta_b = {fmt(values['delta_b'])}; "
                f"both must be finite",
                line=run["omega_a"][1],
            )

    return RunConfig(phonon_modes=spectrum_pairs, defaulted=defaulted, **values)


def _axis_values(keys: dict, param: str, suffix: str, outer: int) -> tuple:
    """Checked values of one sweep axis from its own keys, named without `suffix`.

    `outer` is the point count of the axes before it.
    """
    range_keys = [k for k in _RANGE_KEYS if k in keys]
    if "values" in keys and range_keys:
        raise ConfigError(f"give either values{suffix} or a start/stop/count{suffix} range, "
                          f"not both", line=keys["values"][1])
    if "values" in keys:
        text, lineno = keys["values"]
        parts = _entries(f"values{suffix}", text, lineno)
        count = len(parts)
    elif range_keys:
        missing = [k + suffix for k in _RANGE_KEYS if k not in keys]
        if missing:
            raise ConfigError(f"linear range needs start{suffix}, stop{suffix} and count{suffix}; "
                              f"missing {' and '.join(missing)}", line=keys[range_keys[0]][1])
        start_text, start_line = keys["start"]
        start = _parse_float("start", start_text, start_line)
        stop = _parse_float("stop", *keys["stop"])
        count_text, lineno = keys["count"]
        count = _parse_int("count", count_text, lineno)
        if count < 1:
            raise ConfigError("'count': must be >= 1", line=lineno)
    else:
        raise ConfigError(f"sweep axis '{param}' has no values{suffix} or range",
                          line=keys["parameter"][1])
    if outer * count > MAX_POINTS:
        raise ConfigError(f"sweep grid of {outer * count} points is more than the limit "
                          f"of {MAX_POINTS}", line=lineno)
    if "values" in keys:
        return tuple(_value(param, p, lineno) for p in parts)

    # the ends are start and stop exactly, where the formula may miss stop by a
    # few ulps; a count of 1 keeps start alone
    inner = [start + i * (stop - start) / (count - 1) for i in range(1, count - 1)]
    vals = [start, *inner, stop][:count]
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"start{suffix}..stop{suffix} range is not finite", line=start_line)
    if _KEYS[param][1] is _parse_int:  # photon numbers
        for v in vals:
            if v != int(v):
                raise ConfigError(f"swept values for '{param}' must be integers, got {v!r}",
                                  line=start_line)
        vals = [int(v) for v in vals]
    for v in vals:
        _check(param, v, start_line)
    return tuple(vals)


def _resolve_sweep(run: dict, sweep: dict, header: int) -> SweepConfig:
    if "parameter" not in sweep:
        # the first key's line, or the header's in a section with no keys
        first_line = next(iter(sweep.values()), (None, header))[1]
        raise ConfigError("[sweep] section needs a 'parameter' key", line=first_line)
    axes = []
    for suffix in _AXIS_SUFFIXES:
        keys = {key: sweep[key + suffix] for key in _AXIS_KEYS if key + suffix in sweep}
        if "parameter" not in keys:
            if keys:
                raise ConfigError(f"sweep values{suffix} given without parameter{suffix}",
                                  line=min(line for _, line in keys.values()))
            continue
        param, lineno = keys["parameter"]
        if param not in SWEEPABLE_KEYS:
            raise ConfigError(f"cannot sweep {_quote(param)}; sweepable keys: "
                              f"{', '.join(SWEEPABLE_KEYS)}", line=lineno)
        if any(axis.parameter == param for axis in axes):
            raise ConfigError(f"parameter '{param}' swept twice", line=lineno)
        outer = math.prod(len(axis.values) for axis in axes)
        axes.append(SweepAxis(parameter=param, values=_axis_values(keys, param, suffix, outer)))
    return SweepConfig(base=_resolve_run(run, {axis.parameter for axis in axes}),
                       axes=tuple(axes))


def parse_config(text: str):
    """Parse config text into a RunConfig or, if a [sweep] section exists, a SweepConfig.

    One pass over the lines fills a (text, line) table per section and notes
    the first [sweep] header's line; keys before any header sit in [run].
    """
    tables = {"run": {}, "sweep": {}}
    section, header = "run", None
    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[run]", "[sweep]"):
                raise ConfigError(f"unknown section {_quote(line)}", line=lineno)
            section = line[1:-1]
            if header is None and section == "sweep":
                header = lineno
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {_quote(line)}", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in (_RUN_KEYS if section == "run" else _SWEEP_KEYS):
            raise ConfigError(f"unknown key {_quote(key)} in [{section}] section", line=lineno)
        if key in tables[section]:
            raise ConfigError(f"duplicate key '{key}'", line=lineno)
        tables[section][key] = (value.strip(), lineno)
    if header is not None:
        return _resolve_sweep(tables["run"], tables["sweep"], header)
    return _resolve_run(tables["run"], set())


def parse_config_file(path):
    """Parse a config file; bytes that are not UTF-8 are a ConfigError naming their line.

    The utf-8-sig codec drops a leading UTF-8 byte order mark, and its
    error offsets do not count the mark.  A file of more than
    MAX_CONFIG_BYTES bytes is a ConfigError; no more than one byte past the
    bound is read.
    """
    with open(path, "rb") as fh:
        data = fh.read(MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise ConfigError(f"config is larger than the limit of {MAX_CONFIG_BYTES} bytes")
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the bytes before the bad one decode, and the bad one sits on the
        # line after the last line end among them
        line = len(_LINE_END.split(exc.object[:exc.start].decode("utf-8")))
        raise ConfigError(f"not UTF-8 text ({exc.reason} at byte {exc.start})",
                          line=line) from None
    return parse_config(text)


def override(config, step: float | None = None, oracle: bool = False):
    """A RunConfig or SweepConfig with the command line's --step and --oracle set in it.

    The overridden keys read as configured, not defaulted, so every artifact
    records the values that ran.  --step cannot replace a swept step.
    """
    if isinstance(config, SweepConfig):
        if step is not None and any(axis.parameter == "step" for axis in config.axes):
            raise ConfigError("--step cannot override the swept 'step' values")
        return replace(config, base=override(config.base, step, oracle))
    changes = {}
    if step is not None:
        if not (math.isfinite(step) and step > 0):
            raise ConfigError(f"--step must be finite and > 0, got {step!r}")
        changes["step"] = step
    if oracle:
        changes["oracle"] = True
    return replace(config, defaulted=tuple(k for k in config.defaulted if k not in changes),
                   **changes)


def write_config(config) -> str:
    """Canonical text form; parsing it back reproduces every float exactly."""
    base = config.base if isinstance(config, SweepConfig) else config
    spectrum_lam = huang_rhys(base.phonon_modes) if base.phonon_modes else None
    lines = ["[run]"]
    for key, value in base.entries():
        # lambda is written only when the spectrum cannot reproduce it, so a
        # reparse does not warn about redundant sources
        if key != "lambda" or value != spectrum_lam:
            lines.append(f"{key} = {fmt(value)}")
    if isinstance(config, SweepConfig):
        lines.append("")
        lines.append("[sweep]")
        for axis, suffix in zip(config.axes, _AXIS_SUFFIXES):
            lines.append(f"parameter{suffix} = {axis.parameter}")
            lines.append(f"values{suffix} = " + ", ".join(fmt(v) for v in axis.values))
    return "\n".join(lines) + "\n"


_PRESET_CAPTIONS = {
    "fig3": {"g_nl": "2", "delta_a": "1", "delta_b": "0.1", "lambda": "0.01"},
    "fig4": {"g_nl": "2", "delta_a": "0.2", "delta_b": "0.1", "lambda": "0.01"},
    "fig5": {"g_nl": "0.5", "delta_a": "1", "delta_b": "0.1", "lambda": "0.01"},
}


def preset_config(name: str) -> RunConfig:
    """Figure-reproduction presets: caption parameters plus the documented defaults.

    Captions fix g_nl, delta_a, delta_b and lambda only; g_a = g_b = 1 (the
    reference rate), m = n = 0 and the excited-dot initial state are defaults,
    so the reproduction is qualitative by construction.
    """
    if name not in _PRESET_CAPTIONS:
        raise ConfigError(f"unknown preset {_quote(name)}; available: {', '.join(PRESET_NAMES)}")
    text = "\n".join(f"{k} = {v}" for k, v in _PRESET_CAPTIONS[name].items())
    return parse_config(text)
