"""Flat key = value run/sweep configuration.

The format is deliberately minimal: one `key = value` pair per line,
`#` comments, and two optional section headers `[run]` and `[sweep]`.
Keys before any header belong to [run].  Unknown keys are rejected with
the offending line number.  Floats survive a write/parse round trip
exactly (17 significant digits).

A run is parameterized either directly by the detunings the figure
captions quote (delta_a, delta_b) or by the underlying frequencies
(omega_a, omega_ex); the two routes are mutually exclusive.  The
Huang-Rhys factor may be given as `lambda` or derived from an explicit
`phonon_modes` list; if both appear, the direct value wins with a warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import MISSING, dataclass, fields, replace

from .dynamics import DynamicsSpec, ManifoldAmplitudes, ManifoldIndex, TimeGrid
from .errors import ConfigError, InvalidSpectrumError
from .model import (
    Detunings,
    ModelParams,
    PhononSpectrum,
    detunings,
    dressed_coupling,
    huang_rhys,
    polaron_shift,
)
from .serialize import fmt

__all__ = [
    "RunConfig",
    "SweepAxis",
    "SweepConfig",
    "parse_config",
    "parse_config_file",
    "write_config",
    "preset_config",
    "PRESET_NAMES",
]

REQUIRED_KEYS = ("g_nl", "delta_a", "delta_b", "lambda")
SWEEPABLE_KEYS = ("g_a", "g_b", "g_nl", "delta_a", "delta_b", "lambda", "m", "n", "step")
INITIAL_SLOTS = ("a", "b", "c", "d", "e", "f", "excited")
PRESET_NAMES = ("fig3", "fig4", "fig5")

# config key -> RunConfig field (identity unless noted), in manifest order
FIELD_BY_KEY = {
    "g_a": "g_a", "g_b": "g_b", "g_nl": "g_nl",
    "delta_a": "delta_a", "delta_b": "delta_b", "lambda": "lam",
    "m": "m", "n": "n", "initial": "initial",
    "t_start": "t_start", "t_end": "t_end", "samples": "samples", "step": "step",
    "oracle": "oracle", "oracle_mode": "oracle_mode",
    "cutoff_a": "cutoff_a", "cutoff_b": "cutoff_b",
}
_RUN_KEYS = set(FIELD_BY_KEY) | {"omega_a", "omega_ex", "phonon_modes"}
_SWEEP_KEYS = {"parameter", "values", "start", "stop", "count",
               "parameter2", "values2", "start2", "stop2", "count2"}
_INT_KEYS = {"m", "n", "samples", "cutoff_a", "cutoff_b"}
_BOOL_TRUE = {"true", "yes", "on", "1"}
_BOOL_FALSE = {"false", "no", "off", "0"}


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved trajectory configuration (detuning-canonical form)."""

    g_nl: float
    delta_a: float
    delta_b: float
    lam: float
    g_a: float = 1.0
    g_b: float = 1.0
    shift: float = 0.0
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

    def initial_slot(self) -> str:
        return "d" if self.initial == "excited" else self.initial

    def index(self) -> ManifoldIndex:
        return ManifoldIndex(self.m, self.n)

    def to_model_params(self) -> ModelParams:
        return ModelParams.from_detunings(
            g_a=self.g_a, g_b=self.g_b, g_nl=self.g_nl,
            delta_a=self.delta_a, delta_b=self.delta_b,
            lam=self.lam, shift=self.shift,
        )

    def to_dynamics_spec(self, step: float | None = None) -> DynamicsSpec:
        """Build the integrator spec; the detunings enter exactly as configured."""
        h = self.step if step is None else step
        grid = TimeGrid(t_start=self.t_start, t_end=self.t_end, step=h)
        grid = replace(grid, sample_every=max(1, int(round(grid.n_steps() / self.samples))))
        return DynamicsSpec(
            index=self.index(),
            g_a_eff=dressed_coupling(self.g_a, self.lam),
            g_b_eff=dressed_coupling(self.g_b, self.lam),
            g_nl=self.g_nl,
            detunings=Detunings(self.delta_a, self.delta_b),
            y0=ManifoldAmplitudes.unit(self.initial_slot()),
            grid=grid,
        )

    def with_param(self, key: str, value) -> "RunConfig":
        """Copy with one config-keyed parameter replaced (used by sweeps)."""
        fname = FIELD_BY_KEY[key]
        if key in _INT_KEYS:
            value = int(value)
        return replace(self, **{fname: value})


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
        grid = [()]
        for axis in self.axes:
            grid = [prefix + (v,) for prefix in grid for v in axis.values]
        out = []
        for values in grid:
            cfg = self.base
            for axis, v in zip(self.axes, values):
                cfg = cfg.with_param(axis.parameter, v)
            out.append((values, cfg))
        return out


def _tokenize(text: str):
    """Yield (section, key, value, lineno); keys before a header sit in 'run'."""
    section = "run"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line == "[run]":
                section = "run"
            elif line == "[sweep]":
                section = "sweep"
            else:
                raise ConfigError(f"unknown section {line!r}", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        key, _, value = line.partition("=")
        yield section, key.strip(), value.strip(), lineno


def _parse_float(key, text, lineno) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number for '{key}', got {text!r}", line=lineno) from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number for '{key}', got {text!r}", line=lineno)
    return value


def _parse_int(key, text, lineno) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer for '{key}', got {text!r}", line=lineno) from None


def _parse_bool(key, text, lineno) -> bool:
    low = text.lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise ConfigError(f"expected true/false for '{key}', got {text!r}", line=lineno)


def _parse_modes(text, lineno) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ":" not in chunk:
            raise ConfigError(
                f"phonon_modes entries are coupling:frequency pairs, got {chunk!r}",
                line=lineno,
            )
        c_text, _, w_text = chunk.partition(":")
        pairs.append((
            _parse_float("phonon_modes", c_text.strip(), lineno),
            _parse_float("phonon_modes", w_text.strip(), lineno),
        ))
    if not pairs:
        raise ConfigError("phonon_modes is empty", line=lineno)
    return tuple(pairs)


def _collect(text: str):
    run: dict[str, tuple[str, int]] = {}
    sweep: dict[str, tuple[str, int]] = {}
    for section, key, value, lineno in _tokenize(text):
        table, known = (run, _RUN_KEYS) if section == "run" else (sweep, _SWEEP_KEYS)
        if key not in known:
            raise ConfigError(f"unknown key '{key}' in [{section}] section", line=lineno)
        if key in table:
            raise ConfigError(f"duplicate key '{key}'", line=lineno)
        table[key] = (value, lineno)
    return run, sweep


def _resolve_run(run: dict, swept: set[str]) -> RunConfig:
    has = lambda k: k in run

    direct = has("delta_a") or has("delta_b") or "delta_a" in swept or "delta_b" in swept
    via_omega = has("omega_a") or has("omega_ex")
    if direct and via_omega:
        key = "omega_a" if has("omega_a") else "omega_ex"
        raise ConfigError(
            "give either detunings (delta_a, delta_b) or frequencies "
            "(omega_a, omega_ex), not both",
            line=run[key][1],
        )

    missing = []
    if not has("g_nl") and "g_nl" not in swept:
        missing.append("g_nl")
    if via_omega:
        missing += [k for k in ("omega_a", "omega_ex") if not has(k)]
    else:
        missing += [
            k for k in ("delta_a", "delta_b")
            if not has(k) and k not in swept
        ]
    if not has("lambda") and not has("phonon_modes") and "lambda" not in swept:
        missing.append("lambda")
    if missing:
        raise ConfigError(
            "missing required keys: " + ", ".join(missing)
            + " (required: " + ", ".join(REQUIRED_KEYS) + ")"
        )

    values: dict[str, object] = {}
    defaulted = []

    def take(key, kind="float", validate=None):
        fname = FIELD_BY_KEY[key]
        if key in run:
            text, lineno = run[key]
            if kind == "float":
                val = _parse_float(key, text, lineno)
            elif kind == "int":
                val = _parse_int(key, text, lineno)
            elif kind == "bool":
                val = _parse_bool(key, text, lineno)
            else:
                val = text
            if validate is not None:
                err = validate(val)
                if err:
                    raise ConfigError(f"'{key}': {err}", line=lineno)
            values[fname] = val
        else:
            # g_nl has no default; when it is swept 0.0 is replaced per sweep point
            values[fname] = _FIELD_DEFAULTS.get(fname, 0.0)
            if key not in swept:
                defaulted.append(key)

    take("g_a")
    take("g_b")
    take("g_nl")
    take("m", "int", lambda v: None if v >= 0 else "must be >= 0")
    take("n", "int", lambda v: None if v >= 0 else "must be >= 0")
    take("initial", "str",
         lambda v: None if v in INITIAL_SLOTS else f"must be one of {', '.join(INITIAL_SLOTS)}")
    take("t_start")
    take("t_end")
    take("samples", "int", lambda v: None if v >= 1 else "must be >= 1")
    take("step", validate=lambda v: None if v > 0 else "must be > 0")
    take("oracle", "bool")
    take("oracle_mode", "str",
         lambda v: None if v in ("restricted", "full") else "must be restricted or full")
    take("cutoff_a", "int")
    take("cutoff_b", "int")

    if values["t_end"] <= values["t_start"]:
        where = run.get("t_end", run.get("t_start", (None, None)))[1]
        raise ConfigError("t_end must be greater than t_start", line=where)

    spectrum_pairs: tuple = ()
    shift = 0.0
    lam_from_spectrum = None
    if has("phonon_modes"):
        text, lineno = run["phonon_modes"]
        spectrum_pairs = _parse_modes(text, lineno)
        try:
            spectrum = PhononSpectrum.from_pairs(spectrum_pairs)
        except InvalidSpectrumError as exc:
            raise ConfigError(str(exc), line=lineno) from exc
        shift = polaron_shift(spectrum)
        lam_from_spectrum = huang_rhys(spectrum)

    if has("lambda"):
        text, lineno = run["lambda"]
        lam = _parse_float("lambda", text, lineno)
        if lam < 0:
            raise ConfigError("'lambda': must be >= 0", line=lineno)
        if lam_from_spectrum is not None:
            warnings.warn(
                "both lambda and phonon_modes given; using the direct lambda "
                f"({fmt(lam)}) over the spectrum-derived value ({fmt(lam_from_spectrum)})",
                stacklevel=2,
            )
    elif lam_from_spectrum is not None:
        lam = lam_from_spectrum
    else:
        lam = 0.0  # swept

    if via_omega:
        omega_a = _parse_float("omega_a", *run["omega_a"])
        omega_ex = _parse_float("omega_ex", *run["omega_ex"])
        dets = detunings(omega_ex, omega_a, shift)
        delta_a, delta_b = dets.delta_a, dets.delta_b
    else:
        delta_a = _parse_float("delta_a", *run["delta_a"]) if has("delta_a") else 0.0
        delta_b = _parse_float("delta_b", *run["delta_b"]) if has("delta_b") else 0.0

    return RunConfig(
        delta_a=delta_a, delta_b=delta_b, lam=lam, shift=shift,
        phonon_modes=spectrum_pairs, defaulted=tuple(defaulted), **values,
    )


def _axis_values(sweep: dict, param: str, suffix: str) -> tuple:
    int_valued = param in ("m", "n")
    has_values = f"values{suffix}" in sweep
    has_range = any(f"{k}{suffix}" in sweep for k in ("start", "stop", "count"))
    if has_values and has_range:
        raise ConfigError(
            f"give either values{suffix} or a start/stop/count{suffix} range, not both",
            line=sweep[f"values{suffix}"][1],
        )
    if has_values:
        text, lineno = sweep[f"values{suffix}"]
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ConfigError(f"values{suffix} is empty", line=lineno)
        if int_valued:
            return tuple(_parse_int(param, p, lineno) for p in parts)
        return tuple(_parse_float(param, p, lineno) for p in parts)
    if has_range:
        for k in ("start", "stop", "count"):
            if f"{k}{suffix}" not in sweep:
                raise ConfigError(f"linear range needs start{suffix}, stop{suffix} and count{suffix}")
        start = _parse_float("start", *sweep[f"start{suffix}"])
        stop = _parse_float("stop", *sweep[f"stop{suffix}"])
        count = _parse_int("count", *sweep[f"count{suffix}"])
        if count < 1:
            raise ConfigError("'count': must be >= 1", line=sweep[f"count{suffix}"][1])
        if count == 1:
            vals = [start]
        else:
            vals = [start + i * (stop - start) / (count - 1) for i in range(count)]
        if not all(math.isfinite(v) for v in vals):
            raise ConfigError(f"start{suffix}..stop{suffix} range is not finite",
                              line=sweep[f"start{suffix}"][1])
        if int_valued:
            out = []
            for v in vals:
                if v != int(v):
                    raise ConfigError(
                        f"swept values for '{param}' must be integers, got {v!r}",
                        line=sweep[f"start{suffix}"][1],
                    )
                out.append(int(v))
            return tuple(out)
        return tuple(vals)
    raise ConfigError(f"sweep axis '{param}' has no values{suffix} or range")


def _resolve_sweep(run: dict, sweep: dict) -> SweepConfig:
    if "parameter" not in sweep:
        raise ConfigError("[sweep] section needs a 'parameter' key")
    axes = []
    swept = set()
    for suffix in ("", "2"):
        pkey = f"parameter{suffix}"
        if pkey not in sweep:
            if any(f"{k}{suffix}" in sweep for k in ("values", "start", "stop", "count")):
                raise ConfigError(f"sweep values{suffix} given without {pkey}")
            continue
        param, lineno = sweep[pkey]
        if param not in SWEEPABLE_KEYS:
            raise ConfigError(
                f"cannot sweep '{param}'; sweepable keys: {', '.join(SWEEPABLE_KEYS)}",
                line=lineno,
            )
        if param in swept:
            raise ConfigError(f"parameter '{param}' swept twice", line=lineno)
        swept.add(param)
        axes.append(SweepAxis(parameter=param, values=_axis_values(sweep, param, suffix)))
    base = _resolve_run(run, swept)
    return SweepConfig(base=base, axes=tuple(axes))


def parse_config(text: str):
    """Parse config text into a RunConfig or, if a [sweep] section exists, a SweepConfig."""
    run, sweep = _collect(text)
    if sweep:
        return _resolve_sweep(run, sweep)
    return _resolve_run(run, set())


def parse_config_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


def write_config(config) -> str:
    """Canonical text form; parsing it back reproduces every float exactly."""
    base = config.base if isinstance(config, SweepConfig) else config
    lines = ["[run]"]
    for key, fname in FIELD_BY_KEY.items():
        value = getattr(base, fname)
        if key == "lambda":
            spectrum_lam = None
            if base.phonon_modes:
                spectrum_lam = huang_rhys(PhononSpectrum.from_pairs(base.phonon_modes))
            if spectrum_lam is None or spectrum_lam != base.lam:
                # only write lambda when the spectrum cannot reproduce it, so a
                # reparse does not warn about redundant sources
                lines.append(f"lambda = {fmt(base.lam)}")
            if base.phonon_modes:
                pairs = ", ".join(f"{fmt(c)}:{fmt(w)}" for c, w in base.phonon_modes)
                lines.append(f"phonon_modes = {pairs}")
        elif value is not None:  # an unset cutoff is left out
            lines.append(f"{key} = {fmt(value)}")
    if isinstance(config, SweepConfig):
        lines.append("")
        lines.append("[sweep]")
        for axis, suffix in zip(config.axes, ("", "2")):
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
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    text = "\n".join(f"{k} = {v}" for k, v in _PRESET_CAPTIONS[name].items())
    return parse_config(text)
