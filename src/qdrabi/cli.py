"""Command-line front end.

Verbs: run, sweep, check, preset.  Exit codes: 0 success, 1 usage, config
or output error, 2 numerical failure (divergence, failed point), 3 oracle
mismatch.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from .config import (
    PRESET_NAMES,
    SweepConfig,
    override,
    parse_config_file,
    preset_config,
)
from .errors import ConfigError
from .runner import (
    STATUS_DIVERGED,
    STATUS_MISMATCH,
    STATUS_OK,
    STATUS_PARTIAL,
    oracle_check,
    run_single,
    run_sweep,
)
from .serialize import fmt

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_ORACLE = 3

_STATUS_EXIT = {
    STATUS_OK: EXIT_OK,
    STATUS_DIVERGED: EXIT_NUMERIC,
    STATUS_PARTIAL: EXIT_NUMERIC,
    STATUS_MISMATCH: EXIT_ORACLE,
}


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # built on the first call, not at import; parse_args keeps no state
def _build_parser() -> _Parser:
    parser = _Parser(prog="qdrabi",
                     description="Rabi oscillations of a quantum dot in a chi(2) microcavity")
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--out", default="qdrabi-out", help="output directory")
        p.add_argument("--step", type=float, default=None, help="integrator step override")

    p_run = sub.add_parser("run", help="integrate one configuration")
    p_run.add_argument("config", help="config file path")
    common(p_run)
    p_run.add_argument("--oracle", action="store_true",
                       help="also validate against the Fock-basis oracle")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("config", help="config file with a [sweep] section")
    common(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=1, help="concurrent grid points")
    p_sweep.add_argument("--oracle", action="store_true",
                         help="validate every grid point against the oracle")

    p_check = sub.add_parser("check", help="compare the integrator against the Fock oracle")
    p_check.add_argument("config", help="config file path")
    common(p_check)
    p_check.add_argument("--dump-hamiltonian", action="store_true",
                         help="also dump the oracle Hamiltonian matrix")

    p_preset = sub.add_parser("preset", help="run a figure-reproduction preset")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    common(p_preset)
    p_preset.add_argument("--oracle", action="store_true",
                          help="also validate against the Fock-basis oracle")
    return parser


def _report(outcome):
    print(f"status: {outcome.status}")
    if outcome.summary:
        print(f"max norm drift: {fmt(outcome.summary['max_norm_drift'])}")
    if outcome.deviation is not None:
        print(f"oracle deviation: {fmt(outcome.deviation)} (leakage {fmt(outcome.max_leakage)})")
    print(f"outputs in {outcome.out_dir}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    with warnings.catch_warnings():
        # each warning is one stderr line, like the errors below
        warnings.showwarning = lambda message, *_: print(f"qdrabi: warning: {message}",
                                                         file=sys.stderr)
        stage = "config"  # an OSError once the config is read comes from the outputs
        try:
            if args.verb == "preset":
                config = preset_config(args.name)
            else:
                config = parse_config_file(args.config)
                if isinstance(config, SweepConfig) != (args.verb == "sweep"):
                    raise ConfigError("sweep verb needs a config with a [sweep] section"
                                      if args.verb == "sweep"
                                      else "config has a [sweep] section; use the sweep verb")
            if args.verb == "sweep" and args.workers < 1:
                raise ConfigError("--workers must be >= 1")
            config = override(config, step=args.step, oracle=getattr(args, "oracle", False))
            stage = "output"
            if args.verb == "sweep":
                outcome = run_sweep(config, args.out, workers=args.workers)
            elif args.verb == "check":
                outcome = oracle_check(config, args.out, dump_hamiltonian=args.dump_hamiltonian)
            else:
                verb = "run" if args.verb == "run" else f"preset {args.name}"
                outcome = run_single(config, args.out, verb=verb)
        except (ConfigError, OSError) as exc:
            kind = stage if isinstance(exc, OSError) else "config"
            print(f"qdrabi: {kind} error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except (RuntimeError, FloatingPointError) as exc:
            print(f"qdrabi: numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC

    _report(outcome)
    if outcome.error:
        print(f"qdrabi: {outcome.error}", file=sys.stderr)
    return _STATUS_EXIT.get(outcome.status, EXIT_NUMERIC)


def entry():
    sys.exit(main())
