"""Coherent dynamics of a two-level quantum dot in a doubly resonant chi(2) microcavity.

Core pieces:

* `model` - physical parameters, phonon dressing, detunings, the material
  calculator for the two-mode nonlinear coupling.
* `dynamics` - the six-amplitude transition manifold, its equations of
  motion, fixed-step integration, and closed-form limiting cases.
* `oracle` - independent truncated-Fock-space validator (build Hamiltonian,
  spectral propagation, interaction-picture projection, comparison).
* `config` / `runner` / `cli` - flat-text configs, batch runs, sweeps,
  manifests, and the command line.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GridMismatchError,
    IntegrationDivergedError,
    InvalidSpectrumError,
)
from .model import (
    MaterialConstants,
    ModelParams,
    detunings,
    dressed_coupling,
    gnl_from_material,
    huang_rhys,
    polaron_shift,
)
from .dynamics import (
    DynamicsSpec,
    ManifoldAmplitudes,
    ManifoldIndex,
    TimeGrid,
    TimeSeries,
    integrate,
    jc_baseline,
    nl_block_baseline,
    rhs,
)
from .oracle import (
    BasisState,
    FockOperatorMatrix,
    OracleResult,
    build_hamiltonian,
    compare,
    propagate,
    run_oracle,
    to_interaction_picture,
)
from .signal import dominant_angular_frequency
from .config import (
    RunConfig,
    SweepAxis,
    SweepConfig,
    parse_config,
    override,
    parse_config_file,
    preset_config,
    write_config,
)
from .runner import ORACLE_TOLERANCE, RunOutcome, oracle_check, run_single, run_sweep
from .serialize import verify_manifest

__all__ = [
    "__version__",
    "ConfigError", "GridMismatchError", "IntegrationDivergedError", "InvalidSpectrumError",
    "MaterialConstants", "ModelParams", "detunings", "dressed_coupling", "gnl_from_material",
    "huang_rhys", "polaron_shift",
    "DynamicsSpec", "ManifoldAmplitudes", "ManifoldIndex", "TimeGrid", "TimeSeries",
    "integrate", "jc_baseline", "nl_block_baseline", "rhs",
    "BasisState", "FockOperatorMatrix", "OracleResult", "build_hamiltonian", "compare",
    "propagate", "run_oracle", "to_interaction_picture",
    "dominant_angular_frequency",
    "RunConfig", "SweepAxis", "SweepConfig", "parse_config", "parse_config_file",
    "override", "preset_config", "write_config",
    "ORACLE_TOLERANCE", "RunOutcome", "oracle_check", "run_single", "run_sweep",
    "verify_manifest",
]
