"""Numerical laboratory for fractional p-Laplacian variational problems.

Submodules:
  domain_grid   grids on bounded domains and singular-kernel weights
  constants     sharp Sobolev-type constants and ball geometry closed forms
  energy        discrete energies, gradients, embedding checks
  quotient      cell partitions: symmetry orbits, sums over parts
  solver        variational solver for the p > 1 problem
  geometry      nonlocal perimeters, coarea decomposition, Cheeger
                constants
  certify       sign-field certificates for the p = 1 limit problem
  experiments   parameter sweeps, regime classification, probes, file I/O
  cli           the fraclap console command

Each submodule imports only submodules listed above it, and only at module
level. scipy's quadrature and special functions are imported by the
functions that call them, so a command loads only what it runs. The
solver loads scipy's LAPACK wrapper, and certify scipy's HiGHS extension
with its first LP, through one loader (solver._scipy_extension) that
registers each under its full name, once per process, without importing
scipy.linalg or scipy.optimize; importing fraclap loads numpy, scipy's
top-level package and the LAPACK wrapper only.
"""

from fraclap.certify import (
    EqualPairMass,
    PlateauMeasure,
    SignField,
    VerifyReport,
    build_certificate,
    equal_pair_mass,
    plateau_measure,
    verify_certificate,
)
from fraclap.constants import (
    QuadratureError,
    SharpConstants,
    ball_cheeger,
    ball_perimeter,
    c_constant,
    calibrable_radius,
    sharp_constants,
    sobolev_constant,
)
from fraclap.domain_grid import (
    DomainSpec,
    Grid,
    KernelSet,
    build_grid,
    build_kernel,
    kernel_exponent,
)
from fraclap.energy import (
    EnergyBreakdown,
    LoadField,
    gradient,
    load_from_array,
    seminorm,
    seminorm_power,
    total_energy,
)
from fraclap.experiments import (
    RegimeVerdict,
    RunConfig,
    SweepRecord,
    SweepTable,
    classify,
    parse_config,
    read_config,
    run_sweep,
    run_sweeps,
    write_csv,
    write_json,
)
from fraclap.geometry import (
    CheegerResult,
    brute_force_cheeger,
    coarea_decompose,
    coarea_identity_gap,
    perimeter,
    threshold_cheeger,
    weighted_volume,
)
from fraclap.solver import (
    Solution,
    SolveConfig,
    SolverError,
    kkt_residual,
    solve_p,
)

__version__ = "0.1.0"

__all__ = [
    "CheegerResult",
    "DomainSpec",
    "EnergyBreakdown",
    "EqualPairMass",
    "Grid",
    "KernelSet",
    "LoadField",
    "PlateauMeasure",
    "QuadratureError",
    "RegimeVerdict",
    "RunConfig",
    "SharpConstants",
    "SignField",
    "Solution",
    "SolveConfig",
    "SolverError",
    "SweepRecord",
    "SweepTable",
    "VerifyReport",
    "ball_cheeger",
    "ball_perimeter",
    "brute_force_cheeger",
    "build_certificate",
    "build_grid",
    "build_kernel",
    "c_constant",
    "calibrable_radius",
    "classify",
    "coarea_decompose",
    "coarea_identity_gap",
    "equal_pair_mass",
    "gradient",
    "kernel_exponent",
    "kkt_residual",
    "load_from_array",
    "parse_config",
    "perimeter",
    "plateau_measure",
    "read_config",
    "run_sweep",
    "run_sweeps",
    "seminorm",
    "seminorm_power",
    "sharp_constants",
    "sobolev_constant",
    "solve_p",
    "threshold_cheeger",
    "total_energy",
    "verify_certificate",
    "weighted_volume",
    "write_csv",
    "write_json",
    "__version__",
]
