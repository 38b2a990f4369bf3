"""Cubed ladder operators on the harmonic oscillator.

The third powers of the standard ladder operators split the Fock space
into three invariant ladders. This package builds and verifies that
operator algebra, generates the associated closed-form Painleve IV
solutions, and constructs the three deformed coherent-state families
together with their statistics, triangle decompositions and space-time
densities.
"""

__version__ = "0.1.0"

from .coherent import (
    CoherentSpec,
    CSStatistics,
    LabelRangeError,
    TriangleDecomposition,
    TruncationError,
    a_norm_squared,
    adequate_truncation,
    build_cs,
    eigen_residual,
    evolve,
    moment_check,
    standard_cs_nonnorm,
    statistics,
    triangle_decompose,
)
from .fock import (
    FockOperator,
    FockVector,
    LadderIndex,
    build_annihilation,
    build_deformed_ladders,
    build_hamiltonian,
    commutator,
    ladder_state,
    number_analogue,
    spectrum_decomposition,
)
from .grid import GridSpec
from .painleve import (
    ExtremalSeed,
    PIVSolution,
    builtin_solutions,
    piv_parameters,
    piv_residual,
    residual_scan,
    solution_from_extremal,
)
from .wavepacket import (
    DensityField,
    density_fock,
    density_gaussian,
    hermite_function,
    period_check,
    rho_fock,
    rho_gaussian,
)

__all__ = [
    "__version__",
    "CoherentSpec",
    "CSStatistics",
    "LabelRangeError",
    "TriangleDecomposition",
    "TruncationError",
    "a_norm_squared",
    "adequate_truncation",
    "build_cs",
    "eigen_residual",
    "evolve",
    "moment_check",
    "standard_cs_nonnorm",
    "statistics",
    "triangle_decompose",
    "FockOperator",
    "FockVector",
    "LadderIndex",
    "build_annihilation",
    "build_deformed_ladders",
    "build_hamiltonian",
    "commutator",
    "ladder_state",
    "number_analogue",
    "spectrum_decomposition",
    "GridSpec",
    "ExtremalSeed",
    "PIVSolution",
    "builtin_solutions",
    "piv_parameters",
    "piv_residual",
    "residual_scan",
    "solution_from_extremal",
    "DensityField",
    "density_fock",
    "density_gaussian",
    "hermite_function",
    "period_check",
    "rho_fock",
    "rho_gaussian",
]
