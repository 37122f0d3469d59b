"""Fermionic communication channels between an inertial sender and an accelerated receiver.

The package builds the shared quantum, classical, and Werner channel states
beyond the single-mode approximation, reduces them to either Rindler wedge,
and evaluates mutual information, conditional entropy, and the
strong-additivity combination over parameter sweeps.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    LayoutError,
    NormalizationError,
    ShapeError,
    SpectrumError,
    SweepPointError,
    SymmetryError,
    UnruhLabError,
)
from .fock import (
    DensityMatrix,
    StateVector,
    Subsystem,
    SubsystemLayout,
    eigvals_hermitian,
    outer_product,
    partial_trace,
)
from .measures import entropy_from_eigenvalues, von_neumann_entropy
from .output import CSV_COLUMNS, OutputFormat, render_csv, write_figure_set
from .states import (
    BELL_ALPHA,
    GAMMA_MAX,
    INERTIAL_LAYOUT,
    JOINT_LAYOUT,
    RINDLER_LAYOUT,
    AccelerationParams,
    BobRegion,
    ChannelFamily,
    ChannelSpec,
    Encoding,
    build_inertial,
    build_joint,
    gamma_from_acceleration,
    unruh_antiparticle,
    unruh_particle,
    unruh_vacuum,
)
from .sweep import (
    FigurePreset,
    Measure,
    SweepRecord,
    SweepSpec,
    default_gamma_grid,
    evaluate_point,
    figure_preset,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AccelerationParams",
    "BELL_ALPHA",
    "BobRegion",
    "CSV_COLUMNS",
    "ChannelFamily",
    "ChannelSpec",
    "ConvergenceError",
    "DensityMatrix",
    "DomainError",
    "Encoding",
    "FigurePreset",
    "GAMMA_MAX",
    "INERTIAL_LAYOUT",
    "JOINT_LAYOUT",
    "LayoutError",
    "Measure",
    "NormalizationError",
    "OutputFormat",
    "RINDLER_LAYOUT",
    "ShapeError",
    "SpectrumError",
    "StateVector",
    "Subsystem",
    "SubsystemLayout",
    "SweepPointError",
    "SweepRecord",
    "SweepSpec",
    "SymmetryError",
    "UnruhLabError",
    "build_inertial",
    "build_joint",
    "default_gamma_grid",
    "eigvals_hermitian",
    "entropy_from_eigenvalues",
    "evaluate_point",
    "figure_preset",
    "gamma_from_acceleration",
    "outer_product",
    "partial_trace",
    "render_csv",
    "run_sweep",
    "unruh_antiparticle",
    "unruh_particle",
    "unruh_vacuum",
    "von_neumann_entropy",
    "write_figure_set",
]
