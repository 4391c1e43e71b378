"""Quantum measurements on the generalized Bloch sphere.

States of an N-dimensional system map to real vectors in the unit ball of
R^(N^2 - 1); a projective measurement becomes an inscribed simplex whose
sub-region measures reproduce the Born probabilities exactly. This package
builds the representation, verifies the measure-ratio identity, and
simulates the collapse by uniformly sampling hidden interaction points.
"""

from .bloch import BlochVector, DensityMatrix, Ket, from_bloch, ket_to_density, to_bloch
from .collapse import ProcessStage, ProcessTrace, reduce_state, run_measurement
from .errors import (
    BasisError,
    BlochSimError,
    ConfigError,
    ContractError,
    DimensionError,
    GeometryError,
    NormalizationError,
    OracleInconsistencyError,
)
from .sampler import (
    OracleReport,
    RngSeed,
    TrialReport,
    classify,
    geometric_hit_count_oracle,
    measure_degenerate,
    measure_once,
    run_trials,
    sample_lambda,
    validate_partition,
)
from .simplex import (
    Barycentric,
    MeasurementBasis,
    MeasurementSimplex,
    barycentric_of,
    basis_to_simplex,
    born_probabilities,
    project_onto_simplex,
    subregion_ratios,
)

__version__ = "0.1.0"

__all__ = [
    "Barycentric",
    "BasisError",
    "BlochSimError",
    "BlochVector",
    "ConfigError",
    "ContractError",
    "DensityMatrix",
    "DimensionError",
    "GeometryError",
    "Ket",
    "MeasurementBasis",
    "MeasurementSimplex",
    "NormalizationError",
    "OracleInconsistencyError",
    "OracleReport",
    "ProcessStage",
    "ProcessTrace",
    "RngSeed",
    "TrialReport",
    "barycentric_of",
    "basis_to_simplex",
    "born_probabilities",
    "classify",
    "from_bloch",
    "geometric_hit_count_oracle",
    "ket_to_density",
    "measure_degenerate",
    "measure_once",
    "project_onto_simplex",
    "reduce_state",
    "run_measurement",
    "run_trials",
    "sample_lambda",
    "subregion_ratios",
    "to_bloch",
    "validate_partition",
]
