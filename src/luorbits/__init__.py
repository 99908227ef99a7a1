"""Local-unitary classification of two-particle pure states.

States of two bosons, two fermions, or two distinguishable particles are
represented by complex N x N coefficient matrices.  The package computes
moment-map spectra, canonical slice representatives, orbit and moment-fiber
dimensions, decides local-unitary equivalence with explicit witnesses, and
cross-checks every closed-form dimension against a numerical symplectic
oracle.
"""

from .canonical import (
    CanonicalForm,
    canonicalize,
    fermion_pair_matrix,
    reconstruct,
    svd_congruence,
    takagi,
    youla_antisymmetric,
)
from .equivalence import EquivalenceVerdict, lu_equivalent
from .errors import (
    CaseMismatch,
    ConvergenceFailure,
    DimensionMismatch,
    InvalidStratum,
    LuorbitsError,
    NonSquareInput,
    ParseError,
    SymmetryViolation,
    UnsortedInput,
    ValidationError,
    ZeroState,
)
from .moment import MomentImage, reduced_matrix
from .oracle import (
    OracleReport,
    counterexample_demo,
    oracle_check,
    three_tangle,
)
from .states import (
    LocalUnitary,
    ParticleCase,
    QuantumState,
    apply_group_action,
    random_local_unitary,
    random_state,
    state_from_dict,
    state_to_dict,
    validate,
)
from .strata import (
    FiberFactor,
    MultiplicityVector,
    OrbitInvariants,
    enumerate_strata,
    fiber_structure,
    flag_dimension,
    orbit_invariants,
    representative_state,
)

__all__ = [
    "CanonicalForm",
    "CaseMismatch",
    "ConvergenceFailure",
    "DimensionMismatch",
    "EquivalenceVerdict",
    "FiberFactor",
    "InvalidStratum",
    "LocalUnitary",
    "LuorbitsError",
    "MomentImage",
    "MultiplicityVector",
    "NonSquareInput",
    "OracleReport",
    "OrbitInvariants",
    "ParseError",
    "ParticleCase",
    "QuantumState",
    "SymmetryViolation",
    "UnsortedInput",
    "ValidationError",
    "ZeroState",
    "apply_group_action",
    "canonicalize",
    "counterexample_demo",
    "enumerate_strata",
    "fermion_pair_matrix",
    "fiber_structure",
    "flag_dimension",
    "lu_equivalent",
    "oracle_check",
    "orbit_invariants",
    "random_local_unitary",
    "random_state",
    "reconstruct",
    "reduced_matrix",
    "representative_state",
    "state_from_dict",
    "state_to_dict",
    "svd_congruence",
    "takagi",
    "three_tangle",
    "validate",
    "youla_antisymmetric",
]

__version__ = "0.1.0"
