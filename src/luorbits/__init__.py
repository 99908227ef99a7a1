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
    canonical_matrix,
    canonicalize,
    fermion_pair_matrix,
    reconstruct,
    svd_congruence,
    takagi,
    youla_antisymmetric,
)
from .equivalence import EquivalenceVerdict, lu_equivalent, same_stratum
from .errors import (
    CaseMismatch,
    ConvergenceFailure,
    DimensionMismatch,
    InvalidStratum,
    LuorbitsError,
    NonSquareInput,
    NotAntiHermitian,
    ParseError,
    SymmetryViolation,
    UnsortedInput,
    ValidationError,
    ZeroState,
)
from .moment import (
    MomentImage,
    polytope_membership,
    reduced_matrix,
)
from .oracle import (
    OracleReport,
    algebra_basis,
    counterexample_demo,
    oracle_check,
    three_tangle,
)
from .states import (
    LocalUnitary,
    ParticleCase,
    QuantumState,
    apply_algebra_action,
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
    multiplicity_vector,
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
    "NotAntiHermitian",
    "OracleReport",
    "OrbitInvariants",
    "ParseError",
    "ParticleCase",
    "QuantumState",
    "SymmetryViolation",
    "UnsortedInput",
    "ValidationError",
    "ZeroState",
    "algebra_basis",
    "apply_algebra_action",
    "apply_group_action",
    "canonical_matrix",
    "canonicalize",
    "counterexample_demo",
    "enumerate_strata",
    "fermion_pair_matrix",
    "fiber_structure",
    "flag_dimension",
    "lu_equivalent",
    "multiplicity_vector",
    "oracle_check",
    "orbit_invariants",
    "polytope_membership",
    "random_local_unitary",
    "random_state",
    "reconstruct",
    "reduced_matrix",
    "representative_state",
    "same_stratum",
    "state_from_dict",
    "state_to_dict",
    "svd_congruence",
    "takagi",
    "three_tangle",
    "validate",
    "youla_antisymmetric",
]

__version__ = "0.1.0"
