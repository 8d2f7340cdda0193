"""Fusion rings with nonnegative integer structure constants.

Construction and verification of based rings (unit, duality involution,
Frobenius reciprocity, associativity), Frobenius-Perron dimension data,
gradings and subring structure, a catalog of named rings and extension
families, and recognition of the small-index families built from the
rank 2 rings.
"""

from .ring import (
    AXIOM_ASSOCIATIVITY,
    AXIOM_DUAL,
    AXIOM_DUALITY,
    AXIOM_FROBENIUS,
    AXIOM_UNIT,
    AxiomViolation,
    FusionRing,
    RingElement,
    StructuralError,
    Subring,
    as_element,
    basis_element,
    closure,
    find_isomorphism,
    is_closed_subset,
    make_subring,
    multiply,
    verify_axioms,
)
from .numerics import (
    COS_TARGET,
    DIM_TOL,
    GOLDEN,
    ConvergenceError,
    FPData,
    TypeSignature,
    dimension_classes,
    fp_dimensions,
    recognize,
    solve_cos_equation,
    type_signature,
)
from .groups import (
    NAMED_GROUPS,
    FiniteGroup,
    GroupError,
    are_isomorphic,
    cyclic,
    dihedral,
    groups_of_order,
    named_group,
    product_of_cyclics,
    quaternion8,
    subgroups,
    symmetric3,
)
from .structure import (
    DimensionClass,
    Grading,
    PairingReport,
    adjoint_subring,
    all_subrings,
    commutator,
    even_rank_pairing,
    faithful_simples,
    invertibles,
    is_transitive_on_noninvertibles,
    nilpotency,
    pointed_part,
    stabilizer,
    universal_grading,
)
from .catalog import (
    deligne_product,
    enumerate_extensions,
    generalized_ty,
    ising,
    pointed,
    yang_lee,
    yl_extension,
)
from .classify import (
    Classification,
    ClaimReport,
    IsingDetection,
    classify,
    find_ising_subring,
    verify_claims,
)
from .ringfile import (
    RingFormatError,
    parse_ring,
    ring_from_document,
    ring_to_document,
    serialize_ring,
)

__version__ = "0.1.0"
