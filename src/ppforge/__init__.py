"""Permutation trinomials over F_{q^2} built from coset-monomial permutations
of the (q+1)-th roots of unity, with exhaustive desk-scale oracles."""

from .errors import (
    BadCongruence,
    DivisionByZero,
    FieldMismatch,
    HypothesesNotSatisfied,
    NegativeExponent,
    NotADivisor,
    NotInMu,
    NotPrime,
    PartitionNotDisjoint,
    PPForgeError,
    SizeExceeded,
)
from .families import (
    FamilyParams,
    HypothesisReport,
    build_f,
    build_h,
    corollary_negative,
    derived_exponents,
    gcd_criterion,
    lemma_d4_identity,
    lemma_u_identity,
    lemma_v_identity,
    predicate,
    valid_c_values,
    validate,
)
from .ffcore import Element, FieldSpec, build_field, field_from_text, field_to_text
from .oracle import (
    PermutationReport,
    evaluate,
    evaluate_on_field,
    is_permutation_of_field,
    is_permutation_of_mu,
    permutes,
    pointwise_equal,
)
from .sparsepoly import SparsePoly
from .unity import (
    CosetPartition,
    MonomialPiece,
    MuContext,
    agw_check,
    coset_index,
    make_mu,
    make_partition,
    materialize_omega_monomial,
    omega_monomial_check,
    piecewise_check,
)

__version__ = "0.1.0"
