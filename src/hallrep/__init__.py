"""Cyclic representations at roots of unity with quantum Hall bookkeeping."""

__version__ = "0.1.0"

from .algebra import (
    PrimitiveRoot,
    RelationReport,
    default_tolerance,
    frobenius,
    matrix_from_json,
    matrix_to_json,
    primitive_root,
    q_number,
    q_number_by_division,
    verify_relations,
)
from .cyclic import (
    CyclicRep,
    CyclicityReport,
    GenericCyclicRep,
    InfeasibleBaseError,
    IntertwinerResult,
    LadderRep,
    MagnitudeSolution,
    build_ladder,
    cyclicity_check,
    generic_from_coefficients,
    generic_infimum_base,
    intertwiner,
    ladder_from_coefficients,
    ladder_infimum_base,
    rep_from_json,
    solve_generic_coefficients,
    solve_ladder_magnitudes,
    three_block_residual,
)
from .hierarchy import (
    BlokWenSeq,
    DecompositionError,
    FillingFactor,
    PositiveCF,
    StandardCF,
    basis_index,
    blok_wen_sequence,
    decompose,
    eval_positive_cf,
    eval_standard_cf,
    family,
    family_partition_sum,
)
from .wavefunctions import (
    GramMatrix,
    HierarchyR1Spec,
    InnerProductResult,
    LaughlinSpec,
    gram_matrix,
    hierarchy_r1_eval,
    inner_product_exact,
    inner_product_mc,
    jastrow_monomials,
    laughlin_eval,
    spec_from_json,
    spec_to_json,
)
