"""Cyclic representations at roots of unity with quantum Hall bookkeeping.

The exported names are loaded on first use (PEP 562): `hallrep.X` or
`from hallrep import X` imports only the submodule that defines X, so
`import hallrep` and the integer continued fractions of `hallrep.hierarchy`
never import numpy.  `dir(hallrep)` and `from hallrep import *` list every
exported name; a submodule is imported as usual (`from hallrep import cli`).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": (
        "PrimitiveRoot",
        "RelationReport",
        "default_tolerance",
        "frobenius",
        "q_number",
        "verify_relations",
    ),
    "cyclic": (
        "CyclicRep",
        "CyclicityReport",
        "InfeasibleBaseError",
        "IntertwinerResult",
        "build_ladder",
        "cyclicity_check",
        "generic_from_coefficients",
        "generic_infimum_base",
        "intertwiner",
        "ladder_from_coefficients",
        "rep_from_json",
        "solve_generic_coefficients",
        "solve_ladder_magnitudes",
        "three_block_residual",
    ),
    "hierarchy": (
        "BlokWenSeq",
        "DecompositionError",
        "FillingFactor",
        "PositiveCF",
        "StandardCF",
        "basis_index",
        "blok_wen_sequence",
        "decompose",
        "eval_positive_cf",
        "eval_standard_cf",
        "family",
        "family_partition_sum",
    ),
    "wavefunctions": (
        "GramMatrix",
        "HierarchyR1Spec",
        "InnerProductResult",
        "LaughlinSpec",
        "gram_matrix",
        "hierarchy_r1_eval",
        "inner_product_exact",
        "inner_product_mc",
        "jastrow_monomials",
        "laughlin_eval",
        "spec_from_json",
        "spec_to_json",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()).union(__all__))
