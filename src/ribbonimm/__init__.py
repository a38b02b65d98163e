"""Exact combinatorics of ribbon decomposition matrices.

Skew shapes cut along translated copies of an infinite ribbon give a
matrix of skew Schur functions whose determinant is the skew Schur
function of the whole shape.  This package computes that matrix, its
Temperley-Lieb and Kazhdan-Lusztig immanants, and several independent
combinatorial models for them (path covers, shuffle tableaux, crystal
operators), all over exact integer arithmetic.
"""

from .errors import (EmptySection, IncompatibleShape, NotSkew, RibbonError,
                     StrandTraceError, ValidityError)
from .shapes import (BELOW, LEFT, InfiniteRibbon, RibbonDecomposition,
                     SkewShape, decompose, ribbon_section_shape,
                     shape_from_tuples)
from .symfunc import (LRProducts, SchurExpansion, ShapeMatrix, SymPoly,
                      determinant, expand_schur, schur_poly, skew_schur)
from .tlalgebra import (NoncrossingMatching, enumerate_321_avoiding, imm_tl,
                        is_321_avoiding, perm_to_matching)
from .ribbonmat import (RibbonMatrix, build, check_determinant,
                        principal_minor, section_matrix)
from .network import build_network, covers_by_type, uncross_type
from .shuffle import (ShuffleDiagram, ShuffleTableau, crystal_E, crystal_F,
                      is_yamanouchi, reading_word, schur_expand_by_crystal,
                      tableaux_by_type, tl_type)
from .klbase import (KLTable, conjecture12_harness, imm_kl, kl_polynomials,
                     kl_polynomials_hecke)
from .corpus import sweep_corpus

__version__ = "0.1.0"

__all__ = [
    "BELOW", "LEFT", "EmptySection", "IncompatibleShape", "NotSkew",
    "RibbonError", "StrandTraceError", "ValidityError",
    "InfiniteRibbon", "RibbonDecomposition", "SkewShape", "decompose",
    "ribbon_section_shape", "shape_from_tuples",
    "LRProducts", "SchurExpansion", "ShapeMatrix", "SymPoly",
    "determinant", "expand_schur", "schur_poly", "skew_schur",
    "NoncrossingMatching", "enumerate_321_avoiding", "imm_tl",
    "is_321_avoiding", "perm_to_matching",
    "RibbonMatrix", "build", "check_determinant", "principal_minor",
    "section_matrix",
    "build_network", "covers_by_type", "uncross_type",
    "ShuffleDiagram", "ShuffleTableau", "crystal_E", "crystal_F",
    "is_yamanouchi", "reading_word", "schur_expand_by_crystal",
    "tableaux_by_type", "tl_type",
    "KLTable", "conjecture12_harness", "imm_kl", "kl_polynomials",
    "kl_polynomials_hecke",
    "sweep_corpus",
    "__version__",
]
