"""Exact trace equivalence of weighted automata with zig-zag witnesses."""

from .formats import ParseError
from .linalg import Mat, Lattice, rref, kernel_basis, solve, hnf, closure_under_maps
from .automata import (SemiringTag, LinearCoalgebra, WeightedAutomaton, Trace,
                       NotEquivalent, step, trace, pair_submodule, equivalent,
                       parse_automaton, automaton_to_text)
from .hilbert import IntConeSpec, hilbert_basis, nat_restriction
from .polyhedra import (HRep, VRep, PcaPolytope, INFINITY, InternalError, dd_h_to_v,
                        dd_v_to_h, gauge, cone_restriction, simplex_restriction)
from .pca import (GhatElement, PyramidCert, InvariantZeroSet,
                  ghat_member, is_ghat_coalgebra, pyramid_extension,
                  reduce_invariant_set, ghat_apply)
from .zigzag import (ZigZag, ZigZagNode, cubic_zigzag, ghat_zigzag, verify_zigzag,
                     parse_zigzag, zigzag_to_text)

__all__ = [
    "ParseError",
    "Mat", "Lattice", "rref", "kernel_basis", "solve", "hnf",
    "closure_under_maps",
    "SemiringTag", "LinearCoalgebra", "WeightedAutomaton", "Trace", "NotEquivalent",
    "step", "trace", "pair_submodule", "equivalent",
    "parse_automaton", "automaton_to_text",
    "IntConeSpec", "hilbert_basis", "nat_restriction",
    "HRep", "VRep", "PcaPolytope", "INFINITY", "InternalError", "dd_h_to_v", "dd_v_to_h",
    "gauge", "cone_restriction", "simplex_restriction",
    "GhatElement", "PyramidCert", "InvariantZeroSet",
    "ghat_member", "is_ghat_coalgebra", "pyramid_extension", "reduce_invariant_set",
    "ghat_apply",
    "ZigZag", "ZigZagNode", "cubic_zigzag", "ghat_zigzag", "verify_zigzag",
    "parse_zigzag", "zigzag_to_text",
]
