"""Exact trace equivalence of weighted automata with zig-zag witnesses."""

from .formats import ParseError
from .linalg import Mat, Lattice, scaled, rref, kernel_basis, solve, hnf, closure_under_maps
from .automata import (SemiringTag, LinearCoalgebra, WeightedAutomaton, Trace,
                       NotEquivalent, step, trace, pair_submodule, equivalent,
                       parse_automaton, automaton_to_text)
from .hilbert import hilbert_basis, nat_restriction
from .polyhedra import (HRep, VRep, PcaPolytope, INFINITY, InternalError, dd_h_to_v,
                        dd_v_to_h, gauge, cone_restriction, simplex_restriction)
from .pca import PyramidCert, InvariantZeroSet, pyramid_extension, reduce_invariant_set
from .zigzag import (ZigZag, ZigZagNode, cubic_zigzag, ghat_zigzag, verify_zigzag,
                     parse_zigzag, zigzag_to_text)

__all__ = [
    "ParseError",
    "Mat", "Lattice", "scaled", "rref", "kernel_basis", "solve", "hnf",
    "closure_under_maps",
    "SemiringTag", "LinearCoalgebra", "WeightedAutomaton", "Trace", "NotEquivalent",
    "step", "trace", "pair_submodule", "equivalent",
    "parse_automaton", "automaton_to_text",
    "hilbert_basis", "nat_restriction",
    "HRep", "VRep", "PcaPolytope", "INFINITY", "InternalError", "dd_h_to_v", "dd_v_to_h",
    "gauge", "cone_restriction", "simplex_restriction",
    "PyramidCert", "InvariantZeroSet", "pyramid_extension", "reduce_invariant_set",
    "ZigZag", "ZigZagNode", "cubic_zigzag", "ghat_zigzag", "verify_zigzag",
    "parse_zigzag", "zigzag_to_text",
]
