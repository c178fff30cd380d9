"""Symbolic Kirby calculus and Seiberg-Witten basic-class bookkeeping.

Handle decompositions are stored as framed-link data (framings, linking
numbers, run-throughs); the package provides the standard moves, exact
integer homology via Smith normal form, combinatorial Legendrian fronts
with Thurston-Bennequin bookkeeping, and the blow-up / rational-blowdown /
knot-surgery transformations of Seiberg-Witten basic classes, together with
a registry of checked claims and a CLI.

`kirbycalc.homology` is the function `homology.homology`, bound over the
submodule of the same name; reach the module itself through
`importlib.import_module("kirbycalc.homology")`.
"""

from .handles import (
    HandleDecomposition,
    HandleError,
    blow_down,
    blow_up,
    boundary_sum,
    dot_zero_swap,
    handle_slide,
    rational_blowdown_splice,
)
from .hbd import DiagramDocument, HbdParseError, parse_hbd, print_hbd
from .homology import (
    HomologyProfile,
    IntMatrix,
    SmithNormalForm,
    boundary_first_homology,
    boundary_group_order,
    homology,
    is_homology_trivial,
    kernel_basis,
    smith_normal_form,
)
from .legendrian import (
    FrontDiagram,
    FrontError,
    SteinReport,
    component_count,
    parse_front,
    reverse_orientation,
    rotation_number,
    stein_check,
    thurston_bennequin,
    torus_knot_front,
    writhe,
)
from .swledger import (
    BasicClassSet,
    IntersectionLattice,
    LaurentPolynomial,
    LedgerError,
    ManifoldModel,
    adjunction_check,
    alexander_polynomial_torus,
    blow_up_basic_classes,
    d_invariant,
    is_simple_type,
    knot_surgery_basic_classes,
    min_genus_bound,
    rational_blowdown_descend,
)

__version__ = "0.1.0"

__all__ = [
    "HandleDecomposition", "HandleError", "handle_slide", "blow_up",
    "blow_down", "dot_zero_swap", "boundary_sum", "rational_blowdown_splice",
    "IntMatrix", "SmithNormalForm", "smith_normal_form", "kernel_basis",
    "HomologyProfile", "homology", "boundary_first_homology",
    "boundary_group_order", "is_homology_trivial",
    "FrontDiagram", "FrontError", "parse_front", "thurston_bennequin",
    "rotation_number", "writhe", "component_count", "reverse_orientation",
    "torus_knot_front",
    "SteinReport", "stein_check",
    "IntersectionLattice", "ManifoldModel", "BasicClassSet", "LedgerError",
    "d_invariant", "is_simple_type", "blow_up_basic_classes", "adjunction_check",
    "min_genus_bound", "rational_blowdown_descend",
    "LaurentPolynomial", "alexander_polynomial_torus",
    "knot_surgery_basic_classes",
    "DiagramDocument", "HbdParseError", "parse_hbd", "print_hbd",
]
