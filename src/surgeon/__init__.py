"""Classical invariants of knots and contact structures presented by
contact (+-1/n)-surgery diagrams, computed with exact arithmetic."""

from .d3 import EulerClassVector, d3_closed_form, d3_pm1, d3_via_expansion, euler_class
from .diagrams import (
    CompanionKnot,
    ContactCoefficient,
    Diagnostic,
    LegendrianComponent,
    SurgeryDiagram,
    topological_coefficient,
    validate,
)
from .exactlin import (
    SNFDecomposition,
    SolveResult,
    minimal_order_solve,
    smith_normal_form,
    solve_rational,
    symmetric_signature,
)
from .fronts import (
    FrontDocument,
    FrontError,
    FrontInvariants,
    classical_invariants,
    parse_front,
    to_diagram,
)
from .invariants import (
    InvariantReport,
    invariant_report,
    legendrian_pushoff_sl,
    order_and_solution,
    rot_surgered,
    sl_surgered,
    tb_surgered,
)
from .surgery import (
    GeneralizedLinkingMatrix,
    HomologyPresentation,
    diagram_signature,
    expand_to_pm1,
    homology,
    linking_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CompanionKnot",
    "ContactCoefficient",
    "Diagnostic",
    "EulerClassVector",
    "FrontDocument",
    "FrontError",
    "FrontInvariants",
    "GeneralizedLinkingMatrix",
    "HomologyPresentation",
    "InvariantReport",
    "LegendrianComponent",
    "SNFDecomposition",
    "SolveResult",
    "SurgeryDiagram",
    "classical_invariants",
    "d3_closed_form",
    "d3_pm1",
    "d3_via_expansion",
    "diagram_signature",
    "euler_class",
    "expand_to_pm1",
    "homology",
    "invariant_report",
    "legendrian_pushoff_sl",
    "linking_matrix",
    "minimal_order_solve",
    "order_and_solution",
    "parse_front",
    "rot_surgered",
    "sl_surgered",
    "smith_normal_form",
    "solve_rational",
    "symmetric_signature",
    "tb_surgered",
    "to_diagram",
    "topological_coefficient",
    "validate",
]
