"""Euler class and d3-invariant of the contact structure of a diagram.

The d3-invariant is a homotopy invariant of tangential 2-plane fields with
torsion Euler class.  For a diagram with coefficients s_i/m_i it has a
closed form in terms of any rational solution b of Q*b = rot:

    d3 = 1/4 * sum_i (m_i b_i rot_i + (3 - m_i) s_i) - 3/4 sigma(Q) - 1/2

This is the only d3 formula here.  With every m_i = 1 it is the classical
formula of Ding, Geiges and Stipsicz, 1/4 * (<b, rot> - 3 sigma(Q) - 2k)
- 1/2 + q with q the number of +1 coefficients.  The closed form never
expands (sigma(Q) comes from diag(m)*Q).  The `d3` report solves Q*b = rot
once: its closed form reuses the b of the report's euler_class.  The
central correctness check of this package evaluates the closed form again
on the +-1 expansion, where it is the classical formula.  That check is
independent only when some m_i > 1: a +-1 diagram expands to itself, so
both values come from the same Q, b and sigma.

Non-torsion Euler class makes d3 undefined; that is a legitimate outcome
and is reported as None, not raised.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .diagrams import SurgeryDiagram
from .exactlin import Matrix, solve_rational
from .surgery import diagram_signature, expand_to_pm1, linking_matrix


class EulerClassVector(NamedTuple):
    """Poincare dual of the Euler class in the meridian basis.

    `coefficients` lists m_i * rot_i; the class is torsion iff Q*b = rot
    has a rational solution, and `b` records the particular solution used
    (any two choices give the same d3, but the report pins one for
    reproducibility).
    """

    coefficients: tuple[int, ...]
    torsion: bool
    b: Optional[tuple[Fraction, ...]]


def euler_class(diagram: SurgeryDiagram, form: Optional[Matrix] = None) -> EulerClassVector:
    """Euler class vector of the surgered contact structure.  `form` is the
    exactlin.hermite_form of the diagram's linking matrix when the caller
    already has it."""
    q = linking_matrix(diagram)
    rot = [c.rot for c in diagram.components]
    solved = solve_rational(q.entries, rot, form)
    coefficients = tuple(m * r for m, r in zip(q.magnitudes, rot))
    if solved is None:
        return EulerClassVector(coefficients, False, None)
    return EulerClassVector(coefficients, True, solved[0])


def d3_closed_form(diagram: SurgeryDiagram,
                   ec: Optional[EulerClassVector] = None) -> Optional[Fraction]:
    """d3 of the diagram's contact structure, or None when the Euler class
    is not torsion.  `ec` is the diagram's euler_class when the caller
    already has it; otherwise it is computed here."""
    if ec is None:
        ec = euler_class(diagram)
    if not ec.torsion:
        return None
    total = Fraction(0)
    for c, b in zip(diagram.components, ec.b):
        m, s = c.coeff.magnitude, c.coeff.sign
        total += m * b * c.rot + (3 - m) * s
    return total / 4 - Fraction(3, 4) * diagram_signature(diagram) - Fraction(1, 2)


def d3_via_expansion(diagram: SurgeryDiagram) -> Optional[Fraction]:
    """d3 by the closed form on the diagram's +-1 expansion, where it is
    the classical +-1 formula.

    Raises ValueError when the expansion would have more than
    surgery.EXPANSION_LIMIT components.
    """
    return d3_closed_form(expand_to_pm1(diagram))
