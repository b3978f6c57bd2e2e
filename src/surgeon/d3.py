"""Euler class and d3-invariant of the contact structure of a diagram.

The d3-invariant is a homotopy invariant of tangential 2-plane fields with
torsion Euler class.  For a diagram with coefficients s_i/m_i it has a
closed form in terms of any rational solution b of Q*b = rot:

    d3 = 1/4 * sum_i (m_i b_i rot_i + (3 - m_i) s_i) - 3/4 sigma(Q) - 1/2

and for +-1 coefficients it reduces to the classical

    d3 = 1/4 * (<b, rot> - 3 sigma(Q) - 2k) - 1/2 + q

with q the number of +1 coefficients.  Both are implemented; agreeing on
every diagram (closed form versus the +-1 formula on the expanded diagram)
is the central correctness check of this package.  The closed form never
expands (sigma(Q) comes from diag(m)*Q).  The check is independent only when
some m_i > 1: a +-1 diagram expands to itself, so both values then come
from the same Q, b and sigma.

Non-torsion Euler class makes d3 undefined; that is a legitimate outcome
and is reported as None, not raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .diagrams import SurgeryDiagram
from .exactlin import solve_rational
from .surgery import diagram_signature, expand_to_pm1, linking_matrix


@dataclass(frozen=True)
class EulerClassVector:
    """Poincare dual of the Euler class in the meridian basis.

    `coefficients` lists m_i * rot_i; the class is torsion iff Q*b = rot
    has a rational solution, and `b` records the particular solution used
    (any two choices give the same d3, but the report pins one for
    reproducibility).
    """

    coefficients: tuple[int, ...]
    torsion: bool
    b: Optional[tuple[Fraction, ...]]


def euler_class(diagram: SurgeryDiagram) -> EulerClassVector:
    """Euler class vector of the surgered contact structure."""
    q = linking_matrix(diagram)
    rot = [c.rot for c in diagram.components]
    solved = solve_rational(q.entries, rot)
    coefficients = tuple(m * r for m, r in zip(q.magnitudes, rot))
    if solved is None:
        return EulerClassVector(coefficients, False, None)
    return EulerClassVector(coefficients, True, solved[0])


def d3_closed_form(diagram: SurgeryDiagram) -> Optional[Fraction]:
    """d3 of the diagram's contact structure, or None when the Euler class
    is not torsion."""
    ec = euler_class(diagram)
    if not ec.torsion:
        return None
    total = Fraction(0)
    for c, b in zip(diagram.components, ec.b):
        m, s = c.coeff.magnitude, c.coeff.sign
        total += m * b * c.rot + (3 - m) * s
    return total / 4 - Fraction(3, 4) * diagram_signature(diagram) - Fraction(1, 2)


def d3_pm1(diagram: SurgeryDiagram) -> Optional[Fraction]:
    """d3 computed by the formula for +-1 coefficient diagrams.

    Rejects diagrams with any coefficient magnitude above 1; expand first.
    """
    if any(c.coeff.magnitude != 1 for c in diagram.components):
        raise ValueError("d3_pm1 requires all coefficients to be +1 or -1; expand the diagram first")
    ec = euler_class(diagram)
    if not ec.torsion:
        return None
    positives = sum(1 for c in diagram.components if c.coeff.sign > 0)
    pairing = sum(b * c.rot for b, c in zip(ec.b, diagram.components))
    return (Fraction(1, 4) * (pairing - 3 * diagram_signature(diagram) - 2 * diagram.k)
            - Fraction(1, 2) + positives)


def d3_via_expansion(diagram: SurgeryDiagram) -> Optional[Fraction]:
    """d3 computed by expanding to a +-1 diagram first."""
    return d3_pm1(expand_to_pm1(diagram))
