"""Euler class and d3-invariant of the contact structure of a diagram.

The d3-invariant is a homotopy invariant of tangential 2-plane fields with
torsion Euler class.  For a diagram with coefficients s_i/m_i it has a
closed form in terms of any rational solution b of Q*b = rot:

    d3 = 1/4 * sum_i (m_i b_i rot_i + (3 - m_i) s_i) - 3/4 sigma(Q) - 1/2

This is the only d3 formula here.  With every m_i = 1 it is the classical
formula of Ding, Geiges and Stipsicz, 1/4 * (<b, rot> - 3 sigma(Q) - 2k)
- 1/2 + q with q the number of +1 coefficients.  The closed form never
expands (sigma(Q) comes from diag(m)*Q).  `d3_report` reads the Euler
class, b, d3 and H_1 off one presentation of the diagram: one linking
matrix, one echelon form, one solve, one signature and one Smith
diagonal; b = a / d for the solution of Q*a = d*rot by `minimal_order_solve`.

Non-torsion Euler class makes d3 undefined; that is a legitimate outcome
and is reported as None, not raised.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from . import exactlin, surgery
from .diagrams import SurgeryDiagram
from .surgery import HomologyPresentation


class D3Report(NamedTuple):
    """The Euler class, d3 and H_1 of the surgered contact structure.

    `coefficients` lists m_i * rot_i, the Poincare dual of the Euler class in
    H_1 = Z^k / Q^T Z^k on push-off meridians x_i, mu_i = m_i x_i (on the
    meridians mu_i, H_1 = Z^k / Q Z^k and the dual is rot).  The class is
    torsion iff Q*b = rot has a rational solution; `b` is then a / d for the
    solution (d, a) of Q*a = d*rot that `minimal_order_solve` prints, reduced
    modulo the Hermite kernel basis, so it depends on (Q, rot) alone (any
    choice gives the same d3).  Otherwise `b` is None, as is `d3`.
    """

    coefficients: tuple[int, ...]
    b: Optional[tuple[Fraction, ...]]
    d3: Optional[Fraction]
    homology: HomologyPresentation

    @property
    def torsion(self) -> bool:
        return self.b is not None


def d3_report(diagram: SurgeryDiagram) -> D3Report:
    """Euler class, d3 by the closed form, and H_1 of the diagram."""
    q = surgery.linking_matrix(diagram)
    rot = [c.rot for c in diagram.components]
    solved = exactlin.minimal_order_solve(q.form, rot)
    coefficients = tuple(m * r for m, r in zip(q.magnitudes, rot))
    b = d3 = None
    if solved is not None:
        b = tuple(Fraction(x, solved.order) for x in solved.particular)
        total = sum((m * x * c.rot + (3 - m) * c.coeff.sign
                     for c, m, x in zip(diagram.components, q.magnitudes, b)), Fraction(0))
        d3 = total / 4 - Fraction(3, 4) * surgery.diagram_signature(q) - Fraction(1, 2)
    return D3Report(coefficients, b, d3, surgery.homology(q))
