"""Classical invariants of companion knots in the surgered manifold.

A companion knot K with linking vector l is rationally nullhomologous of
order d iff Q*a = d*l has an integral solution a with d minimal.  Writing
q_i for the coefficient magnitudes, the invariants in the surgered
manifold are

    tb_M  = tb  - (1/d) * sum_j a_j q_j l_j
    rot_M = rot - (1/d) * sum_i a_i q_i rot_i
    sl_M  = sl  - (1/d) * sum_i a_i q_i (l_i -+ rot_i)

with the upper sign for positively transverse knots.  For d = 1 these are
the integral invariants; a single code path handles both cases.

tb_M never depends on the choice of a.  rot_M (and sl_M) may: adding a
kernel vector v of Q to a shifts rot_M by -(1/d) sum v_i q_i rot_i, so the
report enumerates that shift for every kernel generator instead of
silently fixing a relative homology class.  The a it prints is the one
`minimal_order_solve` returns, reduced modulo the Hermite kernel basis of
Q, so the printed rot_M and sl_M depend on the diagram and the knot alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .diagrams import CompanionKnot, SurgeryDiagram
from .exactlin import SolveResult, minimal_order_solve
from .surgery import linking_matrix


def order_and_solution(diagram: SurgeryDiagram, knot: CompanionKnot) -> Optional[SolveResult]:
    """Minimal order d and solution a of Q*a = d*l, or None when the knot
    is not rationally nullhomologous."""
    if len(knot.lk) != diagram.k:
        raise ValueError(f"{knot.name}: lk vector has length {len(knot.lk)}, expected {diagram.k}")
    return minimal_order_solve(linking_matrix(diagram).form, knot.lk)


def _weighted_sum(diagram: SurgeryDiagram, solution: SolveResult, weights) -> Fraction:
    total = sum(a * c.coeff.magnitude * w
                for a, c, w in zip(solution.particular, diagram.components, weights))
    return Fraction(total, solution.order)


def tb_surgered(diagram: SurgeryDiagram, knot: CompanionKnot,
                solution: SolveResult) -> Fraction:
    """tb of a Legendrian companion in the surgered manifold (rational when
    the order exceeds 1).  Independent of the choice of solution."""
    if not knot.is_legendrian:
        raise ValueError(f"{knot.name}: tb is defined for Legendrian knots only")
    return knot.tb - _weighted_sum(diagram, solution, knot.lk)


RotShift = tuple[tuple[int, ...], Fraction]


def rot_shifts(diagram: SurgeryDiagram, solution: SolveResult) -> tuple[RotShift, ...]:
    """For each kernel generator v of Q, the quantity (1/d) sum v_i q_i rot_i.

    Replacing the solution a by a + v changes rot_M by the negative of this
    shift (and sl_M of a transverse knot by transverse_sign times it).
    """
    out = []
    for v in solution.kernel_basis:
        total = sum(vi * c.coeff.magnitude * c.rot for vi, c in zip(v, diagram.components))
        out.append((v, Fraction(total, solution.order)))
    return tuple(out)


def rot_surgered(diagram: SurgeryDiagram, knot: CompanionKnot,
                 solution: SolveResult) -> tuple[Fraction, tuple[RotShift, ...]]:
    """rot of a Legendrian companion in the surgered manifold, for the
    relative homology class selected by the given solution, together with
    the per-kernel-generator shifts describing its solution dependence."""
    if not knot.is_legendrian:
        raise ValueError(f"{knot.name}: rot is defined for Legendrian knots only")
    value = knot.rot - _weighted_sum(diagram, solution, [c.rot for c in diagram.components])
    return value, rot_shifts(diagram, solution)


def sl_surgered(diagram: SurgeryDiagram, knot: CompanionKnot,
                solution: SolveResult) -> Fraction:
    """Self-linking number of a transverse companion in the surgered
    manifold (for the class selected by the given solution)."""
    if not knot.is_transverse:
        raise ValueError(f"{knot.name}: sl is defined for transverse knots only")
    t = knot.transverse_sign
    weights = [li - t * c.rot for li, c in zip(knot.lk, diagram.components)]
    return knot.sl - _weighted_sum(diagram, solution, weights)


class InvariantReport(NamedTuple):
    """Invariants of one companion knot in the surgered manifold.

    `order` is None when the knot is not rationally nullhomologous, in
    which case every other computed field is None as well.  An empty
    `seifert_shifts` means the relative homology class is unique (Q is
    injective); otherwise each entry pairs a kernel generator with the
    rot shift it induces, and `rot` is a coset representative.
    """

    knot: str
    kind: str
    order: Optional[int]
    solution: Optional[tuple[int, ...]]
    tb: Optional[Fraction]
    rot: Optional[Fraction]
    sl: Optional[Fraction]
    seifert_shifts: tuple[RotShift, ...]

    @property
    def unique_class(self) -> bool:
        return not self.seifert_shifts


def invariant_report(diagram: SurgeryDiagram, name: str) -> InvariantReport:
    """Full invariant report for the named companion knot."""
    knot = diagram.knot(name)
    solution = order_and_solution(diagram, knot)
    if solution is None:
        return InvariantReport(knot.name, knot.kind, None, None, None, None, None, ())
    if knot.is_legendrian:
        rot, shifts = rot_surgered(diagram, knot, solution)
        return InvariantReport(
            knot.name, knot.kind, solution.order, solution.particular,
            tb_surgered(diagram, knot, solution), rot, None, shifts)
    return InvariantReport(
        knot.name, knot.kind, solution.order, solution.particular,
        None, None, sl_surgered(diagram, knot, solution),
        rot_shifts(diagram, solution))
