"""Classical invariants of companion knots in the surgered manifold.

A companion knot K with linking vector l is rationally nullhomologous of
order d iff Q*a = d*l has an integral solution a with d minimal.  Writing
q_i for the coefficient magnitudes, `invariant_report` gives the
invariants in the surgered manifold as

    tb_M  = tb  - dtb,   dtb  = (1/d) * sum_j a_j q_j l_j
    rot_M = rot - drot,  drot = (1/d) * sum_i a_i q_i rot_i
    sl_M  = sl  - dtb + t * drot

for a transverse knot of sign t: sl_M is tb_M - t * rot_M of a Legendrian
push-off, the paper's route to the sl formula.  Each correction is one
pairing (1/d) * sum_i x_i q_i w_i of a solution x with weights w.  For
d = 1 these are the integral invariants; one code path handles both.

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

from .diagrams import SurgeryDiagram
from .exactlin import minimal_order_solve
from .surgery import linking_matrix


class InvariantReport(NamedTuple):
    """Invariants of one companion knot in the surgered manifold.

    `order` is None when the knot is not rationally nullhomologous, in
    which case every other computed field is None as well.  An empty
    `seifert_shifts` means the relative homology class is unique (Q is
    injective); otherwise each entry pairs a kernel generator v with the
    shift (1/d) sum v_i q_i rot_i; replacing the solution a by a + v
    changes rot by minus that shift (and the sl of a transverse knot by
    its transverse sign times it), so `rot` is a coset representative.
    """

    knot: str
    kind: str
    order: Optional[int]
    solution: Optional[tuple[int, ...]]
    tb: Optional[Fraction]
    rot: Optional[Fraction]
    sl: Optional[Fraction]
    seifert_shifts: tuple[tuple[tuple[int, ...], Fraction], ...]

    @property
    def unique_class(self) -> bool:
        return not self.seifert_shifts


def invariant_report(diagram: SurgeryDiagram, name: str) -> InvariantReport:
    """Full invariant report for the named companion knot: tb and rot of a
    Legendrian knot, sl of a transverse one (see the module docstring).

    Raises KeyError for an unknown name and ValueError when the knot's lk
    vector does not have one entry per surgery component.
    """
    knot = diagram.knot(name)
    if len(knot.lk) != diagram.k:
        raise ValueError(f"{knot.name}: lk vector has length {len(knot.lk)}, expected {diagram.k}")
    q = linking_matrix(diagram)
    solved = minimal_order_solve(q.form, knot.lk)
    if solved is None:
        return InvariantReport(knot.name, knot.kind, None, None, None, None, None, ())

    def pairing(x, weights) -> Fraction:
        return Fraction(sum(xi * m * w for xi, m, w in zip(x, q.magnitudes, weights)), solved.order)

    a = solved.particular
    rots = [c.rot for c in diagram.components]
    shifts = tuple((v, pairing(v, rots)) for v in solved.kernel_basis)
    d_tb, d_rot = pairing(a, knot.lk), pairing(a, rots)
    if knot.is_legendrian:
        return InvariantReport(knot.name, knot.kind, solved.order, a,
                               knot.tb - d_tb, knot.rot - d_rot, None, shifts)
    sl = knot.sl - d_tb + knot.transverse_sign * d_rot
    return InvariantReport(knot.name, knot.kind, solved.order, a, None, None, sl, shifts)
