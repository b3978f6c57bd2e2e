"""Surgery presentations: generalized linking matrix, homology, expansion.

The generalized linking matrix of a diagram has the topological surgery
slopes p_i on the diagonal and q_j * lk(L_i, L_j) off it, written in the
meridian basis.  It presents the first homology of the surgered manifold.
`linking_matrix` builds a diagram's one presentation: Q, one fraction-free
sweep of S = diag(m)*Q, whose record exactlin.sweep_solve replays on each
right-hand side, and, only when det Q = 0, the echelon form of [Q^T | I]
for the kernel basis.  Every solve, H_1 and the signature read it.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple, Optional, Sequence

from . import diagrams, exactlin
from .diagrams import ContactCoefficient, LegendrianComponent, SurgeryDiagram
from .exactlin import Matrix, SolveResult, Sweep

# Largest number of components `expand_to_pm1` builds, i.e. the largest sum
# of the coefficient magnitudes m it expands.  The expanded linking matrix
# is dense, and the d3 cross-check on it costs about eight times more per
# doubling of Sum(m); the closed forms never expand.
EXPANSION_LIMIT = 128


class GeneralizedLinkingMatrix(NamedTuple):
    """Square integer matrix Q with row/column i attached to the meridian
    of the i-th surgery component, and its one presentation.

    `magnitudes` are the coefficient magnitudes m_i.  Q itself is symmetric
    only when all of them are 1, but S = diag(m_1, ..., m_k) * Q always is.
    `sweep` is exactlin.symmetric_signature of S.  It gives sigma(Q) =
    sigma(S), det S = prod(m) * det Q and, when det Q != 0, the solve of
    Q*a = d*v for any v, as S*a = d*diag(m)*v has the same solutions.
    `form`, the exactlin.echelon_form of Q with its Hermite kernel basis, is
    built only when det Q = 0, and is None otherwise.
    """

    entries: Matrix
    magnitudes: tuple[int, ...]
    sweep: Sweep
    form: Optional[Matrix]

    @property
    def k(self) -> int:
        return len(self.entries)


def linking_matrix(diagram: SurgeryDiagram) -> GeneralizedLinkingMatrix:
    """Build the generalized linking matrix of a diagram and its presentation."""
    slopes = [diagrams.topological_coefficient(c) for c in diagram.components]
    magnitudes = tuple(q for _, q in slopes)
    rows = [[m * x for m, x in zip(magnitudes, row)] for row in diagram.linking]
    for i, (p, _) in enumerate(slopes):
        rows[i][i] = p
    entries = tuple(map(tuple, rows))
    sweep = exactlin.symmetric_signature([[m * x for x in row] for m, row in zip(magnitudes, rows)])
    form = None if sweep.det else exactlin.echelon_form(entries)
    return GeneralizedLinkingMatrix(entries, magnitudes, sweep, form)


def solve(q: GeneralizedLinkingMatrix, vector: Sequence[int]) -> Optional[SolveResult]:
    """The minimal-order solve of Q*a = d*v (exactlin.SolveResult), or None
    when v has no rational preimage.  When det Q != 0 the sweep solves
    S*a = d*diag(m)*v; otherwise minimal_order_solve substitutes v into Q's
    echelon form."""
    if q.form is None:
        return exactlin.sweep_solve(q.sweep, [m * x for m, x in zip(q.magnitudes, vector, strict=True)])
    return exactlin.minimal_order_solve(q.form, vector)


class HomologyPresentation(NamedTuple):
    """First homology of the surgered manifold: torsion invariant factors
    (each > 1, each dividing the next) and the free rank."""

    invariant_factors: tuple[int, ...]
    free_rank: int


def homology(q: GeneralizedLinkingMatrix) -> HomologyPresentation:
    """H_1 = Z^k / (rows of Q), by exactlin.torsion_factors modulo a multiple
    P of its torsion exponent: |det Q| = |det S| / prod(m) when det Q != 0,
    else the product of the form's image pivots, which the product of the
    invariant factors, the gcd of the rank-size minors, divides.  Its last
    k - rank factors, each P, are the free summands."""
    if q.form is None:
        modulus, rank = abs(q.sweep.det) // prod(q.magnitudes), q.k
    else:
        pivots = [next(filter(None, r[:q.k])) for r in q.form if any(r[:q.k])]
        modulus, rank = prod(pivots), len(pivots)
    factors = exactlin.torsion_factors(q.entries, modulus)
    return HomologyPresentation(factors[:rank - q.k or None], q.k - rank)


def expand_to_pm1(diagram: SurgeryDiagram) -> SurgeryDiagram:
    """Replace every 1/m coefficient by m push-off copies with coefficient 1.

    Each component with coefficient s/m becomes m parallel copies carrying
    the same tb and rot and coefficient s/1.  Copies a != b of one origin
    component link with its tb (push-offs of a Legendrian knot realize its
    contact framing), other copies as their origins do, and a companion's
    lk entry for copy a is its entry for the origin of a.

    Diagrams that already carry only +-1 coefficients are returned
    unchanged; otherwise copy j of component X is renamed "X.j".  Raises
    ValueError, naming the limit, when the expansion would have more than
    EXPANSION_LIMIT components.
    """
    if all(c.coeff.magnitude == 1 for c in diagram.components):
        return diagram
    size = sum(c.coeff.magnitude for c in diagram.components)
    if size > EXPANSION_LIMIT:
        raise ValueError(f"the expansion would have {size} components, more than the limit of "
                         f"{EXPANSION_LIMIT}")

    components: list[LegendrianComponent] = []
    origin: list[int] = []  # index of the original component per copy
    for i, c in enumerate(diagram.components):
        for j in range(c.coeff.magnitude):
            components.append(LegendrianComponent(
                f"{c.name}.{j + 1}", c.tb, c.rot, ContactCoefficient(c.coeff.sign, 1)))
            origin.append(i)

    linking = tuple(
        tuple(0 if a == b else diagram.components[i].tb if i == j else diagram.linking[i][j]
              for b, j in enumerate(origin))
        for a, i in enumerate(origin))
    knots = tuple(w._replace(lk=tuple(w.lk[i] for i in origin)) for w in diagram.knots)
    return SurgeryDiagram(tuple(components), linking, knots)


def diagram_signature(q: GeneralizedLinkingMatrix) -> int:
    """Signature of the generalized linking matrix Q, without expanding.

    Q is not symmetric in general, but with M = diag(m_1, ..., m_k) > 0 the
    matrix S = M*Q is.  Q = M^-1 S is similar to M^(-1/2) S M^(-1/2), which
    is congruent to S; so all eigenvalues of Q are real and, by Sylvester's
    law of inertia, sigma(Q) = sigma(M*Q): the inertia of the presentation's
    sweep of S, at a cost independent of the m_i.
    """
    n_plus, _, n_minus = q.sweep.inertia
    return n_plus - n_minus
