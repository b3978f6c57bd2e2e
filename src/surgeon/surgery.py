"""Surgery presentations: generalized linking matrix, homology, expansion.

The generalized linking matrix of a diagram has the topological surgery
slopes p_i on the diagonal and q_j * lk(L_i, L_j) off it, written in the
meridian basis.  It presents the first homology of the surgered manifold.
`linking_matrix` builds a diagram's one presentation, Q with its echelon
form, and every solve, H_1 and the signature of this package read it.
"""

from __future__ import annotations

from typing import NamedTuple

from . import diagrams, exactlin
from .diagrams import ContactCoefficient, LegendrianComponent, SurgeryDiagram
from .exactlin import Matrix

# Largest number of components `expand_to_pm1` builds, i.e. the largest sum
# of the coefficient magnitudes m it expands.  The expanded linking matrix
# is dense, and the d3 cross-check on it costs about eight times more per
# doubling of Sum(m); the closed forms never expand.
EXPANSION_LIMIT = 128


class GeneralizedLinkingMatrix(NamedTuple):
    """Square integer matrix Q with row/column i attached to the meridian
    of the i-th surgery component, the coefficient magnitudes m_i, and
    `form`, the exactlin.echelon_form of Q.

    Q itself is symmetric only when all coefficient magnitudes are 1, but
    diag(m_1, ..., m_k) * Q is always symmetric.
    """

    entries: Matrix
    magnitudes: tuple[int, ...]
    form: Matrix

    @property
    def k(self) -> int:
        return len(self.entries)


def linking_matrix(diagram: SurgeryDiagram) -> GeneralizedLinkingMatrix:
    """Build the generalized linking matrix of a diagram and its echelon form."""
    k = diagram.k
    slopes = [diagrams.topological_coefficient(c) for c in diagram.components]
    entries = tuple(
        tuple(slopes[i][0] if i == j else slopes[j][1] * diagram.linking[i][j]
              for j in range(k))
        for i in range(k))
    return GeneralizedLinkingMatrix(entries, tuple(q for _, q in slopes), exactlin.echelon_form(entries))


class HomologyPresentation(NamedTuple):
    """First homology of the surgered manifold: torsion invariant factors
    (each > 1, each dividing the next) and the free rank."""

    invariant_factors: tuple[int, ...]
    free_rank: int


def homology(q: GeneralizedLinkingMatrix) -> HomologyPresentation:
    """H_1: the entries > 1 and the zeros (the free rank) of the Smith diagonal
    of the h-block H of Q's echelon form.  The loop starts on H^T, so that it
    enters at the column pass: H's rows are in echelon form already."""
    diagonal = exactlin.smith_diagonal(list(zip(*(r[:q.k] for r in q.form))))
    return HomologyPresentation(tuple(d for d in diagonal if d > 1), diagonal.count(0))


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
    law of inertia, sigma(Q) = sigma(M*Q): the exact signature of a
    symmetric k x k integer matrix, at a cost independent of the m_i.
    """
    weighted = [[m * x for x in row] for m, row in zip(q.magnitudes, q.entries)]
    n_plus, _, n_minus = exactlin.symmetric_signature(weighted)
    return n_plus - n_minus
