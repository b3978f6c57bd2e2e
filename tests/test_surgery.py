import random
from math import lcm, prod

import pytest

from surgeon import (
    CompanionKnot,
    ContactCoefficient,
    GeneralizedLinkingMatrix,
    LegendrianComponent,
    SurgeryDiagram,
    diagram_signature,
    expand_to_pm1,
    homology,
    linking_matrix,
    smith_normal_form,
    symmetric_signature,
)
from surgeon.cli import load_diagram
from surgeon.exactlin import echelon_form, smith_diagonal
from surgeon.surgery import EXPANSION_LIMIT

from helpers import (
    CORPUS,
    NON_DIVIDING_ENTRIES,
    char_poly,
    check_snf_invariants,
    cpu_limit,
    dense_diagram,
    diagonal_factors,
    fraction_det,
    non_dividing_family,
    poly_mul,
    random_diagram,
    random_int_matrix,
    rational_gauss_solve,
    singular_diagram,
    smith_oracle,
    t_mat_mul,
)

DIAGRAMS = CORPUS / "diagrams"


def single(coeff, tb=-1, rot=0):
    return SurgeryDiagram(
        (LegendrianComponent("L", tb, rot, ContactCoefficient.parse(coeff)),), ((0,),))


def pair(coeffs, tbs, rots, l12, knot_lk=None):
    components = tuple(
        LegendrianComponent(f"L{i + 1}", tbs[i], rots[i], ContactCoefficient.parse(coeffs[i]))
        for i in range(2))
    knots = ()
    if knot_lk is not None:
        knots = (CompanionKnot("L0", "legendrian", knot_lk, tb=-1, rot=0),)
    return SurgeryDiagram(components, ((0, l12), (l12, 0)), knots)


class TestLinkingMatrix:
    def test_two_component_example(self):
        diagram = pair(("-1", "-1"), (1, -1), (0, 0), 1)
        assert linking_matrix(diagram).entries == ((0, 1), (1, -2))

    def test_single_unknot(self):
        assert linking_matrix(single("+1")).entries == ((0,),)
        assert linking_matrix(single("-1/2")).entries == ((-3,),)

    def test_weighted_symmetry(self):
        # diag(m) * Q is symmetric even when Q itself is not
        rng = random.Random(7)
        for _ in range(50):
            diagram = random_diagram(rng)
            q = linking_matrix(diagram)
            k = q.k
            weighted = [[q.magnitudes[i] * q.entries[i][j] for j in range(k)] for i in range(k)]
            assert all(weighted[i][j] == weighted[j][i] for i in range(k) for j in range(k))

    def test_symmetric_when_all_magnitudes_one(self):
        diagram = pair(("+1", "-1"), (-1, -2), (0, 1), -1)
        q = linking_matrix(diagram).entries
        assert q == tuple(map(tuple, zip(*q)))


class TestHomology:
    def test_homology_sphere(self):
        hom = homology(linking_matrix(pair(("-1", "-1"), (1, -1), (0, 0), 1)))
        assert hom == ((), 0)

    def test_order_two(self):
        hom = homology(linking_matrix(single("-1")))  # topological -2 surgery
        assert hom.invariant_factors == (2,)
        assert hom.free_rank == 0

    def test_free_part(self):
        hom = homology(linking_matrix(single("+1")))  # topological 0 surgery
        assert hom.invariant_factors == ()
        assert hom.free_rank == 1


def chain_diagram(rng: random.Random, k, m_max=3) -> SurgeryDiagram:
    """A chain of k unknots, each linking the next once, with random tb and
    coefficients +-1/m (m <= m_max): a tridiagonal Q."""
    tbs = [rng.randint(-3, 1) for _ in range(k)]
    components = [LegendrianComponent(f"C{i + 1}", tb, 1 - tb % 2,
                                      ContactCoefficient(rng.choice((1, -1)), rng.randint(1, m_max)))
                  for i, tb in enumerate(tbs)]
    signs = [rng.choice((1, -1)) for _ in range(k - 1)]
    linking = [[signs[min(i, j)] if abs(i - j) == 1 else 0 for j in range(k)] for i in range(k)]
    return SurgeryDiagram(components, linking)


class TestHomologyAgainstSmithForm:
    """homology reads the invariant factors off the echelon rows of one
    echelon form of [Q^T | I]; the Smith normal form with transforms is an
    oracle, and as both run `_smith`, so are `smith_oracle`'s determinantal
    divisors (k <= 5) and prime powers (diagonal Q), which share no code
    with it.  2029 matrices, and the non-dividing family, in all."""

    @staticmethod
    def check(q):
        snf = smith_normal_form(q.entries)
        hom = homology(q)
        assert hom.invariant_factors == tuple(d for d in snf.diagonal if d > 1)
        assert hom.free_rank == q.k - sum(1 for d in snf.diagonal if d)
        assert q.form == echelon_form(q.entries)
        oracle = smith_oracle(q.entries)
        assert oracle is None or snf.diagonal == oracle

    @staticmethod
    def bare(entries):
        entries = tuple(map(tuple, entries))
        return GeneralizedLinkingMatrix(entries, (1,) * len(entries), echelon_form(entries))

    def test_dense(self):
        rng = random.Random(1201)
        for _ in range(1000):
            k = rng.randint(1, 7)
            self.check(self.bare(random_int_matrix(rng, k, k)))

    def test_low_rank_products(self):
        rng = random.Random(1202)
        for _ in range(800):
            k = rng.randint(1, 7)
            r = rng.randint(0, k - 1)
            a, b = random_int_matrix(rng, k, r, -3, 3), random_int_matrix(rng, r, k, -3, 3)
            self.check(self.bare(t_mat_mul(a, b) if r else [[0] * k for _ in range(k)]))

    def test_singular_diagrams(self):
        rng = random.Random(1203)
        for _ in range(200):
            self.check(linking_matrix(singular_diagram(rng)))

    def test_zero_and_empty(self):
        for k in range(1, 8):
            q = self.bare([[0] * k for _ in range(k)])
            self.check(q)
            assert homology(q) == ((), k)
        q = linking_matrix(load_diagram(str(DIAGRAMS / "empty.json")))
        assert q.k == 0
        self.check(q)
        assert homology(q) == ((), 0)

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 16, 29, 50])
    def test_chains(self, k):
        rng = random.Random(f"chain:{k}")
        for _ in range(3):
            self.check(linking_matrix(chain_diagram(rng, k)))

    def test_non_dividing_family(self):
        # Diagonals the passes reach with many pairs d_i, d_j where d_i does not
        # divide d_j: diagonal, rectangular and block-diagonal inputs up to
        # 7 x 7, with the transforms checked too, then large diagonal ones.
        rng = random.Random(1204)
        for matrix, diagonal in non_dividing_family(rng, 150, k_max=6) + non_dividing_family(rng, 15):
            snf = smith_normal_form(matrix)
            check_snf_invariants(matrix, snf)
            assert snf.diagonal == smith_diagonal(matrix) == diagonal
            if len(matrix) == len(matrix[0]):
                self.check(self.bare(matrix))
        for k in (10, 20, 40):
            entries = [rng.choice(NON_DIVIDING_ENTRIES) for _ in range(k)]
            matrix = [[entries[i] if i == j else 0 for j in range(k)] for i in range(k)]
            self.check(self.bare(matrix))
            assert smith_diagonal(matrix) == diagonal_factors(entries, k)


class TestHomologyWithoutSmithForm:
    """On a nonsingular Q, H_1 = Z^k / Q Z^k is finite of order |det Q|, and
    its exponent, the largest invariant factor, is the least common
    denominator of Q^-1: an oracle that shares no code with the Smith form.
    Each test counts the nonsingular draws it checks, 2000 or more in all."""

    @staticmethod
    def check(q):
        det = fraction_det(q.entries)
        if det == 0:
            return 0
        hom = homology(q)
        assert hom.free_rank == 0
        assert prod(hom.invariant_factors) == abs(det)
        columns = [rational_gauss_solve(q.entries, [int(i == j) for i in range(q.k)]) for j in range(q.k)]
        assert max(hom.invariant_factors, default=1) == lcm(*(x.denominator for c in columns for x in c))
        return 1

    def test_random_diagrams(self):
        rng = random.Random(1211)
        assert sum(self.check(linking_matrix(random_diagram(rng))) for _ in range(1400)) >= 1350

    def test_random_matrices(self):
        rng = random.Random(1212)
        bare = TestHomologyAgainstSmithForm.bare
        assert sum(self.check(bare(random_int_matrix(rng, k, k))) for k in range(1, 5) for _ in range(160)) >= 600

    def test_dense(self):
        # rational_gauss_solve takes k^4 steps for Q^-1, so few large k
        rng = random.Random(1213)
        ks = [k for k in range(2, 11) for _ in range(3)] + [12, 16, 20]
        assert sum(self.check(linking_matrix(dense_diagram(rng, k))) for k in ks) >= 28

    def test_chains(self):
        rng = random.Random(1214)
        ks = [k for k in range(2, 13) for _ in range(2)] + [16, 20]
        assert sum(self.check(linking_matrix(chain_diagram(rng, k))) for k in ks) >= 24


def continuant(a):
    """det of a tridiagonal matrix by the continuant recurrence."""
    det, previous = a[0][0], 1
    for i in range(1, len(a)):
        det, previous = a[i][i] * det - a[i][i - 1] * a[i - 1][i] * previous, det
    return det


def test_homology_continues_the_form():
    """A growth guard: H_1 of a clasped chain of 400 unknots continues the
    echelon form of Q; back-reducing its image rows first takes over 1 s of
    CPU.  With +-1 coefficients Q is tridiagonal with unit
    off-diagonal entries, so its (k-1)-minors have gcd 1 and H_1 is cyclic
    of order |det Q|, which the continuant recurrence gives."""
    q = linking_matrix(chain_diagram(random.Random(1221), 400, m_max=1))
    with cpu_limit(1):
        hom = homology(q)
    det = continuant(q.entries)
    assert det != 0
    assert hom == (((abs(det),) if abs(det) > 1 else ()), 0)


def test_homology_repairs_divisibility_on_the_diagonal():
    """A growth guard: on chains with coefficients +-1/m (m <= 3) the Smith
    passes reach a diagonal with hundreds of pairs where d_i does not divide
    d_j.  Repairing each with a 2 x 2 Smith form keeps H_1 of two such
    chains of 100 near 0.25 s of CPU; a full row and column pass per pair
    took 1.05-1.33 s on a 2-CPU Xeon.  H_1 is finite of order |det Q|, the
    continuant of the tridiagonal Q."""
    qs = [linking_matrix(chain_diagram(random.Random(seed), 100)) for seed in (1, 2)]
    with cpu_limit(1):
        homs = [homology(q) for q in qs]
    for q, hom in zip(qs, homs):
        factors = hom.invariant_factors
        assert hom.free_rank == 0 and prod(factors) == abs(continuant(q.entries))
        assert all(y % x == 0 for x, y in zip(factors, factors[1:]))


class TestExpansion:
    def test_identity_on_pm1(self):
        diagram = pair(("+1", "-1"), (-1, -2), (0, 1), -1)
        assert expand_to_pm1(diagram) is diagram

    def test_negative_half(self):
        expanded = expand_to_pm1(single("-1/2"))
        assert expanded.k == 2
        assert [c.tb for c in expanded.components] == [-1, -1]
        assert all(str(c.coeff) == "-1" for c in expanded.components)
        assert expanded.linking == ((0, -1), (-1, 0))
        assert linking_matrix(expanded).entries == ((-2, -1), (-1, -2))

    def test_positive_half(self):
        expanded = expand_to_pm1(single("+1/2"))
        assert linking_matrix(expanded).entries == ((0, -1), (-1, 0))

    def test_copy_count_and_names(self):
        expanded = expand_to_pm1(single("+1/3"))
        assert [c.name for c in expanded.components] == ["L.1", "L.2", "L.3"]

    def test_expansion_limit(self):
        assert expand_to_pm1(single(f"-1/{EXPANSION_LIMIT}")).k == EXPANSION_LIMIT
        with pytest.raises(ValueError, match=f"more than the limit of {EXPANSION_LIMIT}"):
            expand_to_pm1(single(f"-1/{EXPANSION_LIMIT + 1}"))

    def test_knot_lk_repeats(self):
        diagram = SurgeryDiagram(
            (LegendrianComponent("L", -1, 0, ContactCoefficient.parse("-1/2")),), ((0,),),
            (CompanionKnot("K", "legendrian", (3,), tb=-1, rot=0),))
        expanded = expand_to_pm1(diagram)
        assert expanded.knots[0].lk == (3, 3)
        # two components: each copy takes its own origin's entry
        diagram = SurgeryDiagram(
            (LegendrianComponent("A", -1, 0, ContactCoefficient.parse("-1/2")),
             LegendrianComponent("B", -2, 1, ContactCoefficient.parse("+1/3"))),
            ((0, 1), (1, 0)),
            (CompanionKnot("K", "legendrian", (3, -2), tb=-1, rot=0),
             CompanionKnot("T", "transverse", (-1, 4), sl=-3, transverse_sign=-1)))
        expanded = expand_to_pm1(diagram)
        assert [w.lk for w in expanded.knots] == [(3, 3, -2, -2, -2), (-1, -1, 4, 4, 4)]
        assert (expanded.knots[1].sl, expanded.knots[1].transverse_sign) == (-3, -1)
        assert expanded.linking == ((0, -1, 1, 1, 1), (-1, 0, 1, 1, 1), (1, 1, 0, -2, -2),
                                    (1, 1, -2, 0, -2), (1, 1, -2, -2, 0))

    def test_block_structure(self):
        rng = random.Random(99)
        for _ in range(40):
            diagram = random_diagram(rng)
            q = linking_matrix(diagram).entries
            expanded = expand_to_pm1(diagram)
            qq = linking_matrix(expanded).entries
            sizes = [c.coeff.magnitude for c in diagram.components]
            offsets = [sum(sizes[:i]) for i in range(len(sizes))]
            for i, c in enumerate(diagram.components):
                for a in range(sizes[i]):
                    for b in range(sizes[i]):
                        want = c.tb + (c.coeff.sign if a == b else 0)
                        assert qq[offsets[i] + a][offsets[i] + b] == want
                for j in range(len(sizes)):
                    if i == j:
                        continue
                    for a in range(sizes[i]):
                        for b in range(sizes[j]):
                            assert qq[offsets[i] + a][offsets[j] + b] == diagram.linking[i][j]

    def test_expansion_preserves_homology(self):
        rng = random.Random(4)
        for _ in range(60):
            diagram = random_diagram(rng)
            assert homology(linking_matrix(diagram)) == homology(linking_matrix(expand_to_pm1(diagram)))


class TestSignature:
    def test_unknot_family(self):
        assert diagram_signature(linking_matrix(single("+1"))) == 0
        assert diagram_signature(linking_matrix(single("+1/2"))) == -1
        assert diagram_signature(linking_matrix(single("-1/2"))) == -1

    def test_pm1_reduces_to_symmetric_signature(self):
        diagram = pair(("+1", "-1"), (-1, -2), (0, 1), -1)
        q = linking_matrix(diagram)
        n_plus, _, n_minus = symmetric_signature(q.entries)
        assert diagram_signature(q) == n_plus - n_minus

    def test_char_poly_divides_expansion(self):
        rng = random.Random(11)
        for _ in range(40):
            diagram = random_diagram(rng)
            q = char_poly(linking_matrix(diagram).entries)
            qq = char_poly(linking_matrix(expand_to_pm1(diagram)).entries)
            lift = [1]
            for c in diagram.components:
                for _ in range(c.coeff.magnitude - 1):
                    lift = poly_mul(lift, [1, -c.coeff.sign])
            assert poly_mul(q, lift) == list(qq)

    def test_determinant_preserved_when_trivial_expansion(self):
        diagram = pair(("+1", "-1"), (-1, -2), (0, 1), -1)
        assert char_poly(linking_matrix(diagram).entries) == \
            char_poly(linking_matrix(expand_to_pm1(diagram)).entries)
