import random
from math import gcd, lcm, prod

import pytest

from surgeon import (
    CompanionKnot,
    ContactCoefficient,
    GeneralizedLinkingMatrix,
    LegendrianComponent,
    SurgeryDiagram,
    Sweep,
    diagram_signature,
    expand_to_pm1,
    homology,
    invariant_report,
    linking_matrix,
    smith_normal_form,
    symmetric_signature,
)
from surgeon.cli import load_diagram
import surgeon.exactlin
from surgeon.exactlin import echelon_form, torsion_factors
from surgeon.surgery import EXPANSION_LIMIT, solve

from helpers import (
    CORPUS,
    NON_DIVIDING_ENTRIES,
    bench_chain_diagram,
    char_poly,
    check_snf_invariants,
    cpu_limit,
    dense_diagram,
    diagonal_factors,
    fraction_det,
    fraction_signature,
    non_dividing_family,
    poly_mul,
    random_diagram,
    random_int_matrix,
    rational_inverse,
    singular_diagram,
    smith_oracle,
    t_linking_matrix,
    t_mat_mul,
    t_mat_vec,
    tridiagonal_signature,
    unknot_surgery,
)

DIAGRAMS = CORPUS / "diagrams"


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
        assert linking_matrix(unknot_surgery("+1")).entries == ((0,),)
        assert linking_matrix(unknot_surgery("-1/2")).entries == ((-3,),)

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
        hom = homology(linking_matrix(unknot_surgery("-1")))  # topological -2 surgery
        assert hom.invariant_factors == (2,)
        assert hom.free_rank == 0

    def test_free_part(self):
        hom = homology(linking_matrix(unknot_surgery("+1")))  # topological 0 surgery
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


def check_homology(q):
    """H_1 of Q against the Smith form with transforms, and that against
    `smith_oracle`, which shares no code with it.  torsion_factors of Q
    modulo its exponent e, and modulo 6e, gives the same factors followed
    by one factor e or 6e per free summand: any multiple of e serves.  The
    presentation has det S = prod(m) * det Q and the form exactly when
    det Q = 0; when det Q != 0, forcing the form on it (the modulus is then
    the product of its image pivots) gives the same H_1.  Then H_1 is
    finite of order |det Q|, and its exponent is the least common
    denominator of Q^-1: oracles that need no Smith form.  Returns whether
    det Q != 0."""
    snf = smith_normal_form(q.entries)
    hom = homology(q)
    assert hom.invariant_factors == tuple(d for d in snf.diagonal if d > 1)
    assert hom.free_rank == q.k - sum(1 for d in snf.diagonal if d)
    exponent = max(hom.invariant_factors, default=1)
    for modulus in (exponent, 6 * exponent):
        free = (modulus,) * hom.free_rank if modulus > 1 else ()
        assert torsion_factors(q.entries, modulus) == hom.invariant_factors + free
    oracle = smith_oracle(q.entries)
    assert oracle is None or snf.diagonal == oracle
    det = fraction_det(q.entries)
    form = echelon_form(q.entries)
    assert q.sweep.det == prod(q.magnitudes) * det
    assert q.form == (None if det else form)
    if det == 0:
        return False
    assert homology(q._replace(form=form)) == hom
    assert hom.free_rank == 0
    assert prod(hom.invariant_factors) == abs(det)
    inverse = rational_inverse(q.entries)
    assert max(hom.invariant_factors, default=1) == lcm(*(x.denominator for row in inverse for x in row))
    return True


def bare(entries):
    """A matrix Q with unit magnitudes, as `homology` reads it: a sweep
    that holds det Q, and the form exactly when det Q = 0.  Q need not be
    symmetric, so the sweep has no inertia and no steps."""
    entries = tuple(map(tuple, entries))
    det = int(fraction_det(entries))
    return GeneralizedLinkingMatrix(entries, (1,) * len(entries), Sweep((), det, ()),
                                    None if det else echelon_form(entries))


class TestHomologyAgainstSmithForm:
    """homology reads H_1 off Q modulo |det Q| or, when det Q = 0, modulo
    the product of the image pivots of its form; `check_homology` holds it
    against every oracle on 2083 matrices, and on the non-dividing family."""

    def test_dense(self):
        # k <= 7, then more k <= 4 until each such k has 160 draws
        rng = random.Random(1201)
        draws, small_nonsingular = [0] * 8, 0
        for _ in range(1000):
            k = rng.randint(1, 7)
            draws[k] += 1
            small_nonsingular += check_homology(bare(random_int_matrix(rng, k, k))) and k <= 4
        for k in range(1, 5):
            for _ in range(160 - draws[k]):
                small_nonsingular += check_homology(bare(random_int_matrix(rng, k, k)))
        assert small_nonsingular >= 600

    def test_low_rank_products(self):
        rng = random.Random(1202)
        for _ in range(800):
            k = rng.randint(1, 7)
            r = rng.randint(0, k - 1)
            a, b = random_int_matrix(rng, k, r, -3, 3), random_int_matrix(rng, r, k, -3, 3)
            check_homology(bare(t_mat_mul(a, b) if r else [[0] * k for _ in range(k)]))

    def test_singular_diagrams(self):
        rng = random.Random(1203)
        for _ in range(200):
            check_homology(linking_matrix(singular_diagram(rng)))

    def test_zero_and_empty(self):
        for k in range(1, 8):
            q = bare([[0] * k for _ in range(k)])
            check_homology(q)
            assert homology(q) == ((), k)
        q = linking_matrix(load_diagram(str(DIAGRAMS / "empty.json")))
        assert q.k == 0
        check_homology(q)
        assert homology(q) == ((), 0)

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 16, 29, 50])
    def test_chains(self, k):
        rng = random.Random(f"chain:{k}")
        for _ in range(3):
            check_homology(linking_matrix(chain_diagram(rng, k)))

    def test_non_dividing_family(self):
        # Diagonals with many pairs d_i, d_j where d_i does not divide d_j:
        # diagonal, rectangular and block-diagonal inputs up to 7 x 7, with
        # the transforms checked too, then large diagonal ones.  A
        # rectangular one's torsion factors, modulo the product P of its
        # nonzero diagonal, end in one P per column past the rank.
        rng = random.Random(1204)
        for matrix, diagonal in non_dividing_family(rng, 150, k_max=6) + non_dividing_family(rng, 15):
            snf = smith_normal_form(matrix)
            check_snf_invariants(matrix, snf)
            assert snf.diagonal == diagonal
            modulus = prod(d for d in diagonal if d)
            free = (modulus,) * (len(matrix[0]) - sum(1 for d in diagonal if d)) if modulus > 1 else ()
            assert torsion_factors(matrix, modulus) == tuple(d for d in diagonal if d > 1) + free
            if len(matrix) == len(matrix[0]):
                check_homology(bare(matrix))
        for k in (10, 20, 40):
            entries = [rng.choice(NON_DIVIDING_ENTRIES) for _ in range(k)]
            matrix = [[entries[i] if i == j else 0 for j in range(k)] for i in range(k)]
            check_homology(bare(matrix))
            diagonal = diagonal_factors(entries, k)
            assert homology(bare(matrix)) == (tuple(d for d in diagonal if d > 1), diagonal.count(0))


class TestHomologyWithoutSmithForm:
    """Families with det Q != 0 on most draws, where `check_homology` also
    applies the oracles that need no Smith form: 1400 or more in all."""

    def test_random_diagrams(self):
        rng = random.Random(1211)
        assert sum(check_homology(linking_matrix(random_diagram(rng))) for _ in range(1400)) >= 1350

    def test_dense(self):
        rng = random.Random(1213)
        ks = [k for k in range(2, 11) for _ in range(3)] + [12, 16, 20]
        assert sum(check_homology(linking_matrix(dense_diagram(rng, k))) for k in ks) >= 28

    def test_chains(self):
        rng = random.Random(1214)
        ks = [k for k in range(2, 13) for _ in range(2)] + [16, 20]
        assert sum(check_homology(linking_matrix(chain_diagram(rng, k))) for k in ks) >= 24


def continuant(a):
    """det of a tridiagonal matrix by the continuant recurrence."""
    det, previous = a[0][0], 1
    for i in range(1, len(a)):
        det, previous = a[i][i] * det - a[i][i - 1] * a[i - 1][i] * previous, det
    return det


def test_homology_reduces_modulo_det():
    """A growth guard: H_1 of the tests' chain of 400 unknots with
    coefficients +-1/m (m <= 3).  Eliminating modulo |det Q| keeps every
    entry below it and takes about 30 ms of CPU; the Smith passes on the
    echelon rows of Q^T, whose entries were not reduced, took 9.6 s at
    k = 200 on a 2-CPU Xeon.  H_1 is finite of order |det Q|, the
    continuant of the tridiagonal Q, and its factors form a chain."""
    q = linking_matrix(chain_diagram(random.Random(1), 400))
    with cpu_limit(1):
        hom = homology(q)
    factors = hom.invariant_factors
    assert hom.free_rank == 0 and prod(factors) == abs(continuant(q.entries))
    assert all(y % x == 0 for x, y in zip(factors, factors[1:])) and min(factors) > 1
    assert len(factors) > 10


def test_every_entry_stays_below_the_modulus(monkeypatch):
    """Every 2 x 2 step of torsion_factors, on rows or on columns, reads
    and leaves entries in [0, P) only: the integer growth of H_1 is
    bounded by design.  Bezout steps, which change both lines, and column
    steps, which pass the two orientations the other way round, both run."""
    steps, original = [], surgeon.exactlin._step

    def checked(lines, cross, a, b, key, modulus):
        before = [dict(lines[a]), dict(lines[b])]
        original(lines, cross, a, b, key, modulus)
        for line in before + [lines[a], lines[b]]:
            assert all(0 <= x < modulus for x in line.values())
        steps.append((lines, cross, lines[a] != before[0]))

    monkeypatch.setattr(surgeon.exactlin, "_step", checked)
    rng = random.Random(1222)
    for k in (20, 50, 100):
        homology(linking_matrix(chain_diagram(rng, k)))
    for _ in range(20):
        homology(linking_matrix(dense_diagram(rng, rng.randint(2, 12))))
        homology(linking_matrix(singular_diagram(rng)))
    for matrix, _ in non_dividing_family(rng, 60):
        torsion_factors(matrix, 2 ** 10 * 3 ** 10 * 5 ** 10)
    orientations = {(id(lines), id(cross)) for lines, cross, _ in steps}  # steps keeps each dict alive
    assert any((y, x) in orientations for x, y in orientations)
    assert any(changed for *_, changed in steps) and len(steps) > 500


def test_homology_repairs_divisibility_on_the_diagonal():
    """A growth guard: the orders that the elimination splits off H_1 of two
    chains of 100 with coefficients +-1/m (m <= 3) are no divisibility
    chain (19-22 pairs where d_i does not divide d_j), and the walk over
    the pairs makes them one; the whole takes about 15 ms of CPU.  The
    Smith passes it replaced took 0.25 s with a 2 x 2 repair per such
    pair, and 1.05-1.33 s with a full row and column pass per pair, on a
    2-CPU Xeon.  H_1 is finite of order |det Q|, the continuant of the
    tridiagonal Q."""
    qs = [linking_matrix(chain_diagram(random.Random(seed), 100)) for seed in (1, 2)]
    with cpu_limit(1):
        homs = [homology(q) for q in qs]
    for q, hom in zip(qs, homs):
        factors = hom.invariant_factors
        assert hom.free_rank == 0 and prod(factors) == abs(continuant(q.entries))
        assert all(y % x == 0 for x, y in zip(factors, factors[1:]))


def with_companion(rng: random.Random, diagram) -> SurgeryDiagram:
    """The diagram with a Legendrian companion K of random lk in [-1, 1]."""
    lk = tuple(rng.randint(-1, 1) for _ in range(diagram.k))
    return diagram._replace(knots=(CompanionKnot("K", "legendrian", lk, tb=-1, rot=0),))


class TestSweepAgainstEchelonPath:
    """When det Q != 0, every solve is read off the sweep of diag(m)*Q and
    H_1 off Q^T alone.  Forcing the echelon path (the form of [Q^T | I], as
    det Q = 0 builds it) must give the same order and a, so the same
    b = a / d, for rot and each lk, and the same invariant factors; sigma,
    which has one path, is held against rational elimination.  2000
    nonsingular linking matrices: random, dense, +-1 and 1/m chains, and
    m-ladder expansions."""

    @staticmethod
    def compare(diagram, chain=False) -> bool:
        """Compare the two paths on the diagram; returns whether det Q != 0."""
        q = linking_matrix(diagram)
        if not q.sweep.det:
            return False
        forced = q._replace(form=echelon_form(q.entries))
        for v in (tuple(c.rot for c in diagram.components), *(w.lk for w in diagram.knots)):
            assert solve(q, v) == solve(forced, v)
        assert homology(q) == homology(forced)
        weighted = [[m * x for x in row] for m, row in zip(q.magnitudes, q.entries)]
        assert q.sweep.inertia == (tridiagonal_signature if chain else fraction_signature)(weighted)
        return True

    def test_differential(self):
        rng = random.Random(3301)
        families = [
            (900, False, lambda: random_diagram(rng, with_knot=True)),
            (200, False, lambda: dense_diagram(rng, rng.randint(2, 10))),
            (300, True, lambda: with_companion(rng, bench_chain_diagram(rng, rng.randint(2, 16)))),
            (300, True, lambda: with_companion(rng, chain_diagram(rng, rng.randint(2, 16)))),
            (300, False, lambda: expand_to_pm1(random_diagram(rng, with_knot=True))),
        ]
        for count, chain, draw in families:
            compared = 0
            while compared < count:
                compared += self.compare(draw(), chain)


def test_solve_reads_the_sweep():
    """A growth guard: invariant_report on a chain of 1000 unknots with
    coefficients +-1/m (m <= 3).  The sweep solves it in well under a second
    of CPU; substituting into the echelon form of [Q^T | I], whose
    transform block holds some 221 000 nonzeros of 121 Mbit, took about
    26 s.  The oracle needs no library code: Q*a = d*lk in integers, and
    gcd(d, a) = 1, which makes d minimal as det Q != 0 (the continuant) makes
    the solution unique."""
    rng = random.Random(1)
    diagram = with_companion(rng, chain_diagram(rng, 1000))
    with cpu_limit(2):
        report = invariant_report(diagram, "K")
    q = t_linking_matrix(diagram)
    assert continuant(q) != 0
    assert t_mat_vec(q, report.solution) == [report.order * x for x in diagram.knots[0].lk]
    assert gcd(report.order, *report.solution) == 1


class TestExpansion:
    def test_identity_on_pm1(self):
        diagram = pair(("+1", "-1"), (-1, -2), (0, 1), -1)
        assert expand_to_pm1(diagram) is diagram

    def test_negative_half(self):
        expanded = expand_to_pm1(unknot_surgery("-1/2"))
        assert expanded.k == 2
        assert [c.tb for c in expanded.components] == [-1, -1]
        assert all(str(c.coeff) == "-1" for c in expanded.components)
        assert expanded.linking == ((0, -1), (-1, 0))
        assert linking_matrix(expanded).entries == ((-2, -1), (-1, -2))

    def test_positive_half(self):
        expanded = expand_to_pm1(unknot_surgery("+1/2"))
        assert linking_matrix(expanded).entries == ((0, -1), (-1, 0))

    def test_copy_count_and_names(self):
        expanded = expand_to_pm1(unknot_surgery("+1/3"))
        assert [c.name for c in expanded.components] == ["U.1", "U.2", "U.3"]

    def test_expansion_limit(self):
        assert expand_to_pm1(unknot_surgery(f"-1/{EXPANSION_LIMIT}")).k == EXPANSION_LIMIT
        with pytest.raises(ValueError, match=f"more than the limit of {EXPANSION_LIMIT}"):
            expand_to_pm1(unknot_surgery(f"-1/{EXPANSION_LIMIT + 1}"))

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
        assert diagram_signature(linking_matrix(unknot_surgery("+1"))) == 0
        assert diagram_signature(linking_matrix(unknot_surgery("+1/2"))) == -1
        assert diagram_signature(linking_matrix(unknot_surgery("-1/2"))) == -1

    def test_pm1_reduces_to_symmetric_signature(self):
        diagram = pair(("+1", "-1"), (-1, -2), (0, 1), -1)
        q = linking_matrix(diagram)
        n_plus, _, n_minus = symmetric_signature(q.entries).inertia
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
