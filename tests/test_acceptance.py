"""Acceptance suite: one test per release criterion, exact tolerances only.

Every test prints a single PASS/FAIL line (visible with `pytest -s` or in
captured output on failure), so the suite doubles as a checklist:

    python -m pytest tests/test_acceptance.py -s
"""

import functools
import random
from fractions import Fraction
from math import gcd

from surgeon import (
    CompanionKnot,
    ContactCoefficient,
    LegendrianComponent,
    SurgeryDiagram,
    classical_invariants,
    diagram_signature,
    d3_report,
    expand_to_pm1,
    homology,
    invariant_report,
    linking_matrix,
    minimal_order_solve,
    parse_front,
    smith_normal_form,
    symmetric_signature,
)
from surgeon.cli import load_diagram, main
from surgeon.exactlin import echelon_form

from helpers import (
    CORPUS,
    char_poly,
    check_snf_invariants,
    d3_via_expansion,
    descartes_split,
    fraction_det,
    front_diagram,
    image_set,
    legendrian_pushoff_sl,
    oracle_d3_pm1,
    oracle_invariants,
    poly_mul,
    random_diagram,
    random_int_matrix,
    rational_gauss_solve,
    rational_rank,
    singular_diagram,
    t_mat_vec,
    tb_pairing,
    unknot_surgery,
)

DIAGRAMS = CORPUS / "diagrams"
FRONTS = CORPUS / "fronts"


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL  {title}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS  {title}")
        return wrapper
    return decorate


@criterion(1, "two-component homology sphere: a=(3,1), rot in {2,0,-2}, trivial H1")
def test_homology_sphere_files():
    for rot2, expected in ((-2, 2), (0, 0), (2, -2)):
        suffix = str(rot2).replace("-", "minus")
        diagram = load_diagram(str(DIAGRAMS / f"trefoil_chain_rot{suffix}.json"))
        q = linking_matrix(diagram)
        assert q.entries == ((0, 1), (1, -2))
        report = invariant_report(diagram, "L0")
        assert report.order == 1
        assert report.solution == (3, 1)
        assert report.rot == expected
        assert report.unique_class
        assert homology(q) == ((), 0)
        # Q is invertible, so e is torsion and Q*b = rot
        euler = d3_report(diagram)
        assert euler.torsion
        assert t_mat_vec(q.entries, euler.b) == [0, rot2]


@criterion(2, "single-component closed forms, integral and rational order")
def test_single_component_closed_forms():
    def rational(tb_L, rot_L, m, s, lk):
        """Checks the quotient formulas on Q = [m*tb_L + s]; returns whether
        the order is above 1."""
        knot = CompanionKnot("K", "legendrian", (lk,), tb=2, rot=-1)
        diagram = SurgeryDiagram(
            (LegendrianComponent("L", tb_L, rot_L, ContactCoefficient(s, m)),), ((0,),), (knot,))
        report = invariant_report(diagram, "K")
        p = m * tb_L + s
        if p == 0:
            # Q = [0]: lk has a rational preimage only when it is 0
            assert (report.order is None) == (lk != 0)
            return False
        assert report.rot == -1 - Fraction(m * lk * rot_L, p)
        assert report.tb == 2 - Fraction(m * lk * lk, p)
        expected_d = 1 if lk == 0 else abs(p) // gcd(abs(p), abs(lk))
        assert report.order == expected_d
        if expected_d == 1:
            assert report.tb.denominator == report.rot.denominator == 1
        if lk == 0:
            assert report.solution == (0,)
        return expected_d > 1

    rational_cases = 0
    for tb_L in range(-3, 4):
        for rot_L in (r for r in range(-3, 4) if (tb_L + r) % 2 == 1):
            for m in range(1, 5):
                for s in (1, -1):
                    for lk in range(-3, 4):
                        rational_cases += rational(tb_L, rot_L, m, s, lk)
    assert rational_cases > 100
    # a linking number outside the sweep
    assert rational(-3, 2, 4, -1, 5)


@criterion(3, "meridian surgery: a=(2,-1), tb drops by 1, rot shifts by -+1")
def test_meridian_twist_files():
    shifts = {}
    for tag in ("up", "down"):
        diagram = load_diagram(str(DIAGRAMS / f"meridian_twist_{tag}.json"))
        assert linking_matrix(diagram).entries == ((0, -1), (-1, -3))
        report = invariant_report(diagram, "K")
        knot = diagram.knot("K")
        assert report.solution == (2, -1)
        assert report.tb == knot.tb - 1
        shifts[tag] = report.rot - knot.rot
    # rot(meridian) = -+1 produces the shift -+1; both choices occur
    assert shifts == {"up": 1, "down": -1}


@criterion(4, "transverse sl = 1 for both orientations, Legendrian cross-check")
def test_self_linking_files():
    for tag, solution in (("positive", (1,)), ("negative", (-1,))):
        diagram = load_diagram(str(DIAGRAMS / f"overtwisted_sphere_{tag}.json"))
        report = invariant_report(diagram, "T0")
        assert report.order == 1
        assert report.solution == solution
        assert report.sl == 1
    diagram = load_diagram(str(DIAGRAMS / "overtwisted_sphere_positive.json"))
    legendrian = invariant_report(diagram, "L0")
    assert legendrian.tb == 0
    assert legendrian.rot == -1
    assert legendrian_pushoff_sl(legendrian.tb, legendrian.rot, 1) == 1
    assert invariant_report(diagram, "T0").sl == \
        legendrian_pushoff_sl(legendrian.tb, legendrian.rot, 1)


@criterion(5, "d3 of 1/n surgeries on the standard unknot, both methods")
def test_d3_unknot_family():
    def check(coeff, expected):
        """The closed form and its value on the expansion; returns the expansion."""
        diagram = unknot_surgery(coeff)
        assert d3_report(diagram).d3 == expected
        assert d3_via_expansion(diagram) == expected
        return expand_to_pm1(diagram)

    assert oracle_d3_pm1(check("+1", 0)) == 0
    for n in (2, 3, 4, 5):
        expected = 1 - Fraction(n, 4)
        assert oracle_d3_pm1(check(f"+1/{n}", expected)) == expected
    for n in (1, 2, 3):
        expected = Fraction(n, 4) - Fraction(1, 2)
        assert oracle_d3_pm1(check("-1" if n == 1 else f"-1/{n}", expected)) == expected
    # n = 64, without the oracle's Fraction elimination on 64 x 64
    check("+1/64", -15)
    check("-1/64", Fraction(31, 2))


@functools.cache
def _seed_170_draws():
    """The random draws of seed 170 (k <= 3, m <= 4) up to the 500th whose
    Euler class is torsion, each with its d3 report, and the generator's
    state after them.  Criteria 6 and 7 share them."""
    rng, draws, torsion = random.Random(170), [], 0
    while torsion < 500:
        diagram = random_diagram(rng, k_max=3, m_max=4)
        draws.append((diagram, d3_report(diagram)))
        torsion += draws[-1][1].torsion
    return tuple(draws), rng.getstate()


@criterion(6, "closed-form d3 equals the +-1 formula on 500 random and 100 singular torsion diagrams")
def test_d3_equality_randomized():
    def check(diagram, report):
        """The torsion flag and d3 of the diagram's report equal their values
        on the expansion, and d3 the oracle's there; returns the flag."""
        expanded = expand_to_pm1(diagram)
        on_expansion = d3_report(expanded)
        assert (report.torsion, report.d3) == (on_expansion.torsion, on_expansion.d3)
        if report.torsion:
            assert report.d3 == oracle_d3_pm1(expanded)
        return report.torsion

    # every draw of seed 170, the non-torsion ones checked too
    draws, state = _seed_170_draws()
    for diagram, report in draws:
        check(diagram, report)
    # det Q = 0, so b is not unique: the closed form, its value on the
    # expansion and the oracle each pick their own b
    rng = random.Random()
    rng.setstate(state)
    singular = several = 0
    while singular < 100:
        diagram = singular_diagram(rng)
        if check(diagram, d3_report(diagram)):
            form = linking_matrix(diagram).form
            assert minimal_order_solve(form, [c.rot for c in diagram.components]).kernel_basis
            singular += 1
            several += any(c.coeff.magnitude > 1 for c in diagram.components) and diagram.k > 1
    assert several >= 30


@criterion(7, "signature relation and characteristic polynomial lift on the same corpus")
def test_signature_relation_randomized():
    for diagram, report in _seed_170_draws()[0]:
        if not report.torsion:
            continue
        q = linking_matrix(diagram)
        k = q.k
        chi_q = char_poly(q.entries)
        expanded = linking_matrix(expand_to_pm1(diagram)).entries
        chi_exp = char_poly(expanded)

        # the lifted spectrum: extra eigenvalues are the coefficient signs
        lift = [1]
        correction = 0
        for c in diagram.components:
            correction += (c.coeff.magnitude - 1) * c.coeff.sign
            for _ in range(c.coeff.magnitude - 1):
                lift = poly_mul(lift, [1, -c.coeff.sign])
        assert poly_mul(list(chi_q), lift) == list(chi_exp)

        # independent recovery of sigma(Q): all roots of chi_q are real, so
        # Descartes' rule is exact; the zero count is the rank defect
        n_plus, n_zero, n_minus = descartes_split(chi_q, k)
        assert n_zero == k - rational_rank(q.entries)
        sigma_q = n_plus - n_minus
        assert diagram_signature(q) == sigma_q
        ep, _, em = symmetric_signature(expanded)
        assert ep - em == sigma_q + correction


@criterion(8, "solver versus brute force on 1000 random systems, SNF invariants exact")
def test_solver_oracle_equivalence():
    rng = random.Random(4096)
    bounds = {1: 15, 2: 9, 3: 4}
    max_order = 8
    for _ in range(1000):
        nrows = rng.randint(1, 3)
        ncols = rng.randint(1, 3)
        matrix = random_int_matrix(rng, nrows, ncols, -5, 5)
        vector = [rng.randint(-5, 5) for _ in range(nrows)]

        check_snf_invariants(matrix, smith_normal_form(matrix))

        images = image_set(matrix, bounds[ncols])
        solvable = [n for n in range(1, max_order + 1) if tuple(n * v for v in vector) in images]
        minimal = minimal_order_solve(echelon_form(matrix), vector)
        rational = rational_gauss_solve(matrix, vector)
        assert (minimal is None) == (rational is None)
        if minimal is None:
            assert not solvable
            continue
        d = minimal.order
        assert t_mat_vec(matrix, minimal.particular) == [d * v for v in vector]
        for kv in minimal.kernel_basis:
            assert t_mat_vec(matrix, kv) == [0] * nrows
        # solvable orders form the ideal generated by the minimal one, which
        # the box finds when it holds the printed solution
        assert all(n % d == 0 for n in solvable)
        if d <= max_order and all(abs(x) <= bounds[ncols] for x in minimal.particular):
            assert d in solvable


@criterion(9, "tb, the d3 pairing and d3 ignore the choice of solution")
def test_solution_independence():
    def singular(rot_pair, lk_vector):
        return SurgeryDiagram(
            (LegendrianComponent("A", 0, rot_pair[0], ContactCoefficient.parse("+1")),
             LegendrianComponent("B", 0, rot_pair[1], ContactCoefficient.parse("+1"))),
            ((0, 1), (1, 0)),
            (CompanionKnot("K", "legendrian", lk_vector, tb=-1, rot=0),))

    # Q = [[1, 1], [1, 1]], whose kernel is spanned by (1, -1)
    ones, mixed = singular((1, 1), (1, 1)), singular((1, -1), (2, 2))
    # every solution of Q*a = (1, 1) is (1 + t, -t), so tb_M = -1 - 1;
    # rot = (1, 1) = Q*(1, 0), so e is torsion and no shift moves rot_M
    report = invariant_report(ones, "K")
    assert report.tb == -2
    assert report.seifert_shifts
    assert all(shift == 0 for _, shift in report.seifert_shifts)
    assert d3_report(ones).torsion
    # at rot = (1, -1) the kernel vector shifts rot_M
    report = invariant_report(mixed, "K")
    assert not report.unique_class
    (vector, shift), = report.seifert_shifts
    assert shift == vector[0] - vector[1] != 0

    # 50 singular draws where Q*a = d*lk is solvable, so tb_M from a
    # shifted solution must be the printed one
    constructed = [ones, mixed, singular((-3, 1), (0, 0))]
    rng = random.Random(5150)
    while len(constructed) < 53:
        diagram = singular_diagram(rng, with_knot=True)
        if minimal_order_solve(linking_matrix(diagram).form, diagram.knots[0].lk) is not None:
            constructed.append(diagram)

    def pairing_ignores_the_solution(diagram):
        """Where Q*b = rot has a kernel, every b solves it and pairs alike
        with the weights m_i rot_i, and d3 equals its value on the expansion."""
        rot = [c.rot for c in diagram.components]
        q = linking_matrix(diagram)
        solved = minimal_order_solve(q.form, rot)
        if solved is None or not solved.kernel_basis:
            return False
        particular = [Fraction(x, solved.order) for x in solved.particular]
        weights = [c.coeff.magnitude * c.rot for c in diagram.components]
        base = sum(w * b for w, b in zip(weights, particular))
        for v in solved.kernel_basis:
            other = [b + Fraction(7, 2) * x for b, x in zip(particular, v)]
            assert t_mat_vec(q.entries, other) == rot
            assert sum(w * o for w, o in zip(weights, other)) == base
        assert d3_report(diagram).d3 == d3_via_expansion(diagram)
        return True

    exercised_tb = exercised_pairing = 0
    for diagram in constructed:
        knot = diagram.knots[0]
        report = invariant_report(diagram, "K")
        q = linking_matrix(diagram)
        if report.order is not None and report.seifert_shifts:
            for v, _ in report.seifert_shifts:
                shifted = [a + 2 * x for a, x in zip(report.solution, v)]
                assert t_mat_vec(q.entries, shifted) == [report.order * x for x in knot.lk]
                assert tb_pairing(diagram, v) == 0
                assert report.tb == knot.tb - Fraction(sum(
                    x * c.coeff.magnitude * l for x, c, l in zip(shifted, diagram.components, knot.lk)),
                    report.order)
                exercised_tb += 1
        exercised_pairing += pairing_ignores_the_solution(diagram)
    # then singular draws without a companion, until 40 diagrams had a kernel
    while exercised_pairing < 40:
        exercised_pairing += pairing_ignores_the_solution(singular_diagram(rng))
    assert exercised_tb >= 53

    # tb against the oracle on 100 invertible +-1 draws
    rng, compared_tb = random.Random(5150), 0
    while compared_tb < 100:
        diagram = random_diagram(rng, with_knot=True)
        if (all(c.coeff.magnitude == 1 for c in diagram.components)
                and fraction_det(linking_matrix(diagram).entries)):
            assert invariant_report(diagram, "K").tb == oracle_invariants(diagram, "K")[1]
            compared_tb += 1


@criterion(10, "front anchors and emit-diagram round trip")
def test_front_anchors(tmp_path, capsys):
    unknot = classical_invariants(parse_front((FRONTS / "unknot.front").read_text()))
    assert (unknot.tb, unknot.rot) == ((-1,), (0,))

    trefoil = classical_invariants(parse_front((FRONTS / "trefoil_max_tb.front").read_text()))
    assert (trefoil.tb, trefoil.rot) == ((1,), (0,))

    split = classical_invariants(parse_front((FRONTS / "split_unknots.front").read_text()))
    assert split.tb == (-1, -1)
    assert split.linking == ((0, 0), (0, 0))

    emitted = tmp_path / "demo.json"
    code = main(["front", str(FRONTS / "surgery_demo.front"), "--emit-diagram", str(emitted)])
    capsys.readouterr()
    assert code == 0
    loaded = load_diagram(str(emitted))
    source = (FRONTS / "surgery_demo.front").read_text()
    front_data = classical_invariants(parse_front(source))
    assert loaded == front_diagram(source)
    assert loaded.components[0].tb == front_data.tb[0]
    assert loaded.components[0].rot == front_data.rot[0]
    assert loaded.knots[0].tb == front_data.tb[1]
    assert loaded.knots[0].lk == (front_data.linking[1][0],)
