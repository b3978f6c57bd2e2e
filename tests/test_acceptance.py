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
        assert linking_matrix(diagram).entries == ((0, 1), (1, -2))
        report = invariant_report(diagram, "L0")
        assert report.order == 1
        assert report.solution == (3, 1)
        assert report.rot == expected
        assert homology(linking_matrix(diagram)) == ((), 0)


@criterion(2, "single-component closed forms, integral and rational order")
def test_single_component_closed_forms():
    rational_cases = 0
    for tb_L in range(-3, 4):
        for rot_L in (r for r in range(-3, 4) if (tb_L + r) % 2 == 1):
            for m in range(1, 5):
                for s in (1, -1):
                    p = m * tb_L + s
                    if p == 0:
                        continue
                    for lk in range(-3, 4):
                        knot = CompanionKnot("K", "legendrian", (lk,), tb=2, rot=-1)
                        diagram = SurgeryDiagram(
                            (LegendrianComponent("L", tb_L, rot_L, ContactCoefficient(s, m)),),
                            ((0,),), (knot,))
                        report = invariant_report(diagram, "K")
                        assert report.rot == -1 - Fraction(m * lk * rot_L, p)
                        assert report.tb == 2 - Fraction(m * lk * lk, p)
                        expected_d = 1 if lk == 0 else abs(p) // gcd(abs(p), abs(lk))
                        assert report.order == expected_d
                        if expected_d > 1:
                            rational_cases += 1
    assert rational_cases > 100


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
    for tag in ("positive", "negative"):
        diagram = load_diagram(str(DIAGRAMS / f"overtwisted_sphere_{tag}.json"))
        report = invariant_report(diagram, "T0")
        assert report.order == 1
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
    assert d3_report(unknot_surgery("+1")).d3 == 0
    assert oracle_d3_pm1(expand_to_pm1(unknot_surgery("+1"))) == 0
    for n in (2, 3, 4, 5):
        expected = 1 - Fraction(n, 4)
        assert d3_report(unknot_surgery(f"+1/{n}")).d3 == expected
        assert oracle_d3_pm1(expand_to_pm1(unknot_surgery(f"+1/{n}"))) == expected
    for n in (1, 2, 3):
        expected = Fraction(n, 4) - Fraction(1, 2)
        coeff = "-1" if n == 1 else f"-1/{n}"
        assert d3_report(unknot_surgery(coeff)).d3 == expected
        assert oracle_d3_pm1(expand_to_pm1(unknot_surgery(coeff))) == expected


def _torsion_corpus(count=500, seed=170):
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < count:
        diagram = random_diagram(rng, k_max=3, m_max=4)
        if d3_report(diagram).torsion:
            corpus.append(diagram)
    return corpus


@criterion(6, "closed-form d3 equals the +-1 formula on 500 random and 100 singular torsion diagrams")
def test_d3_equality_randomized():
    def check(diagram):
        """The torsion flag and d3 equal their values on the expansion, and
        d3 the oracle's there; returns the flag."""
        report, expanded = d3_report(diagram), expand_to_pm1(diagram)
        on_expansion = d3_report(expanded)
        assert (report.torsion, report.d3) == (on_expansion.torsion, on_expansion.d3)
        if report.torsion:
            assert report.d3 == oracle_d3_pm1(expanded)
        return report.torsion

    # the draws of _torsion_corpus(), the non-torsion ones checked too
    rng, torsion = random.Random(170), 0
    while torsion < 500:
        torsion += check(random_diagram(rng, k_max=3, m_max=4))
    # det Q = 0, so b is not unique: the closed form, its value on the
    # expansion and the oracle each pick their own b
    singular = several = 0
    while singular < 100:
        diagram = singular_diagram(rng)
        if check(diagram):
            form = linking_matrix(diagram).form
            assert minimal_order_solve(form, [c.rot for c in diagram.components]).kernel_basis
            singular += 1
            several += any(c.coeff.magnitude > 1 for c in diagram.components) and diagram.k > 1
    assert several >= 30


@criterion(7, "signature relation and characteristic polynomial lift on the same corpus")
def test_signature_relation_randomized():
    for diagram in _torsion_corpus():
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

    # 50 random draws with a kernel, where tb_M from a shifted solution must
    # be the printed one; the +-1 invertible draws met on the way compare tb
    # with the oracle.
    constructed = [singular((1, 1), (1, 1)), singular((1, -1), (2, 2)),
                   singular((-3, 1), (0, 0))]
    rng = random.Random(5150)
    compared_tb = 0
    while len(constructed) < 53:
        diagram = random_diagram(rng, with_knot=True)
        solution = minimal_order_solve(linking_matrix(diagram).form, diagram.knots[0].lk)
        if solution is not None and solution.kernel_basis:
            constructed.append(diagram)
        elif (solution is not None and compared_tb < 100
              and all(c.coeff.magnitude == 1 for c in diagram.components)
              and fraction_det(linking_matrix(diagram).entries)):
            assert invariant_report(diagram, "K").tb == oracle_invariants(diagram, "K")[1]
            compared_tb += 1

    def pairing_ignores_the_solution(diagram):
        """Where Q*b = rot has a kernel, every b pairs alike with the weights
        m_i rot_i, and d3 equals its value on the expansion."""
        rot = [c.rot for c in diagram.components]
        solved = minimal_order_solve(linking_matrix(diagram).form, rot)
        if solved is None or not solved.kernel_basis:
            return False
        particular = [Fraction(x, solved.order) for x in solved.particular]
        weights = [c.coeff.magnitude * c.rot for c in diagram.components]
        base = sum(w * b for w, b in zip(weights, particular))
        for v in solved.kernel_basis:
            other = [b + Fraction(7, 2) * x for b, x in zip(particular, v)]
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
    # then random draws without a companion, until 40 diagrams had a kernel
    while exercised_pairing < 40:
        exercised_pairing += pairing_ignores_the_solution(random_diagram(rng))
    assert exercised_tb >= 53
    assert compared_tb == 100


@criterion(10, "front anchors and emit-diagram round trip")
def test_front_anchors(tmp_path, capsys):
    unknot = classical_invariants(parse_front((FRONTS / "unknot.front").read_text()))
    assert (unknot.tb, unknot.rot) == ((-1,), (0,))

    trefoil = classical_invariants(parse_front((FRONTS / "trefoil_max_tb.front").read_text()))
    assert trefoil.tb == (1,)

    split = classical_invariants(parse_front((FRONTS / "split_unknots.front").read_text()))
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
