import random
from fractions import Fraction
from math import lcm

import surgeon.surgery
from surgeon import (
    ContactCoefficient,
    LegendrianComponent,
    SurgeryDiagram,
    d3_report,
    expand_to_pm1,
    linking_matrix,
    minimal_order_solve,
)

from helpers import (
    d3_via_expansion,
    fraction_det,
    oracle_d3_pm1,
    random_diagram,
    rational_gauss_solve,
    singular_diagram,
    t_linking_matrix,
    t_mat_vec,
    unknot_surgery,
)


def cokernel_order(matrix, v):
    """The order of v in Z^k / matrix * Z^k for a nonsingular matrix, from
    the oracle solve: the lcm of the denominators of matrix^-1 * v."""
    return lcm(*(x.denominator for x in rational_gauss_solve(matrix, v)))


def transpose(matrix):
    return [list(col) for col in zip(*matrix)]


class TestEulerClass:
    def test_vanishing_rotation(self):
        for coeff in ("+1", "-1", "+1/3"):
            ec = d3_report(unknot_surgery(coeff))
            assert ec.coefficients == (0,)
            assert ec.torsion
            assert ec.b == (0,)

    def test_coefficients_scale_with_magnitude(self):
        diagram = SurgeryDiagram(
            (LegendrianComponent("L", -2, 1, ContactCoefficient.parse("-1/3")),), ((0,),))
        assert d3_report(diagram).coefficients == (3,)

    def test_printed_vector_is_the_dual_on_push_off_meridians(self):
        # On the meridians mu_i, H_1 = Z^2 / Q Z^2 and PD(e) = rot, here 0.
        # The printed (m_i rot_i) is PD(e) in Z^2 / Q^T Z^2 (mu_i = m_i x_i);
        # in Z^2 / Q Z^2 it would have order 2.
        diagram = SurgeryDiagram(
            (LegendrianComponent("C1", 3, -2, ContactCoefficient.parse("+1")),
             LegendrianComponent("C2", 2, 3, ContactCoefficient.parse("-1/3"))),
            ((0, -2), (-2, 0)))
        q = t_linking_matrix(diagram)
        assert q == [[4, -6], [-2, 5]]
        assert d3_report(diagram).coefficients == (-2, 9)
        assert rational_gauss_solve(q, [-2, 3]) == [1, 1]
        assert rational_gauss_solve(q, [-2, 9]) == [Fraction(11, 2), 4]
        assert rational_gauss_solve(transpose(q), [-2, 9]) == [1, 3]

    def test_order_of_the_printed_vector(self):
        # With det Q != 0 and some m > 1, the printed vector has the same
        # order in coker Q^T as rot in coker Q and as the expansion's rot in
        # its own cokernel; its order in coker Q differs on some draws.
        rng = random.Random(2305)
        checked = differs = 0
        while checked < 200:
            diagram = random_diagram(rng)
            q = t_linking_matrix(diagram)
            if all(c.coeff.magnitude == 1 for c in diagram.components) or fraction_det(q) == 0:
                continue
            order = cokernel_order(q, [c.rot for c in diagram.components])
            printed = list(d3_report(diagram).coefficients)
            assert cokernel_order(transpose(q), printed) == order, diagram
            expanded = expand_to_pm1(diagram)
            assert cokernel_order(t_linking_matrix(expanded),
                                  [c.rot for c in expanded.components]) == order, diagram
            differs += cokernel_order(q, printed) != order
            checked += 1
        assert differs > 0

    def test_non_torsion(self):
        diagram = SurgeryDiagram(
            (LegendrianComponent("axis", -1, 2, ContactCoefficient.parse("+1")),), ((0,),))
        ec = d3_report(diagram)
        assert not ec.torsion
        assert ec.b is None
        assert d3_report(diagram).d3 is None
        assert d3_via_expansion(diagram) is None


class TestUnknotFamily:
    def test_closed_form_never_expands(self, monkeypatch):
        # The same family at n = 10**6: the closed form's cost must not
        # depend on n, so the push-off expansion may not run at all.
        def refuse(_diagram):
            raise AssertionError("d3_report expanded the diagram")

        monkeypatch.setattr(surgeon.surgery, "expand_to_pm1", refuse)
        n = 10 ** 6
        assert d3_report(unknot_surgery(f"+1/{n}")).d3 == 1 - Fraction(n, 4)
        assert d3_report(unknot_surgery(f"-1/{n}")).d3 == Fraction(n, 4) - Fraction(1, 2)


class TestPm1Formula:
    """The classical +-1 formula, by the independent oracle, against the
    closed form, which must reduce to it when every m_i = 1."""

    def test_plus_one_unknot(self):
        # Q = [0], sigma = 0, k = 1, one +1 coefficient
        assert oracle_d3_pm1(unknot_surgery("+1")) == 0
        assert d3_report(unknot_surgery("+1")).d3 == 0

    def test_expanded_plus_half(self):
        expanded = expand_to_pm1(unknot_surgery("+1/2"))
        assert linking_matrix(expanded).entries == ((0, -1), (-1, 0))
        assert oracle_d3_pm1(expanded) == Fraction(1, 2)
        assert d3_report(expanded).d3 == Fraction(1, 2)

    def test_expanded_minus_half(self):
        expanded = expand_to_pm1(unknot_surgery("-1/2"))
        assert linking_matrix(expanded).entries == ((-2, -1), (-1, -2))
        assert oracle_d3_pm1(expanded) == 0
        assert d3_report(expanded).d3 == 0

    def test_empty_diagram_is_standard_tight_sphere(self):
        assert oracle_d3_pm1(SurgeryDiagram((), ())) == Fraction(-1, 2)
        assert d3_report(SurgeryDiagram((), ())).d3 == Fraction(-1, 2)


def test_b_depends_on_q_and_rot_alone():
    # Replacing (tb, s) by (tb + 2s, -s) keeps Q_ii = tb + s and the parity
    # of tb + rot, so a +-1 diagram keeps Q and rot while its d3 moves by
    # the flipped signs.  The report's b, and the a = d*b it comes from,
    # must not change, and a is reduced into [0, v[p]) at the pivot p of
    # each kernel vector v.
    rng = random.Random(1405)
    checked = 0
    while checked < 40:
        diagram = singular_diagram(rng, k_max=4, m_max=1)
        report = d3_report(diagram)
        if not report.torsion:
            continue
        q = linking_matrix(diagram)
        rot = [c.rot for c in diagram.components]
        solved = minimal_order_solve(q.form, rot)
        assert t_mat_vec(q.entries, report.b) == rot
        assert report.b == tuple(Fraction(x, solved.order) for x in solved.particular)
        for v in solved.kernel_basis:
            p = next(j for j, x in enumerate(v) if x)
            assert 0 <= solved.particular[p] < v[p]
        flips = [rng.random() < 0.5 for _ in diagram.components]
        flipped = diagram._replace(components=tuple(
            c._replace(tb=c.tb + 2 * c.coeff.sign, coeff=ContactCoefficient(-c.coeff.sign, 1))
            if flip else c for c, flip in zip(diagram.components, flips)))
        assert linking_matrix(flipped).entries == q.entries
        assert d3_report(flipped).b == report.b
        checked += 1
