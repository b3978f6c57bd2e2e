"""Metamorphic relations from the theory, checked on random diagrams.

Each test transforms a diagram in a way whose effect on the invariants is
known and compares the reports exactly:

* reversing every orientation negates rot and the Euler class and keeps
  the rest;
* permuting the surgery components changes nothing, up to the choice of
  relative homology class (the reported rot shifts);
* Ding-Geiges cancellation: a +1 surgery on a Legendrian unknot L and a -1
  surgery on its push-off L', unlinked from the rest, cancel (Ding and
  Geiges, Math. Proc. Camb. Phil. Soc. 136, 2004).
"""

import random
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

from surgeon import (
    CompanionKnot,
    ContactCoefficient,
    LegendrianComponent,
    SurgeryDiagram,
    d3_closed_form,
    d3_via_expansion,
    euler_class,
    homology,
    invariant_report,
    linking_matrix,
)

from helpers import random_diagram, t_mat_vec

DRAWS = 300


def _legendrian(rng, tb_range=(-3, 3), rot_bound=3):
    tb = rng.randint(*tb_range)
    return tb, rng.choice([r for r in range(-rot_bound, rot_bound + 1) if (tb + r) % 2])


def random_case(rng):
    """A random diagram (k <= 3, m <= 4) with a Legendrian companion K and
    a transverse companion T, both with random data."""
    diagram = random_diagram(rng, k_max=3, m_max=4, with_knot=True)
    tb, rot = _legendrian(rng)
    lk = [tuple(rng.randint(-2, 2) for _ in range(diagram.k)) for _ in range(2)]
    knots = (CompanionKnot("K", "legendrian", lk[0], tb=tb, rot=rot),
             CompanionKnot("T", "transverse", lk[1], sl=rng.choice((-3, -1, 1)),
                           transverse_sign=rng.choice((1, -1))))
    return replace(diagram, knots=knots)


def reports(diagram):
    return {w.name: invariant_report(diagram, w.name) for w in diagram.knots}


def d3_values(diagram):
    return d3_closed_form(diagram), d3_via_expansion(diagram)


def in_shift_span(x, shifts):
    """Whether x lies in the Z-span of the reported rot shifts."""
    values = [s for _, s in shifts]
    if not any(values):
        return x == 0
    den = lcm(*(Fraction(v).denominator for v in values), Fraction(x).denominator)
    step = gcd(*(int(v * den) for v in values))
    return int(x * den) % step == 0


def assert_same_up_to_shifts(before, after):
    assert before.order == after.order
    assert before.tb == after.tb
    if before.order is None:
        return
    value = "rot" if before.kind == "legendrian" else "sl"
    delta = getattr(after, value) - getattr(before, value)
    assert in_shift_span(delta, before.seifert_shifts), (before, after)


def test_reversing_every_orientation():
    rng = random.Random(1701)
    for _ in range(DRAWS):
        diagram = random_case(rng)
        reversed_ = SurgeryDiagram(
            tuple(replace(c, rot=-c.rot) for c in diagram.components),
            diagram.linking,
            tuple(replace(w, rot=-w.rot) if w.is_legendrian
                  else replace(w, transverse_sign=-w.transverse_sign) for w in diagram.knots))
        before, after = reports(diagram), reports(reversed_)
        for name in before:
            b, a = before[name], after[name]
            assert (a.order, a.tb, a.sl) == (b.order, b.tb, b.sl), diagram
            if b.rot is not None:
                assert a.rot == -b.rot, diagram
            assert [s for _, s in a.seifert_shifts] == [-s for _, s in b.seifert_shifts]
        assert homology(linking_matrix(reversed_)) == homology(linking_matrix(diagram))
        assert d3_values(reversed_) == d3_values(diagram), diagram
        ec, ec_rev = euler_class(diagram), euler_class(reversed_)
        assert ec_rev.coefficients == tuple(-c for c in ec.coefficients)
        assert ec_rev.torsion == ec.torsion
        if ec.torsion:
            # -b solves the reversed system; the two choices differ by a kernel vector
            q = linking_matrix(diagram).entries
            assert t_mat_vec(q, [x + y for x, y in zip(ec.b, ec_rev.b)]) == [0] * diagram.k


def test_permuting_the_surgery_components():
    rng = random.Random(1702)
    for _ in range(DRAWS):
        diagram = random_case(rng)
        order = list(range(diagram.k))
        rng.shuffle(order)
        permuted = SurgeryDiagram(
            tuple(diagram.components[i] for i in order),
            tuple(tuple(diagram.linking[i][j] for j in order) for i in order),
            tuple(replace(w, lk=tuple(w.lk[i] for i in order)) for w in diagram.knots))
        before, after = reports(diagram), reports(permuted)
        for name in before:
            assert_same_up_to_shifts(before[name], after[name])
        assert homology(linking_matrix(permuted)) == homology(linking_matrix(diagram))
        assert d3_values(permuted) == d3_values(diagram), diagram


def test_ding_geiges_cancellation():
    rng = random.Random(1703)
    for _ in range(DRAWS):
        diagram = random_case(rng)
        # a Legendrian unknot: tb <= -1, |rot| <= -tb - 1, tb + rot odd
        tb = rng.randint(-4, -1)
        rot = rng.choice(range(tb + 1, -tb, 2))
        k = diagram.k
        pair = (LegendrianComponent("L", tb, rot, ContactCoefficient(1, 1)),
                LegendrianComponent("L'", tb, rot, ContactCoefficient(-1, 1)))
        cancelled = SurgeryDiagram(
            diagram.components + pair,
            tuple(row + (0, 0) for row in diagram.linking)
            + ((0,) * k + (0, tb), (0,) * k + (tb, 0)),
            tuple(replace(w, lk=w.lk + (0, 0)) for w in diagram.knots))
        before, after = reports(diagram), reports(cancelled)
        for name in before:
            assert_same_up_to_shifts(before[name], after[name])
        assert homology(linking_matrix(cancelled)) == homology(linking_matrix(diagram))
        assert d3_values(cancelled) == d3_values(diagram), diagram
