"""Metamorphic relations from the theory, checked on random diagrams.

Each test transforms a diagram in a way whose effect on the invariants is
known and compares the reports exactly:

* reversing every orientation negates rot and the Euler class and keeps
  the rest;
* permuting the surgery components changes nothing, up to the choice of
  relative homology class (the reported rot shifts);
* Ding-Geiges cancellation: a +1 surgery on a Legendrian unknot L and a -1
  surgery on its push-off L', unlinked from the rest, cancel (Ding and
  Geiges, Math. Proc. Camb. Phil. Soc. 136, 2004);
* the +-1 expansion keeps every companion's order, tb, rot and sl, so the
  1/n formulas agree with their +-1 case on the expanded diagram (rot and
  sl up to the reported shifts where the relative homology class is not
  unique);
* a handle slide, in its linking-matrix shadow (Ding and Geiges, "Handle
  moves in contact surgery diagrams", J. Topol. 2, 2009): on a +-1 diagram
  with an elementary matrix E, Q' = E*Q*E^T, rot' = E*rot and lk' = E*lk
  keep d3, H_1, sigma(Q) and every companion's invariants.  No claim is
  made about a Legendrian realisation of the slid knot.

Each relation runs on DRAWS random diagrams and then on SINGULAR_DRAWS
diagrams with det Q = 0, where the solutions a and b are not unique.
Each also runs on a few dense diagrams with k = 8 to 12 (`dense_cases`;
the expansion on copies with two components at +-1/2) and on diagrams read
from chain fronts (`chain_front` with k = 8 to 16, and `kernel_chain_front`
with k = 9 and 13, whose Q has a one-dimensional kernel; the handle slide
on their +-1 expansion), under a CPU limit.  On a chain front, toggling
"reversed" in every header must give the reversed diagram of the relation
above: every rot negated, every tb and lk unchanged.  Reading a chain
front's companion as its transverse push-off of sign t must keep the
order and the Seifert shifts and give sl_M = tb_M - t * rot_M.
"""

import random
from fractions import Fraction
from math import gcd, lcm

from surgeon import (
    CompanionKnot,
    ContactCoefficient,
    LegendrianComponent,
    SurgeryDiagram,
    d3_report,
    diagram_signature,
    expand_to_pm1,
    homology,
    invariant_report,
    linking_matrix,
)

from helpers import (
    cpu_limit,
    d3_via_expansion,
    dense_diagram,
    fraction_det,
    front_diagram,
    random_diagram,
    singular_diagram,
    t_linking_matrix,
    t_mat_mul,
    t_mat_vec,
)

DRAWS = 300
SINGULAR_DRAWS = 200


def _legendrian(rng, tb_range=(-3, 3), rot_bound=3):
    tb = rng.randint(*tb_range)
    return tb, rng.choice([r for r in range(-rot_bound, rot_bound + 1) if (tb + r) % 2])


def random_case(rng, singular=False, k_max=3, m_max=4):
    """A random diagram (k <= k_max, m <= m_max), singular when asked, with
    a Legendrian companion K and a transverse companion T, both with random
    data."""
    draw = singular_diagram if singular else random_diagram
    diagram = draw(rng, k_max=k_max, m_max=m_max, with_knot=True)
    tb, rot = _legendrian(rng)
    lk = [tuple(rng.randint(-2, 2) for _ in range(diagram.k)) for _ in range(2)]
    knots = (CompanionKnot("K", "legendrian", lk[0], tb=tb, rot=rot),
             CompanionKnot("T", "transverse", lk[1], sl=rng.choice((-3, -1, 1)),
                           transverse_sign=rng.choice((1, -1))))
    return diagram._replace(knots=knots)


def dense_cases(rng):
    """Dense +-1 diagrams with k = 8, 10 and 12, with companions K1, K2
    and T1."""
    return [dense_diagram(rng, k) for k in (8, 10, 12)]


def _zigzags(rng, j):
    """Up to two random zigzags on the strand at position j: "L<j+1> R<j>"
    or "L<j> R<j+1>", one per rot direction."""
    events = []
    for _ in range(rng.randint(0, 2)):
        events += rng.choice(([f"L{j + 1}", f"R{j}"], [f"L{j}", f"R{j + 1}"]))
    return events


def chain_front(rng, k, toggled=False):
    """Front text of k clasped unknots C1..Ck and a Legendrian companion K
    clasping Ck, each traversed a random way and carrying up to two random
    zigzags, so tb <= -1 and rot varies.  Coefficients are +-1 and +-1/2,
    with C1 at +-1/2 so that the expansion is never the identity.  The same
    rng state with `toggled` gives the same front with every "reversed"
    toggled."""
    coeffs = [rng.choice(("+1/2", "-1/2"))] + [rng.choice(("+1", "-1", "+1/2", "-1/2"))
                                               for _ in range(k - 1)]
    headers = [f"surgery C{j + 1} coeff {c}" for j, c in enumerate(coeffs)]
    headers.append("companion K legendrian")
    headers = [h + " reversed" if (rng.random() < 0.5) != toggled else h for h in headers]
    # Unknot j opens with its upper strand at position j, carries its
    # zigzags there, and the clasp crosses it twice with the upper strand of
    # unknot j - 1.
    events = []
    for j in range(1, k + 2):
        events += [f"L{j}", *_zigzags(rng, j)]
        if j > 1:
            events += [f"X{j - 1}", f"X{j - 1}"]
    events += [f"R{j}" for j in range(k + 1, 0, -1)]
    return "\n".join(headers) + "\nevents:\n" + " ".join(events) + "\n"


def kernel_chain_front(rng, k):
    """Front text of k clasped unknots C1..Ck, k odd, and a Legendrian
    companion K clasping one C_j at a random even position j.  The unknots
    at odd positions carry coefficient +1 and no zigzag (tb = -1), so their
    diagonal entries of Q are 0 and Q has the one-dimensional kernel
    (1, 0, +-1, 0, ..., +-1), which is 0 at every even position.  So K's
    lk lies in the rational image and K has one Seifert shift.  The unknots
    at even positions carry up to two zigzags and coefficients +-1 and
    +-1/2, with C2 at +-1/2 so that the expansion is never the identity."""
    clasp = rng.randrange(2, k, 2)
    coeffs = ["+1" if j % 2 else rng.choice(("+1", "-1", "+1/2", "-1/2")) for j in range(1, k + 1)]
    coeffs[1] = rng.choice(("+1/2", "-1/2"))
    headers = [f"surgery C{j + 1} coeff {c}" for j, c in enumerate(coeffs)]
    headers.insert(clasp, "companion K legendrian")  # K is traced right after C_clasp
    headers = [h + " reversed" if rng.random() < 0.5 else h for h in headers]
    # As in chain_front; K opens right below the upper strand of C_clasp,
    # clasps it and closes before C_(clasp + 1) opens.
    events = []
    for j in range(1, k + 1):
        events += [f"L{j}", *(_zigzags(rng, j) if j % 2 == 0 else ())]
        if j > 1:
            events += [f"X{j - 1}", f"X{j - 1}"]
        if j == clasp:
            events += [f"L{j + 1}", *_zigzags(rng, j + 1), f"X{j}", f"X{j}", f"R{j + 1}"]
    events += [f"R{j}" for j in range(k, 0, -1)]
    return "\n".join(headers) + "\nevents:\n" + " ".join(events) + "\n"


def chain_cases(seed):
    """Chain-front diagrams with k = 8, 12 and 16, after checking that some
    component has rot != 0, and kernel chain fronts with k = 9 and 13,
    after checking that det Q = 0; each with the rng that drew it and its
    front text."""
    cases = []
    for k in (8, 12, 16):
        rng = random.Random(seed * 100 + k)
        text = chain_front(rng, k)
        diagram = front_diagram(text)
        assert any(c.rot for c in diagram.components), diagram
        cases.append((rng, text, diagram))
    for k in (9, 13):
        rng = random.Random(seed * 100 + k)
        text = kernel_chain_front(rng, k)
        diagram = front_diagram(text)
        assert fraction_det(t_linking_matrix(diagram)) == 0, diagram
        cases.append((rng, text, diagram))
    return cases


def reports(diagram):
    return {w.name: invariant_report(diagram, w.name) for w in diagram.knots}


def d3_values(diagram):
    return d3_report(diagram).d3, d3_via_expansion(diagram)


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


def reverse(diagram):
    """The diagram with every orientation reversed: rot and the transverse
    sign negate, tb and lk stay."""
    return SurgeryDiagram(
        tuple(c._replace(rot=-c.rot) for c in diagram.components),
        diagram.linking,
        tuple(w._replace(rot=-w.rot) if w.is_legendrian
              else w._replace(transverse_sign=-w.transverse_sign) for w in diagram.knots))


def check_reversal(diagram):
    reversed_ = reverse(diagram)
    before, after = reports(diagram), reports(reversed_)
    for name in before:
        b, a = before[name], after[name]
        assert (a.order, a.tb, a.sl) == (b.order, b.tb, b.sl), diagram
        if b.rot is not None:
            assert a.rot == -b.rot, diagram
        assert [s for _, s in a.seifert_shifts] == [-s for _, s in b.seifert_shifts]
    assert homology(linking_matrix(reversed_)) == homology(linking_matrix(diagram))
    assert d3_values(reversed_) == d3_values(diagram), diagram
    ec, ec_rev = d3_report(diagram), d3_report(reversed_)
    assert ec_rev.coefficients == tuple(-c for c in ec.coefficients)
    assert ec_rev.torsion == ec.torsion
    if ec.torsion:
        # -b solves the reversed system; the two choices differ by a kernel vector
        q = linking_matrix(diagram).entries
        assert t_mat_vec(q, [x + y for x, y in zip(ec.b, ec_rev.b)]) == [0] * diagram.k


def test_reversing_every_orientation():
    rng = random.Random(1701)
    for i in range(DRAWS + SINGULAR_DRAWS):
        check_reversal(random_case(rng, singular=i >= DRAWS))
    for diagram in dense_cases(rng):
        with cpu_limit(10):
            check_reversal(diagram)
    for _, _, diagram in chain_cases(1701):
        with cpu_limit(10):
            check_reversal(diagram)


def test_reversing_every_front_header():
    for k in (8, 12, 16):
        diagram = front_diagram(chain_front(random.Random(k), k))
        toggled = front_diagram(chain_front(random.Random(k), k, toggled=True))
        assert any(c.rot for c in diagram.components), diagram
        assert toggled == reverse(diagram)


def test_transverse_front_header_is_the_pushoff():
    # Reading the chain fronts' K as its transverse push-off of sign t keeps
    # the order and the Seifert shifts, and sl_M = tb_M - t * rot_M.
    compared = 0
    for seed in range(1701, 1706):
        for _, text, diagram in chain_cases(seed):
            legendrian = invariant_report(diagram, "K")
            for word, t in (("positive", 1), ("negative", -1)):
                header = f"companion K transverse {word}"
                transverse = invariant_report(
                    front_diagram(text.replace("companion K legendrian", header)), "K")
                assert transverse.kind == "transverse", text
                assert (transverse.order, transverse.seifert_shifts) == (
                    legendrian.order, legendrian.seifert_shifts), text
                if legendrian.order is not None:
                    assert transverse.sl == legendrian.tb - t * legendrian.rot, text
                    compared += 1
    assert compared > 0


def check_permutation(rng, diagram):
    order = list(range(diagram.k))
    rng.shuffle(order)
    permuted = SurgeryDiagram(
        tuple(diagram.components[i] for i in order),
        tuple(tuple(diagram.linking[i][j] for j in order) for i in order),
        tuple(w._replace(lk=tuple(w.lk[i] for i in order)) for w in diagram.knots))
    before, after = reports(diagram), reports(permuted)
    for name in before:
        assert_same_up_to_shifts(before[name], after[name])
    assert homology(linking_matrix(permuted)) == homology(linking_matrix(diagram))
    assert d3_values(permuted) == d3_values(diagram), diagram


def test_permuting_the_surgery_components():
    rng = random.Random(1702)
    for i in range(DRAWS + SINGULAR_DRAWS):
        check_permutation(rng, random_case(rng, singular=i >= DRAWS))
    for diagram in dense_cases(rng):
        with cpu_limit(10):
            check_permutation(rng, diagram)
    for rng, _, diagram in chain_cases(1702):
        with cpu_limit(10):
            check_permutation(rng, diagram)


def check_cancellation(rng, diagram):
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
        tuple(w._replace(lk=w.lk + (0, 0)) for w in diagram.knots))
    before, after = reports(diagram), reports(cancelled)
    for name in before:
        assert_same_up_to_shifts(before[name], after[name])
    assert homology(linking_matrix(cancelled)) == homology(linking_matrix(diagram))
    assert d3_values(cancelled) == d3_values(diagram), diagram


def test_ding_geiges_cancellation():
    rng = random.Random(1703)
    for i in range(DRAWS + SINGULAR_DRAWS):
        check_cancellation(rng, random_case(rng, singular=i >= DRAWS))
    for diagram in dense_cases(rng):
        with cpu_limit(10):
            check_cancellation(rng, diagram)
    for rng, _, diagram in chain_cases(1703):
        with cpu_limit(10):
            check_cancellation(rng, diagram)


def check_expansion(diagram):
    """Compare every companion's report before and after the +-1 expansion;
    returns how many were compared exactly and how many up to the shifts."""
    before, after = reports(diagram), reports(expand_to_pm1(diagram))
    exact = 0
    for name in before:
        b, a = before[name], after[name]
        # order and tb never depend on the chosen solution
        assert (a.order, a.tb) == (b.order, b.tb), diagram
        if b.unique_class and a.unique_class:
            assert (a.rot, a.sl) == (b.rot, b.sl), diagram
            exact += 1
        else:
            assert_same_up_to_shifts(b, a)
    return exact, len(before) - exact


def test_companion_invariants_survive_the_expansion():
    rng = random.Random(1704)
    compared = shifted = 0
    for i in range(DRAWS + SINGULAR_DRAWS):
        exact, up_to_shifts = check_expansion(random_case(rng, singular=i >= DRAWS))
        compared += exact
        shifted += up_to_shifts
    assert compared > DRAWS
    assert shifted > 0
    for diagram in dense_cases(rng):
        # two components at +-1/2, so the expansion has its own Q, b and sigma
        halved = diagram._replace(components=tuple(
            c._replace(coeff=ContactCoefficient(c.coeff.sign, 2)) if i < 2 else c
            for i, c in enumerate(diagram.components)))
        with cpu_limit(10):
            check_expansion(halved)
            closed, via_expansion = d3_values(halved)
            assert closed == via_expansion, halved
    for _, _, diagram in chain_cases(1704):
        with cpu_limit(10):
            check_expansion(diagram)
            closed, via_expansion = d3_values(diagram)
            assert closed == via_expansion, diagram


def handle_slide(rng, diagram):
    """Slide a random component i of a +-1 diagram over another one j:
    E = I + e*E_ij with e = +-1, Q' = E*Q*E^T, rot' = E*rot, lk' = E*lk
    for each companion, and tb'_i = Q'_ii - s_i."""
    k = diagram.k
    i, j = rng.sample(range(k), 2)
    e = [[int(r == c) for c in range(k)] for r in range(k)]
    e[i][j] = rng.choice((1, -1))
    q = t_mat_mul(t_mat_mul(e, t_linking_matrix(diagram)), [list(col) for col in zip(*e)])
    rot = t_mat_vec(e, [c.rot for c in diagram.components])
    return SurgeryDiagram(
        tuple(c._replace(tb=q[r][r] - c.coeff.sign, rot=rot[r])
              for r, c in enumerate(diagram.components)),
        tuple(tuple(0 if r == c else q[r][c] for c in range(k)) for r in range(k)),
        tuple(w._replace(lk=tuple(t_mat_vec(e, w.lk))) for w in diagram.knots))


def check_handle_slide(rng, diagram):
    slid = handle_slide(rng, diagram)
    before, after = d3_report(diagram), d3_report(slid)
    assert (after.d3, after.homology) == (before.d3, before.homology), diagram
    assert diagram_signature(linking_matrix(slid)) == diagram_signature(linking_matrix(diagram))
    slid_reports = reports(slid)
    for name, report in reports(diagram).items():
        assert_same_up_to_shifts(report, slid_reports[name])


def test_handle_slides():
    rng = random.Random(1705)
    for i in range(DRAWS + SINGULAR_DRAWS):
        diagram = random_case(rng, singular=i >= DRAWS, k_max=4, m_max=1)
        while diagram.k < 2:
            diagram = random_case(rng, singular=i >= DRAWS, k_max=4, m_max=1)
        check_handle_slide(rng, diagram)
    for diagram in dense_cases(rng):
        with cpu_limit(10):
            check_handle_slide(rng, diagram)
    for rng, _, diagram in chain_cases(1705):
        with cpu_limit(10):
            check_handle_slide(rng, expand_to_pm1(diagram))
