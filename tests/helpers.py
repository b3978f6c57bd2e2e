"""Independent oracles and random generators shared by the test suite.

Everything here is deliberately written from scratch (permutation-expansion
determinants, plain Gaussian elimination, exhaustive search) so that it
never shares a code path with the library it checks.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from surgeon import CompanionKnot, ContactCoefficient, LegendrianComponent, SurgeryDiagram


# ---------------------------------------------------------------------------
# exact linear algebra oracles

def leibniz_det(matrix):
    """Determinant by direct permutation expansion (fine for n <= 5)."""
    n = len(matrix)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total


def t_mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]) if b else 0)]
            for i in range(len(a))]


def t_mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def char_poly(matrix):
    """Coefficients of det(x*I - M), highest power first, computed exactly.

    Faddeev-LeVerrier recursion; every division is exact over the integers.
    """
    n = len(matrix)
    coeffs = [1]
    aux = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = t_mat_mul(matrix, aux)
        trace = sum(am[i][i] for i in range(n))
        assert trace % k == 0, "Faddeev-LeVerrier trace not divisible by k"
        c = -(trace // k)
        coeffs.append(c)
        for i in range(n):
            am[i][i] += c
        aux = am
    return tuple(coeffs)


def rational_gauss_solve(matrix, vector):
    """Solve M*x = v over Q by plain row reduction; None if inconsistent."""
    rows = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(matrix, vector)]
    ncols = len(matrix[0]) if matrix else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None
    solution = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        solution[c] = rows[row_idx][-1]
    return solution


def rational_rank(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(matrix[0]) if matrix else 0
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def descartes_split(coeffs, dim):
    """(n_plus, n_zero, n_minus) for a monic polynomial with all-real roots,
    given as coefficients highest power first."""
    tail = list(coeffs)
    n_zero = 0
    while tail and tail[-1] == 0:
        tail.pop()
        n_zero += 1
    signs = [x for x in tail if x != 0]
    n_plus = sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))
    alt = [x if (len(tail) - 1 - i) % 2 == 0 else -x for i, x in enumerate(tail)]
    signs = [x for x in alt if x != 0]
    n_minus = sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))
    assert n_plus + n_minus + n_zero == dim
    return n_plus, n_zero, n_minus


def image_set(matrix, bound):
    """All values M*a for a in the integer box [-bound, bound]^ncols.

    Complete within the box, so membership decides box-bounded solvability.
    """
    ncols = len(matrix[0]) if matrix else 0
    out = set()
    for a in itertools.product(range(-bound, bound + 1), repeat=ncols):
        out.add(tuple(t_mat_vec(matrix, a)))
    return out


def random_int_matrix(rng: random.Random, nrows, ncols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def check_snf_invariants(matrix, snf):
    """U*M*V = D exactly, U and V unimodular, divisibility chain, zeros trail."""
    U = [list(r) for r in snf.U]
    V = [list(r) for r in snf.V]
    D = [list(r) for r in snf.D]
    assert t_mat_mul(t_mat_mul(U, [list(r) for r in matrix]), V) == D
    assert abs(leibniz_det(U)) == 1
    assert abs(leibniz_det(V)) == 1
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    seen_zero = False
    for i, d in enumerate(diag):
        if d == 0:
            seen_zero = True
        else:
            assert not seen_zero, "zero invariant factor before a nonzero one"
        if i + 1 < len(diag) and diag[i + 1] != 0:
            assert d != 0 and diag[i + 1] % d == 0
    for i in range(len(D)):
        for j in range(len(D[0]) if D else 0):
            if i != j:
                assert D[i][j] == 0


def count_calls(monkeypatch, module, name):
    """Wrap module.name in a counter for the rest of the test; the returned
    list grows by one entry per call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# ---------------------------------------------------------------------------
# random diagrams and fronts

def random_diagram(rng: random.Random, k_max=3, m_max=4, with_knot=False) -> SurgeryDiagram:
    k = rng.randint(1, k_max)
    components = []
    for i in range(k):
        tb = rng.randint(-3, 3)
        # keep tb + rot odd, |rot| small
        choices = [r for r in range(-3, 4) if (tb + r) % 2 == 1]
        rot = rng.choice(choices)
        coeff = ContactCoefficient(rng.choice((1, -1)), rng.randint(1, m_max))
        components.append(LegendrianComponent(f"C{i + 1}", tb, rot, coeff))
    linking = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            linking[i][j] = linking[j][i] = rng.randint(-2, 2)
    knots = ()
    if with_knot:
        knots = (CompanionKnot(
            "K", "legendrian", tuple(rng.randint(-2, 2) for _ in range(k)),
            tb=-1, rot=0),)
    return SurgeryDiagram(tuple(components), tuple(tuple(r) for r in linking), knots)


def random_front_text(rng: random.Random, max_events=14) -> str:
    """A legal random event string; every strand is closed at the end."""
    events = []
    strands = 0
    while len(events) < max_events:
        if strands == 0 and events and rng.random() < 0.35:
            break
        options = ["L"]
        if strands >= 2:
            options += ["R", "X", "X"]
        kind = rng.choice(options)
        if kind == "L":
            p = rng.randint(1, strands + 1)
            strands += 2
        else:
            p = rng.randint(1, strands - 1)
            if kind == "R":
                strands -= 2
        events.append(f"{kind}{p}")
    while strands > 0:
        p = rng.randint(1, strands - 1)
        events.append(f"R{p}")
        strands -= 2
    if not events:
        events = ["L1", "R1"]
    return " ".join(events)
