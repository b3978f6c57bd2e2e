"""Independent oracles and random generators shared by the test suite.

Everything here is deliberately written from scratch (permutation-expansion
determinants, plain Gaussian elimination, exhaustive search) so that it
never shares a code path with the library it checks.  The exceptions,
`count_calls`, `d3_via_expansion` and `front_diagram`, call the library
and say so.
"""

from __future__ import annotations

import contextlib
import itertools
import random
import signal
from fractions import Fraction
from math import gcd, lcm

import surgeon
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


def fraction_det(matrix):
    """Determinant as the signed product of the pivots of plain Gaussian
    elimination over the rationals (for sizes beyond `leibniz_det`)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


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


def fraction_signature(matrix):
    """(n_plus, n_zero, n_minus) of a symmetric integer matrix by congruence
    diagonalization over the rationals, counting the signs of the pivots.

    A zero diagonal with a nonzero off-diagonal entry is repaired by adding
    that row and column, which makes a nonzero pivot.
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    n_plus = n_minus = n_zero = 0
    for t in range(n):
        if a[t][t] == 0:
            swap = next((j for j in range(t + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[t], a[swap] = a[swap], a[t]
                for row in a:
                    row[t], row[swap] = row[swap], row[t]
            else:
                other = next((i for i in range(t + 1, n) if a[i][t] != 0), None)
                if other is None:
                    n_zero += 1
                    continue
                a[t] = [x + y for x, y in zip(a[t], a[other])]
                for row in a:
                    row[t] = row[t] + row[other]
        pivot = a[t][t]
        if pivot > 0:
            n_plus += 1
        else:
            n_minus += 1
        for i in range(t + 1, n):
            if a[i][t] == 0:
                continue
            f = a[i][t] / pivot
            a[i] = [x - f * y for x, y in zip(a[i], a[t])]
            for row in a:
                row[i] = row[i] - f * row[t]
    return n_plus, n_zero, n_minus


def tridiagonal_signature(matrix):
    """(n_plus, n_zero, n_minus) of a symmetric tridiagonal integer matrix by
    Jacobi's rule: when no leading principal minor D_1, ..., D_n is 0, the
    number of negative eigenvalues is the number of sign changes in
    1, D_1, ..., D_n.  The minors are continuants,
    D_i = a_ii D_(i-1) - a_i,i-1 a_i-1,i D_(i-2).  Falls back on
    `fraction_signature` when some D_i is 0."""
    minors = [1]
    for i, row in enumerate(matrix):
        minors.append(row[i] * minors[-1] - (row[i - 1] * matrix[i - 1][i] * minors[-2] if i else 0))
    if 0 in minors:
        return fraction_signature(matrix)
    n_minus = sum(1 for a, b in zip(minors, minors[1:]) if (a > 0) != (b > 0))
    return len(matrix) - n_minus, 0, n_minus


def random_block_symmetric(rng: random.Random, n):
    """A random symmetric n x n integer matrix that is block diagonal up to a
    random symmetric permutation.  Each block is a path (tridiagonal in the
    block's order, mostly zero on the diagonal, nonzero off it), or a rank
    one block c*v*v^T, whose rows turn zero once one of them is a pivot.  So
    an elimination meets zero diagonals after pivots elsewhere, rows that no
    pivot touches for many steps, and zero rows that appear mid-sweep."""
    order = list(range(n))
    rng.shuffle(order)
    matrix = [[0] * n for _ in range(n)]
    start = 0
    while start < n:
        block = order[start:start + rng.randint(1, max(1, n // 2))]
        start += len(block)
        if rng.random() < 0.25:
            c = rng.choice((-2, -1, 1, 2))
            v = [rng.randint(-2, 2) for _ in block]
            for x, i in zip(v, block):
                for y, j in zip(v, block):
                    matrix[i][j] = c * x * y
            continue
        for t, i in enumerate(block):
            matrix[i][i] = rng.choice((0, 0, 0, rng.randint(-3, 3)))
            if t:
                matrix[i][block[t - 1]] = matrix[block[t - 1]][i] = rng.choice((-2, -1, 1, 2))
    return matrix


def random_symmetric(rng: random.Random, n, family):
    """A random symmetric n x n integer matrix from one of three families:
    "sparse" (about 40 % of entries in [-3, 3]), "zero-diagonal" (half the
    off-diagonal entries in [-2, 2]) and "gram" (B^T diag(+-1) B with B of
    random rank, so often singular)."""
    if family == "gram":
        r = rng.randint(0, n)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        s = [rng.choice((1, -1)) for _ in range(r)]
        return [[sum(b[t][i] * s[t] * b[t][j] for t in range(r)) for j in range(n)]
                for i in range(n)]
    density, bound, off_diagonal = {"sparse": (0.4, 3, 0), "zero-diagonal": (0.5, 2, 1)}[family]
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + off_diagonal, n):
            if rng.random() < density:
                matrix[i][j] = matrix[j][i] = rng.randint(-bound, bound)
    return matrix


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


def determinantal_factors(matrix):
    """Smith diagonal from the determinantal divisors: d_1 * ... * d_i is
    the gcd of the i x i minors (by `leibniz_det`), and every factor past
    the rank is 0.  Fine while the smaller side is at most 5."""
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    factors, previous = [], 1
    for i in range(1, min(nrows, ncols) + 1):
        divisor = gcd(*(leibniz_det([[matrix[r][c] for c in cols] for r in rows])
                        for rows in itertools.combinations(range(nrows), i)
                        for cols in itertools.combinations(range(ncols), i)))
        if divisor == 0:
            return tuple(factors) + (0,) * (min(nrows, ncols) - len(factors))
        factors.append(divisor // previous)
        previous = divisor
    return tuple(factors)


def diagonal_factors(entries, size):
    """Smith diagonal of a matrix whose smaller side is `size` and whose
    nonzero entries, all on the diagonal, are `entries`: factor each by
    trial division, then the t-th largest power of each prime goes into the
    t-th factor from the last nonzero one.  Zeros trail."""
    nonzero = [abs(x) for x in entries if x]
    exponents = {}  # prime -> its exponent in each entry it divides
    for x in nonzero:
        p = 2
        while x > 1:
            if p * p > x:
                p = x
            e = 0
            while x % p == 0:
                x, e = x // p, e + 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    factors = [1] * len(nonzero)
    for p, es in exponents.items():
        for t, e in enumerate(sorted(es, reverse=True)):
            factors[len(nonzero) - 1 - t] *= p ** e
    return tuple(factors) + (0,) * (size - len(nonzero))


def smith_oracle(matrix):
    """The Smith diagonal by `diagonal_factors` when every nonzero entry is
    on the diagonal, by `determinantal_factors` when the smaller side is at
    most 5, and None otherwise."""
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    if all(x == 0 for i, row in enumerate(matrix) for j, x in enumerate(row) if i != j):
        return diagonal_factors([matrix[i][i] for i in range(min(nrows, ncols))], min(nrows, ncols))
    if min(nrows, ncols) <= 5:
        return determinantal_factors(matrix)
    return None


NON_DIVIDING_ENTRIES = (0, 2, 3, 4, 6, 9, 10, 12, 15, 30)


def non_dividing_family(rng: random.Random, count, k_max=7):
    """`count` pairs (matrix, its Smith diagonal) with entries drawn from
    NON_DIVIDING_ENTRIES, so that the diagonal the Smith passes reach has
    many pairs where one entry does not divide a later one, and some zeros.
    A third each: square diagonal, rectangular diagonal, and block diagonal
    (square or rectangular) with blocks of at most 3 x 3, whose diagonal is
    `diagonal_factors` of its blocks' `determinantal_factors`."""
    out = []
    for t in range(count):
        nrows = rng.randint(1, k_max)
        ncols = nrows if t % 3 == 0 else rng.randint(1, k_max)
        size = min(nrows, ncols)
        matrix = [[0] * ncols for _ in range(nrows)]
        if t % 3 < 2:
            for i in range(size):
                matrix[i][i] = rng.choice(NON_DIVIDING_ENTRIES)
            out.append((matrix, diagonal_factors([matrix[i][i] for i in range(size)], size)))
            continue
        blocks, r, c = [], 0, 0
        while r < nrows and c < ncols:
            h, w = rng.randint(1, 3), rng.randint(1, 3)
            block = [[rng.choice(NON_DIVIDING_ENTRIES) for _ in range(w)] for _ in range(h)]
            block = [row[:ncols - c] for row in block[:nrows - r]]
            for i, row in enumerate(block):
                matrix[r + i][c:c + len(row)] = row
            blocks.append(block)
            r, c = r + len(block), c + len(block[0])
        entries = [d for block in blocks for d in determinantal_factors(block)]
        out.append((matrix, diagonal_factors(entries, size)))
    return out


def count_calls(monkeypatch, module, name):
    """Wrap module.name in a counter for the rest of the test; the returned
    list grows by one entry per call.  Layers call each other's functions
    through the defining module, so the counter sees the calls of all."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class CpuLimitExceeded(AssertionError):
    """Raised inside a `cpu_limit` block that ran over its CPU time."""


@contextlib.contextmanager
def cpu_limit(seconds):
    """Fail the enclosed block once it has used `seconds` of CPU time.

    A regression that makes exact arithmetic blow up then fails the test
    with a message instead of hanging the suite.  Uses ITIMER_PROF and
    restores the previous timer and SIGPROF handler on exit.
    """
    def expire(signum, frame):
        raise CpuLimitExceeded(f"over the {seconds} s CPU time limit")

    previous_handler = signal.signal(signal.SIGPROF, expire)
    previous_delay, previous_interval = signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        left, _ = signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous_handler)
        if previous_delay:
            used = seconds - left
            signal.setitimer(signal.ITIMER_PROF, max(previous_delay - used, 1e-6), previous_interval)


# ---------------------------------------------------------------------------
# invariant oracles for diagrams with +-1 coefficients

def t_linking_matrix(diagram):
    """Q from its definition: m_i*tb_i + s_i on the diagonal, m_j*lk_ij off it."""
    comps = diagram.components
    return [[c.coeff.magnitude * c.tb + c.coeff.sign if i == j
             else comps[j].coeff.magnitude * diagram.linking[i][j]
             for j in range(len(comps))] for i, c in enumerate(comps)]


def tb_pairing(diagram, v):
    """sum_j v_j q_j l_j for a kernel vector v of Q and the diagram's first
    companion: adding v to a solution a of Q*a = d*l changes tb_M by minus
    this over d.  It is 0, since l = Q*a / d and diag(q)*Q is symmetric."""
    assert t_mat_vec(t_linking_matrix(diagram), v) == [0] * len(v)
    return sum(x * c.coeff.magnitude * w
               for x, c, w in zip(v, diagram.components, diagram.knots[0].lk))


def oracle_invariants(diagram, name):
    """(order, tb, rot, sl) of a companion, with None for the values its
    kind does not have.  Every coefficient must be +-1 and Q invertible
    (the caller checks det Q != 0; a rank test here would double the cost).

    x = Q^-1 lk by rational elimination; the order is the lcm of the
    denominators of x, tb_M = tb - <x, lk>, rot_M = rot - <x, rot_i> and
    sl_M = sl - <x, lk - sign * rot_i>.
    """
    assert all(c.coeff.magnitude == 1 for c in diagram.components)
    q = t_linking_matrix(diagram)
    knot = diagram.knot(name)
    x = rational_gauss_solve(q, knot.lk)
    order = lcm(*(xi.denominator for xi in x))
    rots = [c.rot for c in diagram.components]
    if knot.is_legendrian:
        return (order, knot.tb - sum(xi * li for xi, li in zip(x, knot.lk)),
                knot.rot - sum(xi * r for xi, r in zip(x, rots)), None)
    t = knot.transverse_sign
    return order, None, None, knot.sl - sum(xi * (li - t * r) for xi, li, r in zip(x, knot.lk, rots))


def legendrian_pushoff_sl(tb, rot, transverse_sign: int):
    """Self-linking of the transverse push-off of a Legendrian knot:
    tb - rot for the positive push-off, tb + rot for the negative one."""
    if transverse_sign not in (1, -1):
        raise ValueError("transverse sign must be +1 or -1")
    return tb - transverse_sign * rot


def oracle_d3_pm1(diagram):
    """d3 = (<b, rot> - 3 sigma(Q) - 2k) / 4 - 1/2 + #(+1 coefficients) for
    a diagram with +-1 coefficients, b from rational elimination and sigma
    from `fraction_signature`; None when Q*b = rot has no solution."""
    assert all(c.coeff.magnitude == 1 for c in diagram.components)
    q = t_linking_matrix(diagram)
    rot = [c.rot for c in diagram.components]
    b = rational_gauss_solve(q, rot)
    if b is None:
        return None
    n_plus, _, n_minus = fraction_signature(q)
    positives = sum(1 for c in diagram.components if c.coeff.sign > 0)
    pairing = sum(bi * ri for bi, ri in zip(b, rot))
    return Fraction(pairing - 3 * (n_plus - n_minus) - 2 * len(q)) / 4 - Fraction(1, 2) + positives


def d3_via_expansion(diagram):
    """The d3 cross-check as `surgeon d3` composes it: the closed form on the
    +-1 expansion, where it is the classical formula.  This calls the
    library and is not an oracle; raises ValueError over EXPANSION_LIMIT."""
    return surgeon.d3_report(surgeon.expand_to_pm1(diagram)).d3


def front_diagram(text):
    """The surgery diagram of a fully headed front document, as `surgeon
    front --emit-diagram` assembles it.  This calls the library and is not
    an oracle."""
    doc = surgeon.parse_front(text)
    return surgeon.to_diagram(doc, surgeon.classical_invariants(doc))


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


def singular_diagram(rng: random.Random, k_max=3, m_max=4, with_knot=False) -> SurgeryDiagram:
    """A random diagram whose linking matrix Q has det Q = 0.

    det Q is affine in the last diagonal entry m*tb + s, so the last tb is
    solved for from two `fraction_det` calls (the rot keeps tb + rot odd);
    a draw with no integer solution is redrawn.  `random_diagram` gives a
    singular Q about once in 300 draws.
    """
    while True:
        diagram = random_diagram(rng, k_max, m_max, with_knot)
        q = t_linking_matrix(diagram)
        q[-1][-1] = 0
        rest = fraction_det(q)
        minor = fraction_det([row[:-1] for row in q[:-1]])
        if minor == 0:
            if rest == 0:
                return diagram
            continue
        last = diagram.components[-1]
        diagonal = -Fraction(rest) / minor  # m*tb + s
        if diagonal.denominator != 1 or (diagonal.numerator - last.coeff.sign) % last.coeff.magnitude:
            continue
        tb = (diagonal.numerator - last.coeff.sign) // last.coeff.magnitude
        rot = last.rot if (tb + last.rot) % 2 else last.rot + rng.choice((1, -1))
        components = diagram.components[:-1] + (last._replace(tb=tb, rot=rot),)
        return diagram._replace(components=components)


def dense_diagram(rng: random.Random, k) -> SurgeryDiagram:
    """A dense random +-1 diagram with k components: every linking number
    in [-2, 2], Legendrian companions K1 and K2 and a transverse T1.  Makes
    the same draws as the benchmark's dense-link generator, so a seed names
    the same diagram in both."""
    def legendrian(tb_range=(-3, 3), rot_bound=3):
        tb = rng.randint(*tb_range)
        return tb, rng.choice([r for r in range(-rot_bound, rot_bound + 1) if (tb + r) % 2])

    components = []
    for i in range(k):
        tb, rot = legendrian()
        coeff = ContactCoefficient(rng.choice((1, -1)), 1)
        components.append(LegendrianComponent(f"C{i + 1}", tb, rot, coeff))
    linking = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            linking[i][j] = linking[j][i] = rng.randint(-2, 2)
    knots = []
    for name in ("K1", "K2"):
        tb, rot = legendrian((-3, 1), 2)
        knots.append(CompanionKnot(name, "legendrian", tuple(rng.randint(-2, 2) for _ in range(k)),
                                   tb=tb, rot=rot))
    sl = rng.choice((-5, -3, -1, 1))
    sign = rng.choice((1, -1))
    knots.append(CompanionKnot("T1", "transverse", tuple(rng.randint(-2, 2) for _ in range(k)),
                               sl=sl, transverse_sign=sign))
    return SurgeryDiagram(tuple(components), tuple(tuple(r) for r in linking), tuple(knots))


def bench_chain_diagram(rng: random.Random, k) -> SurgeryDiagram:
    """The surgery link of the benchmark's chain-front generator: k unknots
    with tb = -1, rot = 0 and coefficients +-1, each clasping the next with
    linking number +-1, so S = Q is tridiagonal with 0 or -2 on the diagonal.
    Makes the same draws (the companion K aside), so a seed names the same
    chain in both."""
    signs = [rng.choice((1, -1)) for _ in range(k)]
    flipped = [rng.random() < 0.5 for _ in range(k + 1)]
    components = tuple(LegendrianComponent(f"C{j + 1}", -1, 0, ContactCoefficient(s, 1))
                       for j, s in enumerate(signs))
    lk = [1 if flipped[j] == flipped[j + 1] else -1 for j in range(k)]
    linking = tuple(tuple(lk[min(i, j)] if abs(i - j) == 1 else 0 for j in range(k)) for i in range(k))
    return SurgeryDiagram(components, linking)


def oracle_front_invariants(text):
    """(tb, rot, linking) of a front document, traced by hand.

    Accepts role header lines (only a trailing "reversed" is read), an
    optional "events:" marker and event tokens; no comments.  A strand is
    followed through the event columns: it sits at a position in a gap
    between two events, moves through the next event in its horizontal
    direction (shifted by cusps beside it, swapped at a crossing on it)
    and turns around at a cusp it runs into.  Components start at the
    upper branch of their first left cusp, heading right (left when the
    header says "reversed"), and are numbered in that order.
    """
    reversed_flags, events = [], []
    for line in text.splitlines():
        words = line.split()
        if words[:1] in (["surgery"], ["companion"]):
            reversed_flags.append(words[-1] == "reversed")
        else:
            events += [(w[0], int(w[1:]) - 1) for w in words if w != "events:"]

    seen = set()  # (gap, position) pieces already traced; gap t lies before event t
    crossing_passes = {}  # event index -> {"over"/"under": (component, direction)}
    cusps, downs = [], []
    for t, (kind, p) in enumerate(events):
        if kind != "L" or (t + 1, p) in seen:
            continue
        comp = len(cusps)
        flip = -1 if comp < len(reversed_flags) and reversed_flags[comp] else 1
        cusps.append(0)
        downs.append(0)
        state = start = (t + 1, p, 1)
        while True:
            gap, pos, d = state
            seen.add((gap, pos))
            event = gap if d == 1 else gap - 1
            kind_e, i = events[event]
            if kind_e == ("R" if d == 1 else "L") and pos in (i, i + 1):
                # Runs into a cusp: entering on the upper branch in the true
                # direction of travel means passing downward.
                cusps[comp] += 1
                downs[comp] += 1 if (pos == i) == (flip == 1) else -1
                state = (gap, 2 * i + 1 - pos, -d)
            else:
                if kind_e == "X" and pos in (i, i + 1):
                    over = (pos == i) == (d == 1)
                    crossing_passes.setdefault(event, {})["over" if over else "under"] = (comp, d * flip)
                    pos = 2 * i + 1 - pos
                elif kind_e != "X" and pos >= i:
                    # A cusp beside the strand: the strands below it shift by two.
                    grows = (kind_e == "L") == (d == 1)
                    pos += 2 if grows else -2
                state = (gap + d, pos, d)
            if state == start:
                break

    n = len(cusps)
    writhe = [0] * n
    lk2 = [[0] * n for _ in range(n)]
    for passes in crossing_passes.values():
        (a, da), (b, db) = passes["over"], passes["under"]
        sign = 1 if da == db else -1
        if a == b:
            writhe[a] += sign
        else:
            lk2[a][b] += sign
            lk2[b][a] += sign
    tb = tuple(writhe[c] - cusps[c] // 2 for c in range(n))
    rot = tuple(downs[c] // 2 for c in range(n))
    return tb, rot, tuple(tuple(x // 2 for x in row) for row in lk2)


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
