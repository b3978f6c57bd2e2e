"""Exact integer and rational linear algebra.

Smith normal form with unimodular transforms, the torsion of a lattice
quotient modulo a multiple of its exponent, one minimal-order integer
solve with its kernel basis, and one fraction-free sweep of a symmetric
matrix that gives its signature, its determinant and, when that is
nonzero, its solves.  Matrices are sequences of rows of Python integers,
and no floating point is used anywhere.

The sweep, `symmetric_signature`, is a Bareiss congruence elimination on
sparse rows, and `sweep_solve` replays its record on a right-hand side;
every intermediate of both is a minor, so Hadamard's bound limits its
size.  A singular matrix M has no unique solution; there one echelon form
of [M^T | I] (`echelon_form`, a row Hermite elimination) serves
`minimal_order_solve`, which answers M*a = d*v with d minimal and a
reduced modulo the Hermite kernel basis, so a and a / d depend on (M, v)
alone.  `torsion_factors` eliminates modulo a multiple P of the torsion
exponent (Domich, Kannan and Trotter; Hafner and McCurley), so every entry
it holds is below P by design.  `smith_normal_form` (after Kannan and
Bachem) is kept for library callers and the benchmark's probe; its
transforms are not size-reduced: on dense random 50 x 50 linking matrices
(seeds 1-6), whose largest invariant factor has 127-135 bits, U reaches
126-259 bits and V 127-134.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import combinations, compress
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

Matrix = tuple[tuple[int, ...], ...]


def _as_rows(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    rows = [list(row) for row in matrix]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("ragged matrix")
    return rows


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _freeze(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(row) for row in rows)


class SNFDecomposition(NamedTuple):
    """Smith normal form U * M * V = D.

    U and V are square unimodular integer matrices and D is a rectangular
    diagonal matrix with nonnegative entries d1 | d2 | ... whose zeros
    trail.
    """

    U: Matrix
    D: Matrix
    V: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(len(self.D), len(self.D[0]) if self.D else 0)
        return tuple(self.D[i][i] for i in range(n))


def _hermite_rows(vectors: Sequence[Sequence[int]], reduce_from: int = 0) -> list[list[int]]:
    """Row Hermite normal form of a list of integer row vectors.

    Pivots are positive, entries above a pivot are reduced into [0, pivot)
    and zero rows trail.  The rows span the same lattice as the input (the
    form is unique for that lattice), and the row operations are unimodular,
    so a block of columns appended to the input records the transform.
    With `reduce_from` > 0 the back-reduction runs only among the rows whose
    pivot column is at least `reduce_from`: those rows are in Hermite form,
    the rows above them keep the elimination's entries, and the pivots are
    the same.
    """
    rows = [list(v) for v in vectors]
    pivot_row, pivot_cols = 0, []
    for col in range(len(rows[0]) if rows else 0):
        # Reduce column entries against the smallest until one survives.
        while candidates := [i for i in range(pivot_row, len(rows)) if rows[i][col]]:
            i0 = min(candidates, key=lambda i: abs(rows[i][col]))
            rows[pivot_row], rows[i0] = rows[i0], rows[pivot_row]
            if len(candidates) == 1:
                break
            for i in range(pivot_row + 1, len(rows)):
                if q := rows[i][col] // rows[pivot_row][col]:
                    rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
        if candidates:
            if rows[pivot_row][col] < 0:
                rows[pivot_row] = [-x for x in rows[pivot_row]]
            pivot_cols.append((pivot_row, col))
            pivot_row += 1
    first = next((r for r, col in pivot_cols if col >= reduce_from), len(pivot_cols))
    for r, col in pivot_cols[first:]:
        for i in range(first, r):
            if q := rows[i][col] // rows[r][col]:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
    return rows


def _hermite_pass(a: list[list[int]], transform: list[list[int]], width: int):
    """Row Hermite form of [a | transform]; a has `width` columns."""
    rows = _hermite_rows([x + t for x, t in zip(a, transform)])
    return [r[:width] for r in rows], [r[width:] for r in rows]


def _transpose(a: list[list[int]], width: int) -> list[list[int]]:
    return [[row[j] for row in a] for j in range(width)]


def _smith(D: list[list[int]], U: list[list[int]], Vt: list[list[int]]):
    """Kannan-Bachem: alternate row Hermite passes on [D | U] and [D^T | V^T]
    until D is diagonal, zeros trailing; then walk its pairs i < j once.  If
    d_i does not divide d_j, the Smith form of diag(d_i, d_j) with column i
    += column j makes them (gcd, lcm), its U and V^T acting on rows i and j
    of U and V^T; d_i then divides d_i+1..d_j, and an earlier d_h both.  That
    2 x 2 form is this loop's, with no repair: [[d_i, 0], [d_j, d_j]] takes
    one pass pair to diag(g, d_i d_j / g), and g divides d_i d_j / g.
    Returns (D, U, V^T).
    """
    nrows, ncols = len(U), len(Vt)
    while True:
        D, U = _hermite_pass(D, U, ncols)
        Dt, Vt = _hermite_pass(_transpose(D, ncols), Vt, nrows)
        D = _transpose(Dt, nrows)
        if not any(D[i][j] for i in range(nrows) for j in range(ncols) if i != j):
            break
    rank = sum(1 for i in range(min(nrows, ncols)) if D[i][i])
    for i, j in combinations(range(rank), 2):
        if D[j][j] % D[i][i]:
            E, (U[i], U[j]), (Vt[i], Vt[j]) = _smith([[D[i][i], 0], [D[j][j], D[j][j]]], [U[i], U[j]],
                                                     [[x + y for x, y in zip(Vt[i], Vt[j])], Vt[j]])
            D[i][i], D[j][j] = E[0][0], E[1][1]
    return D, U, Vt


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SNFDecomposition:
    """Diagonalize an integer matrix by unimodular row and column operations
    (Kannan-Bachem, `_smith`).  Back-reduction bounds every entry of D by
    its pivot; U and V are not size-reduced (sizes in the module docstring).
    """
    D = _as_rows(matrix)
    ncols = len(D[0]) if D else 0
    D, U, Vt = _smith(D, _identity(len(D)), _identity(ncols))
    return SNFDecomposition(_freeze(U), _freeze(D), _freeze(_transpose(Vt, ncols)))


def _step(lines, cross, a, b, key, modulus: int) -> None:
    """A unimodular 2 x 2 step on lines a and b of a sparse matrix modulo P
    taking their entries (p, q) at `key` to (g, 0), mirrored in `cross`, the
    matrix by its other index.  If d = gcd(p, P) divides q, line b -= e*a
    for e*p = q mod P; else the Bezout step: gcd(g, P) properly divides d."""
    x, y = lines[a], lines[b]
    p, q = x[key], y[key]
    if q % (d := gcd(p, modulus)):
        s = pow(p // (g := gcd(p, q)), -1, q // g)
        coefficients = {a: (s, (g - s * p) // q), b: (q // g, -(p // g))}
    else:
        coefficients = {b: (-(q // d) * pow(p // d, -1, modulus // d), 1)}
    new = {i: {j: w for j in x.keys() | y.keys() if (w := (f * x.get(j, 0) + h * y.get(j, 0)) % modulus)}
           for i, (f, h) in coefficients.items()}
    for i, line in new.items():
        for j in lines[i].keys() - line.keys():
            del cross[j][i]
        for j, w in line.items():
            cross[j][i] = w
        lines[i] = line


def torsion_factors(matrix: Sequence[Sequence[int]], modulus: int) -> tuple[int, ...]:
    """The invariant factors > 1, each dividing the next, of Z^n / (L + P*Z^n)
    for the row lattice L of the n-column matrix and P = `modulus` > 0: those
    of Z^n / L when P*Z^n lies in L, and for a multiple P of its torsion
    exponent those and then one P per free summand.  Smith elimination by
    `_step` on sparse rows and columns, every entry in [0, P): the pivot, of
    least gcd with P in the sparsest row, clears its column and the entries
    of its row that d = gcd(pivot, P) does not divide (each making d a proper
    divisor), then splits off Z/d; each column left gives Z/P.  (gcd, lcm) on
    every pair i < j of the orders chains them."""
    rows = dict(enumerate({j: x % modulus for j, x in enumerate(row) if x % modulus}
                          for row in _as_rows(matrix)))
    cols: dict[int, dict[int, int]] = {j: {} for j in range(len(matrix[0]) if rows else 0)}
    for i, j in [(i, j) for i, row in rows.items() for j in row]:
        cols[j][i] = rows[i][j]
    orders, sparsest = [], sorted((len(row), i) for i, row in rows.items())  # a sorted list is a heap
    while sparsest:
        size, r = heappop(sparsest)
        if size != len(rows[r]):  # a row that changed length is re-keyed when reached
            heappush(sparsest, (len(rows[r]), r))
        elif size:
            c = min(rows[r], key=lambda j: (gcd(rows[r][j], modulus), len(cols[j])))
            while True:
                for i in [i for i in cols[c] if i != r]:
                    _step(rows, cols, r, i, c, modulus)
                for j in [j for j, x in rows[r].items() if x % gcd(rows[r][c], modulus)]:
                    _step(cols, rows, c, j, r, modulus)
                if len(cols[c]) == 1:
                    break
            orders.append(gcd(rows[r][c], modulus))
            for j in rows.pop(r):
                del cols[j][r]
    orders = [x for x in orders + [modulus] * (len(cols) - len(orders)) if x > 1]
    for i, j in combinations(range(len(orders)), 2):
        orders[i], orders[j] = gcd(orders[i], orders[j]), lcm(orders[i], orders[j])
    return tuple(x for x in orders if x > 1)


class SolveResult(NamedTuple):
    """A solution of M*a = order*v together with the integer kernel of M.

    `order` is the smallest positive integer for which the system admits an
    integral solution.  Any two such solutions differ by an integer
    combination of `kernel_basis`, the Hermite-reduced kernel basis, and
    `particular` is the one with 0 <= a[p] < v[p] at the pivot p (first
    nonzero entry) of each basis vector v.
    """

    order: int
    particular: tuple[int, ...]
    kernel_basis: tuple[tuple[int, ...], ...]


def echelon_form(matrix: Sequence[Sequence[int]]) -> Matrix:
    """Row echelon form of [M^T | I] with its kernel rows in Hermite form.

    Each row (h, u) satisfies M*u = h.  The rows with h != 0 come first and
    are an echelon basis of the image lattice with positive pivots, which
    keep the elimination's entries.  The others are the Hermite-reduced
    basis of the integer kernel, unique for M.
    """
    rows = _as_rows(matrix)
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    stacked = [c + e for c, e in zip(_transpose(rows, ncols), _identity(ncols))]
    return _freeze(_hermite_rows(stacked, reduce_from=nrows))


def minimal_order_solve(form: Matrix, vector: Sequence[int]) -> Optional[SolveResult]:
    """Find the smallest d >= 1 with M*a = d*v solvable over the integers.

    The echelon rows (h_t, u_t) of `form`, the echelon_form of M, extend to
    a basis of the lattice of pairs (M*u, u).  Substituting v into the rows
    h_t, with ints over one common denominator (the product of the
    pivots), gives the coordinates c_t of v, and x = sum c_t u_t = num / den
    solves M*x = v.  M*a = d*v has an integral solution iff every d*c_t is
    an integer, and the u_t being part of a unimodular basis gives
    d = den / gcd(den, num) and a = d*x.  The other solutions differ from a
    by the span of the Hermite-reduced kernel basis, so reducing a into
    [0, pivot) at each kernel pivot in turn picks one by (M, v) alone (see
    SolveResult).  Returns None iff v has no rational preimage.
    """
    nrows = len(vector)
    if form and len(form[0]) != len(form) + nrows:  # a row (h, u) has nrows + ncols entries
        raise ValueError("vector length does not match matrix rows")
    rank = sum(1 for r in form if any(r[:nrows]))
    image = form[:rank]  # the rows (h, u) with h != 0; h is a row's first nrows entries
    den, coords = 1, []
    for h in image:
        p = next(j for j, x in enumerate(h) if x)
        residual = vector[p] * den - sum(c * e[p] for c, e in zip(coords, image))
        den *= h[p]
        coords = [c * h[p] for c in coords] + [residual]
    if any(vector[j] * den != sum(c * h[j] for c, h in zip(coords, image)) for j in range(nrows)):
        return None
    num = [sum(c * r[nrows + i] for c, r in zip(coords, image)) for i in range(len(form))]
    g = gcd(den, *num)
    a = [x // g for x in num]
    kernel = tuple(r[nrows:] for r in form[rank:])
    for v in kernel:
        p = next(j for j, x in enumerate(v) if x)
        q = a[p] // v[p]
        a = [x - q * y for x, y in zip(a, v)]
    return SolveResult(den // g, tuple(a), kernel)


class Sweep(NamedTuple):
    """The one fraction-free sweep of a symmetric S (`symmetric_signature`).

    `inertia` is (n_plus, n_zero, n_minus) of S and `det` its determinant.
    `steps` records the eliminations in sweep order: (r, o) for a repair
    that adds row and column o to row and column r, and (r, pivot, columns,
    entries) for a pivot on row r, whose other nonzeros a_rj are `entries`
    at `columns`.  `sweep_solve` replays them on a right-hand side.
    """

    inertia: tuple[int, int, int]
    det: int
    steps: tuple[tuple, ...]


def symmetric_signature(matrix: Sequence[Sequence[int]]) -> Sweep:
    """Exact inertia and determinant of a symmetric integer matrix S, and
    the record of its elimination that `sweep_solve` replays.

    Fraction-free (Bareiss) congruence elimination on rows kept as dicts of
    their nonzeros.  Each step pivots on the nonzero diagonal entry of the
    row with the fewest nonzeros (the smallest index on ties), read off a
    heap keyed by (row length, index).  When the whole remaining diagonal
    is zero, adding a row and column o with a_ro != 0 to the sparsest row
    and column r makes a_rr = 2 a_ro; that step scans the rows, and the
    pivot after it needs no repair (the Schur complement's a_oo is
    -a_ro / 2).  An empty row counts as a zero eigenvalue.  The update
    (p*a_ij - a_ir*a_rj) / p_prev divides exactly and runs only on the rows
    i the pivot row lists (a_ir != 0, by symmetry): on any other row it is
    the scaling p / p_prev.  So with pivots P_1, P_2, ... and P_0 = 1, a row
    keeps the entries x it held after its last exact step e, and is scaled
    to x * P_t / P_e when read after step t.  A symmetric pivot order is a
    permutation, so every intermediate is still a minor of T*S*T^T for a
    unimodular T, the product of the repairs, with at most two unit entries
    per row, and Hadamard's bound limits it.  The t-th Schur pivot is
    P_t / P_(t-1); by Sylvester its sign is what the signature counts, and
    the last pivot is det S.
    """
    a = _as_rows(matrix)
    n = len(a)
    if a and len(a[0]) != n:
        raise ValueError("signature needs a square matrix")
    if a != [list(col) for col in zip(*a)]:
        raise ValueError("matrix is not symmetric")

    rows = {i: dict(compress(enumerate(row), row)) for i, row in enumerate(a)}
    last = dict.fromkeys(rows, 0)  # the number of pivots after which each row was exact
    pivots, steps = [1], []
    pivotable = [(len(row), i) for i, row in rows.items() if i in row]  # stale entries are skipped
    heapify(pivotable)

    def sparsest_pivot() -> Optional[int]:
        while pivotable:
            size, i = pivotable[0]
            if i in rows and len(rows[i]) == size and i in rows[i]:
                return i
            heappop(pivotable)
        return None

    def exact(i: int) -> dict[int, int]:
        if last[i] != len(pivots) - 1:
            now, then = pivots[-1], pivots[last[i]]
            rows[i] = {j: x * now // then for j, x in rows[i].items()}
            last[i] = len(pivots) - 1
        return rows[i]

    n_minus = 0
    while rows:
        r = sparsest_pivot()
        if r is None:
            size, r = min((len(row), i) for i, row in rows.items())
            if not size:
                del rows[r]
                continue
            top, other = exact(r), exact(o := min(rows[r]))
            # The zeros these adds may leave are in row and column r, which the pivot drops.
            for j, x in other.items():  # row r += row o
                top[j] = top.get(j, 0) + x
            for i in other:  # column r += column o, in row i's own scale
                rows[i][r] = rows[i].get(r, 0) + rows[i][o]
            steps.append((r, o))
        top = exact(r)
        del rows[r]
        pivot, prev = top.pop(r), pivots[-1]
        n_minus += (pivot > 0) != (prev > 0)
        steps.append((r, pivot, tuple(top), tuple(top.values())))
        for i in top:
            row = dict.fromkeys(top, 0)  # row i, with a 0 where only the pivot row has an entry
            row.update(exact(i))
            f = row.pop(r)
            rows[i] = {j: x for j, y in row.items() if (x := (pivot * y - f * top.get(j, 0)) // prev)}
            last[i] = len(pivots)
            if i in rows[i]:
                heappush(pivotable, (len(rows[i]), i))
        pivots.append(pivot)
    inertia = (len(pivots) - 1 - n_minus, n + 1 - len(pivots), n_minus)
    return Sweep(inertia, pivots[-1] if len(pivots) == n + 1 else 0, tuple(steps))


def sweep_solve(sweep: Sweep, column: Sequence[int]) -> Optional[SolveResult]:
    """The solve of S*a = d*w with d minimal for the swept S if det S != 0, else None.

    The solution x = S^-1 w is unique, so d is its common denominator,
    a = d*x and the kernel basis is empty.  The replay runs the sweep's
    eliminations on w as it runs them on a row: a repair's row add
    b_r += b_o, and at each pivot p the update (p*b_i - a_ir*b_r) / p_prev
    on the rows the pivot row lists (a_ir = a_ri, by symmetry) and the
    scaling p / p_prev, kept lazy, on the others.  So every b_i is a
    minor of [T*S*T^T | T*w], as the rows are.  The repair is the
    congruence T*S*T^T with T = I + e_r e_o^T, so the solution x' of the
    repaired system gives x = T^T x', the column add x_o += x_r.  Back
    substitution over the pivot rows, in reverse, gives y = det S * x in
    integers (Cramer), each division exact, with each repair's column add
    applied where it was made.
    """
    if len(column) != sum(sweep.inertia):
        raise ValueError("column length does not match matrix")
    if not sweep.det:
        return None
    b, last, pivots, tops = list(column), [0] * len(column), [1], []

    def exact(i: int) -> int:
        if last[i] != len(pivots) - 1:
            b[i] = b[i] * pivots[-1] // pivots[last[i]]
            last[i] = len(pivots) - 1
        return b[i]

    for step in sweep.steps:
        if len(step) == 2:
            r, o = step
            b[r] = exact(r) + exact(o)
            continue
        r, pivot, columns, entries = step
        tops.append(exact(r))
        for i, f in zip(columns, entries):
            b[i] = (pivot * exact(i) - f * tops[-1]) // pivots[-1]
            last[i] = len(pivots)
        pivots.append(pivot)
    y = [0] * len(b)  # det * x
    for step in reversed(sweep.steps):
        if len(step) == 2:
            r, o = step
            y[o] += y[r]
        else:
            r, pivot, columns, entries = step
            y[r] = (sweep.det * tops.pop() - sum(map(mul, map(y.__getitem__, columns), entries))) // pivot
    g = gcd(sweep.det, *y) * (1 if sweep.det > 0 else -1)
    return SolveResult(sweep.det // g, tuple(x // g for x in y), ())
