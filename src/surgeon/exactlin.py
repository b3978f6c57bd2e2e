"""Exact integer and rational linear algebra.

Smith normal form with unimodular transforms, one minimal-order integer
solve with its kernel basis, and the exact signature of symmetric integer
matrices.

Matrices are sequences of rows of Python integers.  Everything runs on
arbitrary-precision integers and no floating point is used anywhere.  One
integer elimination, the row Hermite normal form `_hermite_rows`, does all
the integer work.  One echelon form of [M^T | I] (`echelon_form`), the same
elimination with only its kernel rows back-reduced, serves the solve,
`minimal_order_solve`, which takes it in place of M and only substitutes
into its echelon rows, and H_1: `smith_diagonal` gets those rows
transposed and so enters at the column pass, as their row elimination is
done.  The solve answers M*a = d*v with d minimal and a reduced modulo the
Hermite kernel basis, so a and the rational solution a / d of M*b = v
depend on (M, v) alone.  `smith_normal_form` (with transforms, after Kannan
and Bachem) is kept for library callers and the benchmark's probe.  The
image rows of the echelon form keep the elimination's entries.  On small
random matrices their largest bit length differs from the fully reduced
Hermite form's by a few bits either way; on dense random linking matrices
with k = 6/10/20/35/50 both reach 8/8/39/84/127 bits, and 21 bits on a
clasped chain of k = 50.  Back-reduction bounds the entries of the Smith
passes and of D by their pivots.  The transforms are not size-reduced: on
dense random 50 x 50 linking matrices (seeds 1-6), whose largest invariant
factor has 127-135 bits, U reaches 126-259 bits and V 127-134.  The
signature eliminates fraction-free on rows of nonzeros, pivoting in the
sparsest row; a pivot updates only the rows it touches and any other row is
scaled by P_t / P_e when next read.  A symmetric pivot order is a
permutation, so every intermediate is a minor and Hadamard bounds its size.
"""

from __future__ import annotations

from itertools import combinations, compress
from math import gcd
from typing import NamedTuple, Optional, Sequence

Matrix = tuple[tuple[int, ...], ...]


def _as_rows(matrix: Sequence[Sequence[int]]) -> list[list[int]]:
    rows = [list(row) for row in matrix]
    if rows:
        width = len(rows[0])
        if any(len(row) != width for row in rows):
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
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row = 0
    pivot_cols = []
    for col in range(ncols):
        if pivot_row >= len(rows):
            break
        # Reduce column entries against each other until one survives.
        while True:
            candidates = [i for i in range(pivot_row, len(rows)) if rows[i][col] != 0]
            if not candidates:
                break
            i0 = min(candidates, key=lambda i: abs(rows[i][col]))
            rows[pivot_row], rows[i0] = rows[i0], rows[pivot_row]
            done = True
            for i in range(pivot_row + 1, len(rows)):
                if rows[i][col] == 0:
                    continue
                q = rows[i][col] // rows[pivot_row][col]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[pivot_row])]
                if rows[i][col] != 0:
                    done = False
            if done:
                break
        if pivot_row < len(rows) and rows[pivot_row][col] != 0:
            if rows[pivot_row][col] < 0:
                rows[pivot_row] = [-x for x in rows[pivot_row]]
            pivot_cols.append((pivot_row, col))
            pivot_row += 1
    first = next((r for r, col in pivot_cols if col >= reduce_from), len(pivot_cols))
    for r, col in pivot_cols[first:]:
        for i in range(first, r):
            q = rows[i][col] // rows[r][col]
            if q:
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
    one pass pair to diag(g, d_i d_j / g), and g divides d_i d_j / g.  With
    zero-width rows U and V^T carry no transforms.  Returns (D, U, V^T).
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


def smith_diagonal(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The diagonal of smith_normal_form(matrix), by the same loop without
    transforms."""
    D = _as_rows(matrix)
    ncols = len(D[0]) if D else 0
    D = _smith(D, [[]] * len(D), [[]] * ncols)[0]
    return tuple(D[i][i] for i in range(min(len(D), ncols)))


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
    are an echelon basis H of the image lattice with positive pivots, whose
    Smith diagonal holds the invariant factors of M; they keep the
    elimination's entries, as nothing reads them reduced.  The others are
    the Hermite-reduced basis of the integer kernel, unique for M.
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


def symmetric_signature(matrix: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Exact inertia (n_plus, n_zero, n_minus) of a symmetric integer matrix.

    Fraction-free (Bareiss) congruence elimination on rows kept as dicts of
    their nonzeros.  Each step pivots on the nonzero diagonal entry of the
    row with the fewest nonzeros (the smallest index on ties).  When the
    whole remaining diagonal is zero, adding a row and column o with
    a_ro != 0 to the sparsest row and column r makes a_rr = 2 a_ro; an empty
    row counts as a zero eigenvalue.  The update (p*a_ij - a_ir*a_rj) / p_prev
    divides exactly and runs only on the rows i the pivot row lists
    (a_ir != 0, by symmetry): on any other row it is the scaling p / p_prev.
    So with pivots P_1, P_2, ... and P_0 = 1, a row keeps the entries x it
    held after its last exact step e, and is scaled to x * P_t / P_e when
    read after step t.  A symmetric pivot order is a permutation, so every
    intermediate is still a minor of a unimodular congruent of the input
    and Hadamard's bound limits it; each repair adds an untouched row and
    column, so that congruent's entries are at most four times the input's.
    The t-th Schur pivot is P_t / P_(t-1); by Sylvester its sign is what the
    signature counts.
    """
    a = _as_rows(matrix)
    if a and len(a[0]) != len(a):
        raise ValueError("signature needs a square matrix")
    if a != [list(col) for col in zip(*a)]:
        raise ValueError("matrix is not symmetric")

    rows = {i: dict(compress(enumerate(row), row)) for i, row in enumerate(a)}
    last = dict.fromkeys(rows, 0)  # the number of pivots after which each row was exact
    pivots = [1]

    def exact(i: int) -> dict[int, int]:
        if last[i] != len(pivots) - 1:
            rows[i] = {j: x * pivots[-1] // pivots[last[i]] for j, x in rows[i].items()}
            last[i] = len(pivots) - 1
        return rows[i]

    n_minus = 0
    while rows:
        r = min(((len(row), i) for i, row in rows.items() if i in row), default=(0, None))[1]
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
        top = exact(r)
        del rows[r]
        pivot, prev = top.pop(r), pivots[-1]
        n_minus += (pivot > 0) != (prev > 0)
        for i in top:
            row = dict.fromkeys(top, 0)  # row i, with a 0 where only the pivot row has an entry
            row.update(exact(i))
            f = row.pop(r)
            rows[i] = {j: x for j, y in row.items() if (x := (pivot * y - f * top.get(j, 0)) // prev)}
            last[i] = len(pivots)
        pivots.append(pivot)
    return len(pivots) - 1 - n_minus, len(a) + 1 - len(pivots), n_minus
