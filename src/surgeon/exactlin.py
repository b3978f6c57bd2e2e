"""Exact integer and rational linear algebra.

Smith normal form with unimodular transforms, minimal-order integer solving
and rational solving with kernel bases (one factorization per solve), and
the exact signature of symmetric integer matrices.

Matrices are sequences of rows of Python integers (Fractions where rational
input is allowed).  Intermediate entries can grow large during elimination,
which is why everything runs on arbitrary-precision integers; no floating
point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

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


def mat_vec(a: Sequence[Sequence[int]], v: Sequence) -> list:
    if a and len(a[0]) != len(v):
        raise ValueError("incompatible shapes")
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


@dataclass(frozen=True)
class SNFDecomposition:
    """Smith normal form U * M * V = D.

    U and V are square unimodular integer matrices and D is a rectangular
    diagonal matrix with nonnegative entries d1 | d2 | ... whose zeros
    trail.  `rank` is the number of nonzero diagonal entries.
    """

    U: Matrix
    D: Matrix
    V: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(len(self.D), len(self.D[0]) if self.D else 0)
        return tuple(self.D[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SNFDecomposition:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Classic alternating reduction: move a smallest nonzero entry to the
    pivot, clear its row and column by division-with-remainder steps, then
    force the pivot to divide the remaining submatrix before moving on.
    """
    D = _as_rows(matrix)
    nrows = len(D)
    ncols = len(D[0]) if D else 0
    U = _identity(nrows)
    V = _identity(ncols)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        # row[dst] += factor * row[src]
        D[dst] = [x + factor * y for x, y in zip(D[dst], D[src])]
        U[dst] = [x + factor * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, factor):
        for row in D:
            row[dst] += factor * row[src]
        for row in V:
            row[dst] += factor * row[src]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(nrows, ncols):
        # Select a nonzero entry of smallest magnitude as the pivot.
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                e = abs(D[i][j])
                if e != 0 and (best is None or e < best):
                    best, pivot = e, (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            # Clear column t below the pivot.
            dirty = False
            for i in range(t + 1, nrows):
                if D[i][t] == 0:
                    continue
                q = D[i][t] // D[t][t]
                add_row(t, i, -q)
                if D[i][t] != 0:
                    # Remainder is smaller than the pivot; promote it.
                    swap_rows(t, i)
                    dirty = True
            # Clear row t right of the pivot.
            for j in range(t + 1, ncols):
                if D[t][j] == 0:
                    continue
                q = D[t][j] // D[t][t]
                add_col(t, j, -q)
                if D[t][j] != 0:
                    swap_cols(t, j)
                    dirty = True
            if dirty:
                continue
            # Enforce divisibility of the remaining block by the pivot.
            culprit = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if D[i][j] % D[t][t] != 0:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            add_row(culprit, t, 1)

        if D[t][t] < 0:
            negate_row(t)
        t += 1

    return SNFDecomposition(_freeze(U), _freeze(D), _freeze(V))


def _hermite_rows(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row Hermite normal form of a full-rank list of integer row vectors.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    Used to make kernel bases deterministic.
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
    for r, col in pivot_cols:
        for i in range(r):
            q = rows[i][col] // rows[r][col]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
    return rows


def kernel_basis(snf: SNFDecomposition) -> tuple[tuple[int, ...], ...]:
    """Basis of the integer kernel of the matrix decomposed by `snf`, in
    Hermite-reduced form: the columns of V beyond the rank span it."""
    ncols = len(snf.V)
    vectors = [tuple(snf.V[i][j] for i in range(ncols)) for j in range(snf.rank, ncols)]
    return _freeze(_hermite_rows(vectors))


@dataclass(frozen=True)
class SolveResult:
    """A solution of M*a = order*v together with the integer kernel of M.

    `order` is the smallest positive integer for which the system admits an
    integral solution; `particular` is one such solution and any other
    differs from it by an integer combination of `kernel_basis`.
    """

    order: int
    particular: tuple[int, ...]
    kernel_basis: tuple[tuple[int, ...], ...]


def _snf_solve(matrix, vector):
    """The one SNF of a solve and w = U*v, or (snf, None) when M*x = v has
    no rational solution (w has a nonzero coordinate beyond the rank)."""
    snf = smith_normal_form(matrix)
    nrows = len(snf.U)
    if len(vector) != nrows:
        raise ValueError("vector length does not match matrix rows")
    w = mat_vec(snf.U, vector)
    if any(w[i] != 0 for i in range(snf.rank, nrows)):
        return snf, None
    return snf, w


def _assemble(snf: SNFDecomposition, y: list) -> list:
    ncols = len(snf.V)
    full = list(y) + [0] * (ncols - len(y))
    return mat_vec(snf.V, full)


def minimal_order_solve(matrix: Sequence[Sequence[int]],
                        vector: Sequence[int]) -> Optional[SolveResult]:
    """Find the smallest d >= 1 with M*a = d*v solvable over the integers.

    With w = U*v, the system is solvable for a given d iff the coordinates
    of w beyond the rank vanish and each diagonal entry d_i divides d*w_i;
    the minimal such d is lcm_i d_i / gcd(d_i, w_i).  Returns None iff v has
    no rational preimage.
    """
    snf, w = _snf_solve(matrix, vector)
    if w is None:
        return None
    diag = snf.diagonal
    d = 1
    for i in range(snf.rank):
        d = lcm(d, diag[i] // gcd(diag[i], w[i]))
    y = [d * w[i] // diag[i] for i in range(snf.rank)]
    return SolveResult(d, tuple(_assemble(snf, y)), kernel_basis(snf))


def solve_rational(matrix: Sequence[Sequence[int]],
                   vector: Sequence) -> Optional[tuple[tuple[Fraction, ...], tuple[tuple[int, ...], ...]]]:
    """Solve M*b = v over the rationals.

    The right-hand side may contain Fractions.  Returns (particular, kernel)
    where the kernel is the Hermite-reduced integer kernel basis (it spans
    the rational kernel as well), or None when the system is inconsistent.
    """
    snf, w = _snf_solve(matrix, vector)
    if w is None:
        return None
    diag = snf.diagonal
    y = [Fraction(w[i]) / diag[i] for i in range(snf.rank)]
    return tuple(_assemble(snf, y)), kernel_basis(snf)


def symmetric_signature(matrix: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Exact inertia (n_plus, n_zero, n_minus) of a symmetric integer matrix.

    Congruence diagonalization over the rationals: simultaneous row and
    column operations preserve the signature (Sylvester), so counting pivot
    signs is exact.  A zero diagonal with a nonzero off-diagonal entry is
    repaired by adding the offending row and column, which creates a
    nonzero pivot because the field has characteristic zero.
    """
    rows = _as_rows(matrix)
    n = len(rows)
    if n and len(rows[0]) != n:
        raise ValueError("signature needs a square matrix")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix is not symmetric")

    a = [[Fraction(x) for x in row] for row in rows]
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
