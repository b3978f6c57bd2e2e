import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surgeon.exactlin
from surgeon import (
    d3_report,
    invariant_report,
    linking_matrix,
    minimal_order_solve,
    smith_normal_form,
    symmetric_signature,
)
from surgeon.exactlin import echelon_form, smith_diagonal

from helpers import (
    bench_chain_diagram,
    char_poly,
    check_snf_invariants,
    count_calls,
    cpu_limit,
    dense_diagram,
    descartes_split,
    fraction_det,
    fraction_signature,
    image_set,
    leibniz_det,
    oracle_d3_pm1,
    oracle_invariants,
    random_block_symmetric,
    random_int_matrix,
    random_symmetric,
    rational_gauss_solve,
    rational_rank,
    t_mat_mul,
    t_mat_vec,
    tridiagonal_signature,
)


def snf_invariants_hold(matrix):
    snf = smith_normal_form(matrix)
    check_snf_invariants(matrix, snf)
    return snf


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form([[1, 0], [0, 1]])
        assert snf.diagonal == (1, 1)

    def test_gcd_and_det_pin_the_factors(self):
        # d1 = gcd of all entries, d1*d2 = |det|
        snf = snf_invariants_hold([[2, 4], [6, 8]])
        assert snf.diagonal == (2, 4)

    def test_unimodular_input(self):
        snf = snf_invariants_hold([[0, 1], [1, -2]])
        assert snf.diagonal == (1, 1)

    def test_rectangular_and_zero(self):
        snf_invariants_hold([[3, 6, 9]])
        snf_invariants_hold([[0, 0], [0, 0], [0, 0]])
        assert smith_normal_form([[0, 0], [0, 0]]).diagonal == (0, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6))
    def test_random_matrices(self, nrows, ncols, seed):
        rng = random.Random(seed)
        snf_invariants_hold(random_int_matrix(rng, nrows, ncols, -9, 9))

    def test_ragged_matrix_rejected(self):
        for fn in (smith_normal_form, smith_diagonal, echelon_form, symmetric_signature):
            with pytest.raises(ValueError, match="^ragged matrix$"):
                fn([[1, 2], [3]])

    def test_diagonal_without_transforms(self):
        # smith_diagonal runs the same loop with zero-width transforms.
        rng = random.Random(1204)
        for _ in range(300):
            matrix = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -9, 9)
            assert smith_diagonal(matrix) == smith_normal_form(matrix).diagonal
        for matrix in ([], [[], []], [[0, 0, 0]], DIVISIBILITY_5X3):
            assert smith_diagonal(matrix) == smith_normal_form(matrix).diagonal


class TestSolvers:
    def test_invertible_system(self):
        result = minimal_order_solve(echelon_form([[0, 1], [1, -2]]), [1, 1])
        assert result.particular == (3, 1)
        assert result.kernel_basis == ()
        assert result.order == 1

    def test_stabilization_system(self):
        result = minimal_order_solve(echelon_form([[0, -1], [-1, -3]]), [1, 1])
        assert result.order == 1
        assert result.particular == (2, -1)

    def test_zero_matrix_full_kernel(self):
        result = minimal_order_solve(echelon_form([[0, 0], [0, 0]]), [0, 0])
        assert result.order == 1
        assert result.particular == (0, 0)
        assert result.kernel_basis == ((1, 0), (0, 1))

    def test_unsolvable(self):
        # 5a = 2 has no integral solution: the minimal order exceeds 1
        assert minimal_order_solve(echelon_form([[5]]), [2]).order != 1

    def test_minimal_order_single(self):
        # brute force: smallest d with 2d divisible by 5 is 5
        result = minimal_order_solve(echelon_form([[5]]), [2])
        assert result.order == 5
        assert result.particular == (2,)

    def test_minimal_order_nullhomologous(self):
        result = minimal_order_solve(echelon_form([[0, 1], [1, -2]]), [1, 1])
        assert result.order == 1
        assert result.particular == (3, 1)

    def test_minimal_order_no_rational_preimage(self):
        assert minimal_order_solve(echelon_form([[0, 0], [0, 0]]), [1, 0]) is None

    def test_rational_zero_rhs(self):
        result = minimal_order_solve(echelon_form([[-2]]), [0])
        assert result == (1, (0,), ())

    def test_rational_back_substitution(self):
        matrix = [[0, 1], [1, -2]]
        result = minimal_order_solve(echelon_form(matrix), [0, 2])
        assert (result.order, result.particular) == (1, (2, 0))
        assert t_mat_vec(matrix, result.particular) == [0, 2]

    def test_rational_unsolvable(self):
        assert minimal_order_solve(echelon_form([[1, 2], [2, 4]]), [1, 0]) is None

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10 ** 6))
    def test_solutions_resubstitute(self, nrows, ncols, seed):
        rng = random.Random(seed)
        matrix = random_int_matrix(rng, nrows, ncols)
        vector = [rng.randint(-5, 5) for _ in range(nrows)]
        result = minimal_order_solve(echelon_form(matrix), vector)
        rational = rational_gauss_solve(matrix, vector)
        if rational is None:
            assert result is None
            return
        assert result is not None
        d = result.order
        assert t_mat_vec(matrix, result.particular) == [d * v for v in vector]
        for kv in result.kernel_basis:
            assert t_mat_vec(matrix, kv) == [0] * nrows

    def test_kernel_basis_is_deterministic_hermite(self):
        basis = minimal_order_solve(echelon_form([[2, 4, 6]]), [0]).kernel_basis
        assert basis == ((1, 1, -1), (0, 3, -2))
        for v in basis:
            assert t_mat_vec([[2, 4, 6]], v) == [0]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2), st.integers(0, 10 ** 6))
    def test_minimal_order_against_brute_force(self, nrows, seed):
        rng = random.Random(seed)
        matrix = random_int_matrix(rng, nrows, nrows, -4, 4)
        vector = [rng.randint(-4, 4) for _ in range(nrows)]
        images = image_set(matrix, 12)
        result = minimal_order_solve(echelon_form(matrix), vector)
        solvable_orders = [d for d in range(1, 13)
                           if tuple(d * v for v in vector) in images]
        if result is None:
            assert not solvable_orders
        else:
            for d in solvable_orders:
                assert d % result.order == 0
            if result.order <= 12 and all(abs(x) <= 12 for x in result.particular):
                assert result.order in solvable_orders


def pivot(v):
    return next(j for j, x in enumerate(v) if x)


def full_hermite_form(matrix):
    """The Hermite form of [M^T | I] with every row back-reduced."""
    ncols = len(matrix[0])
    return surgeon.exactlin._hermite_rows(
        [list(col) + [int(i == j) for j in range(ncols)] for i, col in enumerate(zip(*matrix))])


def max_bits(rows):
    return max(abs(x).bit_length() for row in rows for x in row)


class TestEchelonForm:
    """echelon_form(M) is a basis (h, u) of the lattice of pairs (M*u, u):
    the image rows (h != 0) first, in echelon form with positive pivots,
    then the kernel rows in Hermite form.  Its pivots and kernel rows are
    those of the fully reduced Hermite form."""

    @staticmethod
    def check(matrix):
        nrows, ncols = len(matrix), len(matrix[0])
        form = echelon_form(matrix)
        h_block, u_block = [r[:nrows] for r in form], [r[nrows:] for r in form]
        for h, u in zip(h_block, u_block):
            assert t_mat_vec(matrix, u) == list(h)
        assert fraction_det(u_block) in (1, -1)
        rank = rational_rank(matrix)
        assert all(any(h) for h in h_block[:rank]) and not any(map(any, h_block[rank:]))
        pivots = [pivot(r) for r in form]
        assert pivots == sorted(set(pivots))
        assert all(p < nrows for p in pivots[:rank]) and all(p >= nrows for p in pivots[rank:])
        assert all(r[p] > 0 for r, p in zip(form, pivots))
        for t in range(rank, ncols):
            assert all(0 <= form[i][pivots[t]] < form[t][pivots[t]] for i in range(rank, t))
        assert smith_diagonal(h_block) == smith_diagonal(matrix)
        full = full_hermite_form(matrix)
        assert [r[p] for r, p in zip(full, pivots)] == [r[p] for r, p in zip(form, pivots)]
        assert [list(r) for r in form[rank:]] == full[rank:]

    def test_seeded_square_rectangular_and_singular(self):
        rng = random.Random(2404)
        for _ in range(300):
            n, ncols = rng.randint(2, 6), rng.randint(1, 6)
            inner = rng.randint(1, n - 1)
            self.check(random_int_matrix(rng, n, n, -9, 9))
            self.check(random_int_matrix(rng, n, ncols, -9, 9))
            self.check(t_mat_mul(random_int_matrix(rng, n, inner, -3, 3),
                                 random_int_matrix(rng, inner, n, -3, 3)))

    @pytest.mark.parametrize("k,bits", [(6, 8), (10, 8), (20, 39), (35, 84), (50, 127)])
    def test_image_rows_grow_as_far_as_the_full_form(self, k, bits):
        # The image rows keep the elimination's entries; on dense linking
        # matrices their largest bit length is that of the reduced form.
        entries = linking_matrix(dense_diagram(random.Random(1), k)).entries
        assert max_bits(echelon_form(entries)) == max_bits(full_hermite_form(entries)) == bits


class TestCanonicalSolution:
    """The integral solutions of M*a = d*v are a coset of the integer kernel
    lattice; the printed a is its one member with 0 <= a[p] < w[p] at the
    pivot p of each Hermite kernel basis vector w."""

    @staticmethod
    def reduce(a, basis):
        for w in basis:
            q = a[pivot(w)] // w[pivot(w)]
            a = [x - q * y for x, y in zip(a, w)]
        return a

    def test_kernel_shifts_reduce_to_the_printed_solution(self):
        rng = random.Random(1404)
        checked = 0
        while checked < 300:
            nrows, ncols = rng.randint(1, 4), rng.randint(2, 5)
            inner = rng.randint(1, ncols - 1)  # rank < ncols: a nonzero kernel
            matrix = t_mat_mul(random_int_matrix(rng, nrows, inner, -3, 3),
                               random_int_matrix(rng, inner, ncols, -3, 3))
            image = t_mat_vec(matrix, [rng.randint(-4, 4) for _ in range(ncols)])
            g = gcd(*image) or 1
            # an image vector divided by its content, so that orders d > 1 occur
            vector = [x // g for x in image] if rng.random() < 0.5 else image
            result = minimal_order_solve(echelon_form(matrix), vector)
            a, basis = list(result.particular), result.kernel_basis
            assert t_mat_vec(matrix, a) == [result.order * x for x in vector]
            assert len(basis) == ncols - rational_rank(matrix)
            pivots = [pivot(w) for w in basis]
            assert pivots == sorted(set(pivots))
            for i, w in enumerate(basis):
                assert t_mat_vec(matrix, w) == [0] * nrows
                assert 0 <= a[pivots[i]] < w[pivots[i]]
                assert all(0 <= u[pivots[i]] < w[pivots[i]] for u in basis[:i])
            shifted = a
            for w in basis:
                r = rng.randint(-9, 9)
                shifted = [x + r * y for x, y in zip(shifted, w)]
            assert self.reduce(shifted, basis) == a
            checked += 1


class TestOneFactorizationPerSolve:
    # a row with a two-dimensional kernel, so the kernel basis is needed too
    MATRIX = [[2, 4, 6]]

    def test_minimal_order_solve(self, monkeypatch):
        calls = count_calls(monkeypatch, surgeon.exactlin, "_hermite_rows")
        result = minimal_order_solve(echelon_form(self.MATRIX), [3])
        assert result.order == 2
        assert t_mat_vec(self.MATRIX, result.particular) == [6]
        assert len(calls) == 1

    def test_solve_rational(self, monkeypatch):
        # the rational solution is the integral one divided by its order
        calls = count_calls(monkeypatch, surgeon.exactlin, "_hermite_rows")
        result = minimal_order_solve(echelon_form(self.MATRIX), [3])
        particular = [Fraction(x, result.order) for x in result.particular]
        assert t_mat_vec(self.MATRIX, particular) == [3]
        assert len(result.kernel_basis) == 2
        assert len(calls) == 1

    def test_given_form_is_not_recomputed(self, monkeypatch):
        # the solve substitutes into the form it is given and never factors
        form = echelon_form(self.MATRIX)
        calls = count_calls(monkeypatch, surgeon.exactlin, "_hermite_rows")
        assert minimal_order_solve(form, [3]).order == 2
        assert calls == []

    @pytest.mark.parametrize("matrix", [MATRIX, [[0, 1], [1, -2]]], ids=["1x3", "2x2"])
    def test_vector_length_must_match_rows(self, matrix):
        form = echelon_form(matrix)
        for vector in ([], [3] * (len(matrix) + 1)):
            with pytest.raises(ValueError, match="does not match matrix rows"):
                minimal_order_solve(form, vector)


# The rank-5 matrix on which the earlier pivot ping-pong SNF ran for 38 s
# (transform entries of 3.6 M bits, invariant factors 1, 1, 1, 1, 1, 0).
RANK5_6X6 = [[5, 3, -3, 4, -2, -2], [3, 10, 3, -2, -4, -4], [-3, 3, 7, -1, -2, -4],
             [4, -2, -1, 14, -8, -3], [-2, -4, -2, -8, 20, -6], [-2, -4, -4, -3, -6, 13]]
# Diagonal (1, 1, 2) is reached only through the divisibility step; fixing
# it by a row add instead of a column add loops forever on this matrix.
DIVISIBILITY_5X3 = [[3, -1, 1], [-2, 4, 2], [3, 5, -6], [0, 6, 5], [2, 6, -4]]


def check_solvers(matrix, vector, snf):
    """minimal_order_solve against rational elimination, and the order
    against the SNF: with w = U*v, M*a = n*v has an integral solution iff
    every nonzero d_i divides n*w_i."""
    nrows, ncols = len(matrix), len(matrix[0])
    result = minimal_order_solve(echelon_form(matrix), vector)
    rational = rational_gauss_solve(matrix, vector)
    assert (result is None) == (rational is None)
    if result is None:
        return
    assert t_mat_vec(matrix, result.particular) == [result.order * x for x in vector]
    w = t_mat_vec(snf.U, vector)
    assert result.order == lcm(*(d // gcd(d, wi) for d, wi in zip(snf.diagonal, w) if d))
    assert len(result.kernel_basis) == ncols - rational_rank(matrix)
    for kv in result.kernel_basis:
        assert t_mat_vec(matrix, kv) == [0] * nrows
    b = [Fraction(x, result.order) for x in result.particular]
    assert t_mat_vec(matrix, b) == list(vector)


def check_dense_diagram(diagram, knots):
    """Invariants, d3 and the SNF of Q for a diagram with invertible Q, the
    library under a CPU limit and the oracles after it.  U*Q*V = D with
    |det D| = |det Q| makes U and V unimodular."""
    q = [list(row) for row in linking_matrix(diagram).entries]
    with cpu_limit(10):
        reports = [invariant_report(diagram, name) for name in knots]
        d3 = d3_report(diagram).d3
        snf = smith_normal_form(q)
    det = fraction_det(q)
    assert det != 0
    for report in reports:
        assert (report.order, report.tb, report.rot, report.sl) == \
            oracle_invariants(diagram, report.knot)
    assert d3 == oracle_d3_pm1(diagram)
    assert t_mat_mul(t_mat_mul([list(r) for r in snf.U], q), [list(r) for r in snf.V]) == \
        [list(r) for r in snf.D]
    diag = snf.diagonal
    assert all(x > 0 for x in diag) and all(b % a == 0 for a, b in zip(diag, diag[1:]))
    assert prod(diag) == abs(det)
    assert all(snf.D[i][j] == 0 for i in range(len(q)) for j in range(len(q)) if i != j)


class TestGrowthRegressions:
    """Inputs on which the earlier SNF's unreduced transforms exploded.
    The library calls of each case take well under a second; the CPU limit
    turns a regression into a failure instead of a hang."""

    @pytest.mark.parametrize("matrix,diagonal", [(RANK5_6X6, (1, 1, 1, 1, 1, 0)),
                                                 (DIVISIBILITY_5X3, (1, 1, 2))],
                             ids=["rank5-6x6", "divisibility-5x3"])
    def test_named_matrices(self, matrix, diagonal):
        rng = random.Random(len(matrix))
        nrows, ncols = len(matrix), len(matrix[0])
        vectors = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
        vectors += [t_mat_vec(matrix, [rng.randint(-3, 3) for _ in range(ncols)]) for _ in range(4)]
        vectors += [[rng.randint(-5, 5) for _ in range(nrows)] for _ in range(4)]
        with cpu_limit(10):
            snf = snf_invariants_hold(matrix)
            for v in vectors:
                check_solvers(matrix, v, snf)
        assert snf.diagonal == diagonal

    @pytest.mark.parametrize("seed", range(5))
    def test_dense_k10(self, seed):
        # seed 0 took 15 s, seeds 1 and 3 more than 20 s under the earlier SNF
        diagram = dense_diagram(random.Random(seed), 10)
        check_dense_diagram(diagram, [w.name for w in diagram.knots])

    def test_dense_k50(self):
        check_dense_diagram(dense_diagram(random.Random(0), 50), ["K1"])


class TestSignature:
    def test_zero_matrix(self):
        assert symmetric_signature([[0]]) == (0, 1, 0)

    def test_negative_definite(self):
        # eigenvalues -1 and -3
        assert symmetric_signature([[-2, -1], [-1, -2]]) == (0, 0, 2)

    def test_indefinite(self):
        # eigenvalues +1 and -1
        assert symmetric_signature([[0, -1], [-1, 0]]) == (1, 0, 1)

    def test_empty(self):
        assert symmetric_signature([]) == (0, 0, 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="^signature needs a square matrix$"):
            symmetric_signature([[1, 2]])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_signature([[0, 1], [2, 0]])

    def test_against_floating_point_eigenvalues(self):
        """Exact, by Descartes' rule on char(M); the old name keeps the tier-1 test id."""
        rng = random.Random(20240)
        for _ in range(120):
            n = rng.randint(1, 5)
            matrix = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    matrix[i][j] = matrix[j][i] = rng.randint(-5, 5)
            inertia = symmetric_signature(matrix)
            assert inertia[1] == n - rational_rank(matrix)
            assert inertia == descartes_split(char_poly(matrix), n)

    @pytest.mark.parametrize("family", ["sparse", "zero-diagonal", "gram"])
    def test_against_fraction_elimination_and_char_poly(self, family):
        rng = random.Random(f"signature-{family}")
        for _ in range(700):
            n = rng.randint(0, 8)
            matrix = random_symmetric(rng, n, family)
            inertia = symmetric_signature(matrix)
            assert inertia == fraction_signature(matrix)
            assert inertia == descartes_split(char_poly(matrix), n)

    def test_dense_40(self):
        rng = random.Random(40)
        matrix = [[0] * 40 for _ in range(40)]
        for i in range(40):
            for j in range(i, 40):
                matrix[i][j] = matrix[j][i] = rng.randint(-2, 2)
        assert symmetric_signature(matrix) == fraction_signature(matrix)

    def test_sparse_sweep_paths(self):
        # Permuted block-diagonal S: repairs after pivots in other blocks,
        # rows rescaled across several pivots, zero rows appearing mid-sweep.
        rng = random.Random("signature-blocks")
        for _ in range(400):
            matrix = random_block_symmetric(rng, rng.randint(1, 16))
            assert symmetric_signature(matrix) == fraction_signature(matrix)
        for _ in range(200):
            n = rng.randint(1, 12)
            diagonal = [rng.choice((0, 0, -2, 1)) for _ in range(n)]
            off = [rng.choice((-1, 1)) for _ in range(n)]
            matrix = [[diagonal[i] if i == j else off[min(i, j)] if abs(i - j) == 1 else 0
                       for j in range(n)] for i in range(n)]
            assert symmetric_signature(matrix) == tridiagonal_signature(matrix)

    def test_chain_growth_guard(self):
        """sigma of the benchmark's chain of 400 clasped unknots, a
        tridiagonal S: a pivot updates only the rows it touches, so it takes
        milliseconds, where rescaling every remaining row at every pivot
        takes over 1 s of CPU.  Seed 5 has no zero leading minor, so the
        oracle is Jacobi's rule alone (`fraction_signature` takes 1 s here)."""
        matrix = [list(row) for row in linking_matrix(bench_chain_diagram(random.Random(5), 400)).entries]
        with cpu_limit(1):
            inertia = symmetric_signature(matrix)
        assert inertia == tridiagonal_signature(matrix)


class TestCharPoly:
    def test_small(self):
        assert char_poly([[2, 1], [1, 2]]) == (1, -4, 3)
        assert char_poly([[0]]) == (1, 0)
        assert char_poly([]) == (1,)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10 ** 6), st.integers(-4, 4))
    def test_matches_determinant_evaluation(self, n, seed, x):
        rng = random.Random(seed)
        matrix = random_int_matrix(rng, n, n)
        coeffs = char_poly(matrix)
        value = 0
        for c in coeffs:
            value = value * x + c
        shifted = [[(x if i == j else 0) - matrix[i][j] for j in range(n)] for i in range(n)]
        assert value == leibniz_det(shifted)
