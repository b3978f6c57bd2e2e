import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surgeon.exactlin
from surgeon import (
    kernel_basis,
    minimal_order_solve,
    smith_normal_form,
    solve_rational,
    symmetric_signature,
)

from helpers import (
    char_poly,
    check_snf_invariants,
    count_calls,
    descartes_split,
    fraction_signature,
    image_set,
    leibniz_det,
    random_int_matrix,
    random_symmetric,
    rational_gauss_solve,
    rational_rank,
    t_mat_vec,
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
        assert smith_normal_form([[0, 0], [0, 0]]).rank == 0

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6))
    def test_random_matrices(self, nrows, ncols, seed):
        rng = random.Random(seed)
        snf_invariants_hold(random_int_matrix(rng, nrows, ncols, -9, 9))


class TestSolvers:
    def test_invertible_system(self):
        result = minimal_order_solve([[0, 1], [1, -2]], [1, 1])
        assert result.particular == (3, 1)
        assert result.kernel_basis == ()
        assert result.order == 1

    def test_stabilization_system(self):
        result = minimal_order_solve([[0, -1], [-1, -3]], [1, 1])
        assert result.order == 1
        assert result.particular == (2, -1)

    def test_zero_matrix_full_kernel(self):
        result = minimal_order_solve([[0, 0], [0, 0]], [0, 0])
        assert result.order == 1
        assert result.particular == (0, 0)
        assert result.kernel_basis == ((1, 0), (0, 1))

    def test_unsolvable(self):
        # 5a = 2 has no integral solution: the minimal order exceeds 1
        assert minimal_order_solve([[5]], [2]).order != 1

    def test_minimal_order_single(self):
        # brute force: smallest d with 2d divisible by 5 is 5
        result = minimal_order_solve([[5]], [2])
        assert result.order == 5
        assert result.particular == (2,)

    def test_minimal_order_nullhomologous(self):
        result = minimal_order_solve([[0, 1], [1, -2]], [1, 1])
        assert result.order == 1
        assert result.particular == (3, 1)

    def test_minimal_order_no_rational_preimage(self):
        assert minimal_order_solve([[0, 0], [0, 0]], [1, 0]) is None

    def test_rational_zero_rhs(self):
        particular, kernel = solve_rational([[-2]], [0])
        assert particular == (0,)
        assert kernel == ()

    def test_rational_back_substitution(self):
        matrix = [[0, 1], [1, -2]]
        particular, _ = solve_rational(matrix, [0, 2])
        assert particular == (2, 0)
        assert t_mat_vec(matrix, particular) == [0, 2]

    def test_rational_unsolvable(self):
        assert solve_rational([[0, 0], [0, 0]], [1, 0]) is None

    def test_rational_fraction_rhs(self):
        matrix = [[2, 0], [0, 3]]
        particular, _ = solve_rational(matrix, [Fraction(1, 2), Fraction(2, 5)])
        assert particular == (Fraction(1, 4), Fraction(2, 15))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10 ** 6))
    def test_solutions_resubstitute(self, nrows, ncols, seed):
        rng = random.Random(seed)
        matrix = random_int_matrix(rng, nrows, ncols)
        vector = [rng.randint(-5, 5) for _ in range(nrows)]
        result = minimal_order_solve(matrix, vector)
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
        basis = kernel_basis(smith_normal_form([[2, 4, 6]]))
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
        result = minimal_order_solve(matrix, vector)
        solvable_orders = [d for d in range(1, 13)
                           if tuple(d * v for v in vector) in images]
        if result is None:
            assert not solvable_orders
        else:
            for d in solvable_orders:
                assert d % result.order == 0
            if result.order <= 12 and all(abs(x) <= 12 for x in result.particular):
                assert result.order in solvable_orders


class TestOneFactorizationPerSolve:
    # a row with a two-dimensional kernel, so the kernel basis is needed too
    MATRIX = [[2, 4, 6]]

    def test_minimal_order_solve(self, monkeypatch):
        calls = count_calls(monkeypatch, surgeon.exactlin, "smith_normal_form")
        assert minimal_order_solve(self.MATRIX, [3]).order == 2
        assert len(calls) == 1

    def test_solve_rational(self, monkeypatch):
        calls = count_calls(monkeypatch, surgeon.exactlin, "smith_normal_form")
        particular, kernel = solve_rational(self.MATRIX, [3])
        assert t_mat_vec(self.MATRIX, particular) == [3]
        assert len(kernel) == 2
        assert len(calls) == 1


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

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_signature([[0, 1], [2, 0]])

    def test_against_floating_point_eigenvalues(self):
        rng = random.Random(20240)
        checked = 0
        while checked < 120:
            n = rng.randint(1, 5)
            matrix = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    matrix[i][j] = matrix[j][i] = rng.randint(-5, 5)
            eigs = np.linalg.eigvalsh(np.array(matrix, dtype=float))
            # skip numerically ambiguous spectra; exact zero count is
            # separately pinned by the rank
            if any(1e-9 < abs(e) < 1e-6 for e in eigs):
                continue
            n_plus, n_zero, n_minus = symmetric_signature(matrix)
            assert n_zero == n - rational_rank(matrix)
            assert n_plus == int(np.sum(eigs > 1e-6))
            assert n_minus == int(np.sum(eigs < -1e-6))
            checked += 1

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
