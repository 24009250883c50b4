"""Tests for Gaussian elimination, nullspaces and root finding over GF(p)."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.field import PrimeField, Polynomial, find_roots
from repro.field.linalg import gaussian_elimination, solve_linear_system, solve_nullspace_vector
from repro.field.roots import roots_with_multiplicity

import reference_kernel

FIELD = PrimeField(10007)


class TestGaussianElimination:
    def test_identity_stays(self):
        rref, pivots = gaussian_elimination(FIELD, [[1, 0], [0, 1]])
        assert rref == [[1, 0], [0, 1]]
        assert pivots == [0, 1]

    def test_rank_deficient(self):
        rref, pivots = gaussian_elimination(FIELD, [[1, 2], [2, 4]])
        assert pivots == [0]
        assert rref[1] == [0, 0]

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParameterError):
            gaussian_elimination(FIELD, [[1, 2], [1]])

    def test_empty_matrix(self):
        assert gaussian_elimination(FIELD, []) == ([], [])


class TestLinearSolve:
    def test_unique_solution(self):
        solution = solve_linear_system(FIELD, [[1, 1], [1, 10006]], [10, 4])
        assert solution is not None
        a, b = solution
        assert FIELD.add(a, b) == 10 and FIELD.sub(a, b) == 4

    def test_inconsistent_system(self):
        assert solve_linear_system(FIELD, [[1, 1], [1, 1]], [1, 2]) is None

    def test_underdetermined_system(self):
        solution = solve_linear_system(FIELD, [[1, 1, 0]], [5])
        assert solution is not None
        assert FIELD.add(solution[0], solution[1]) == 5

    def test_size_mismatch(self):
        with pytest.raises(ParameterError):
            solve_linear_system(FIELD, [[1, 2]], [1, 2])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
    def test_random_invertible_systems(self, size, seed):
        rng = random.Random(seed)
        matrix = [[rng.randrange(FIELD.modulus) for _ in range(size)] for _ in range(size)]
        target = [rng.randrange(FIELD.modulus) for _ in range(size)]
        solution = solve_linear_system(FIELD, matrix, target)
        if solution is None:
            return  # singular matrix: nothing to verify
        for row, value in zip(matrix, target):
            acc = 0
            for coeff, x in zip(row, solution):
                acc = FIELD.add(acc, FIELD.mul(coeff, x))
            assert acc == value


class TestNullspace:
    def test_full_rank_has_no_nullspace(self):
        assert solve_nullspace_vector(FIELD, [[1, 0], [0, 1]]) is None

    def test_nullspace_vector_is_in_kernel(self):
        matrix = [[1, 2, 3], [2, 4, 6]]
        vector = solve_nullspace_vector(FIELD, matrix)
        assert vector is not None and any(vector)
        for row in matrix:
            acc = 0
            for coeff, x in zip(row, vector):
                acc = FIELD.add(acc, FIELD.mul(coeff, x))
            assert acc == 0


class TestRootFinding:
    def test_roots_of_product_of_linears(self):
        roots = [3, 77, 1024, 9999]
        p = Polynomial.from_roots(FIELD, roots)
        assert find_roots(p, random.Random(1)) == sorted(roots)

    def test_constant_polynomial_has_no_roots(self):
        assert find_roots(Polynomial.from_coefficients(FIELD, [5])) == []

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ParameterError):
            find_roots(Polynomial.zero(FIELD))

    def test_irreducible_quadratic(self):
        # x^2 + 1 has no roots mod p when p = 3 (mod 4); 10007 % 4 == 3.
        p = Polynomial.from_coefficients(FIELD, [1, 0, 1])
        assert find_roots(p, random.Random(3)) == []

    def test_mixed_factors(self):
        p = Polynomial.from_roots(FIELD, [11, 22]) * Polynomial.from_coefficients(
            FIELD, [1, 0, 1]
        )
        assert find_roots(p, random.Random(5)) == [11, 22]

    def test_repeated_roots_reported_once(self):
        p = Polynomial.from_roots(FIELD, [9, 9, 42])
        assert find_roots(p, random.Random(7)) == [9, 42]

    def test_roots_with_multiplicity(self):
        p = Polynomial.from_roots(FIELD, [9, 9, 42])
        assert roots_with_multiplicity(p, random.Random(9)) == {9: 2, 42: 1}

    @settings(max_examples=15, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=10006), min_size=1, max_size=8))
    def test_random_root_sets_recovered(self, roots):
        p = Polynomial.from_roots(FIELD, roots)
        assert find_roots(p, random.Random(11)) == sorted(roots)


class TestSplitRootsWorkStack:
    """Regression: maximally unbalanced Cantor-Zassenhaus splits in the
    reference kernel (``tests/reference_kernel.py``).

    A probe that peels exactly one linear factor per split used to drive the
    recursive ``_split_roots`` to call depth ``d`` -- a ``RecursionError``
    once ``d`` passes the interpreter's recursion limit.  The explicit
    work-stack must recover every root.  The test is quadratic in ``d``, so
    ``d`` sits just past the limit and no higher.  The probe is forced via the
    scalar ``pow`` helper so the worst case is deterministic rather than a
    (vanishingly unlikely) run of unlucky random shifts.
    """

    def test_deeply_unbalanced_split_peels_all_roots(self, monkeypatch):
        degree = sys.getrecursionlimit() + 200
        assert degree > sys.getrecursionlimit()  # a recursive split would overflow
        assert FIELD.modulus > degree  # all roots distinct mod p
        poly = Polynomial.from_roots(FIELD, range(1, degree + 1))
        peeled = iter(range(1, degree + 1))

        def one_linear_factor(p, base, exponent, modulus):
            # probe = pow(...) - 1 must equal (x - r): return (x - r) + 1.
            r = next(peeled)
            return [(1 - r) % p, 1]

        monkeypatch.setattr(reference_kernel, "_poly_pow_mod_scalar", one_linear_factor)
        roots: list[int] = []
        reference_kernel._split_roots(FIELD.modulus, list(poly.coeffs), random.Random(0), roots)
        assert sorted(roots) == list(range(1, degree + 1))
