"""Field-kernel selection and cross-kernel exactness tests.

The contract under test: both :class:`~repro.field.kernels.FieldKernel`
implementations compute *bit-identical* values for the batched primitives
(evaluation, products, division, elimination, system assembly), and
identical root sets for the factorisation entry point, no matter how
different the internal strategies are.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.field import Polynomial, find_roots, prime_field
from repro.field.kernels import (
    _GCD_VECTOR_CUTOFF,
    NumpyFieldKernel,
    PythonFieldKernel,
    _poly_gcd_scalar,
    _poly_mul_scalar,
    kernel_for,
)
from repro.field.linalg import (
    gaussian_elimination,
    rational_interpolation_system,
    solve_linear_system,
)

PRIMES = [3, 5, 17, 257, 65537, 1048583, (1 << 29) + 11]
BIG_PRIME = (1 << 61) - 1  # Mersenne prime above the NumPy kernel's range

python_kernel = PythonFieldKernel()
numpy_kernel = NumpyFieldKernel()
BOTH_KERNELS = (python_kernel, numpy_kernel)


# ---------------------------------------------------------------------------
# Selection: the modulus picks the kernel
# ---------------------------------------------------------------------------


class TestKernelFor:
    @pytest.mark.parametrize("name", [None, "auto", "numpy"])
    def test_modulus_picks_the_kernel(self, name):
        # Products of two residues below 2**31 fit an int64; 2**61 - 1
        # squared does not, so only the reference kernel takes it.
        assert kernel_for(1048583, name).name == "numpy"
        assert kernel_for(2**31 - 1, name).name == "numpy"
        assert kernel_for(BIG_PRIME, name).name == "python"
        assert kernel_for(2**31 + 11, name).name == "python"

    def test_python_is_the_reference_at_any_modulus(self):
        assert kernel_for(1048583, "python").name == "python"
        assert kernel_for(BIG_PRIME, "python").name == "python"

    def test_kernels_are_singletons(self):
        assert kernel_for(1048583) is kernel_for(65537, "numpy")
        assert kernel_for(BIG_PRIME) is kernel_for(17, "python")

    @pytest.mark.parametrize("name", ["no-such-kernel", "numba", ""])
    def test_unknown_name_raises(self, name):
        with pytest.raises(ParameterError, match="unknown field kernel"):
            kernel_for(17, name)


# ---------------------------------------------------------------------------
# Cross-kernel exactness (property tests against the scalar reference)
# ---------------------------------------------------------------------------


@st.composite
def prime_and_elements(draw, count):
    p = draw(st.sampled_from(PRIMES))
    values = draw(
        st.lists(st.integers(0, p - 1), min_size=count[0], max_size=count[1])
    )
    return p, values


class TestBatchedPrimitives:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_evaluate_from_roots_many_matches_scalar(self, data):
        p, roots = data.draw(prime_and_elements((0, 20)))
        points = data.draw(st.lists(st.integers(0, p - 1), max_size=8))
        field = prime_field(p)
        expected = [
            Polynomial.evaluate_from_roots(field, roots, z) for z in points
        ]
        for kernel in BOTH_KERNELS:
            assert kernel.evaluate_from_roots_many(p, roots, points) == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_poly_eval_many_matches_scalar(self, data):
        p, coeffs = data.draw(prime_and_elements((1, 12)))
        points = data.draw(st.lists(st.integers(0, p - 1), max_size=8))
        field = prime_field(p)
        poly = Polynomial.from_coefficients(field, coeffs)
        expected = [poly.evaluate(z) for z in points]
        for kernel in BOTH_KERNELS:
            assert kernel.poly_eval_many(p, poly.coeffs, points) == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_poly_mul_and_divmod_match_across_kernels(self, data):
        p, a = data.draw(prime_and_elements((1, 40)))
        b = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=40))
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
        if not a or not b:
            return
        reference_mul = python_kernel.poly_mul(p, a, b)
        reference_div = python_kernel.poly_divmod(p, a, b)
        for kernel in BOTH_KERNELS:
            assert kernel.poly_mul(p, a, b) == reference_mul
            assert kernel.poly_divmod(p, a, b) == reference_div

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_gaussian_elimination_and_solve_match(self, data):
        p = data.draw(st.sampled_from(PRIMES))
        rows = data.draw(st.integers(1, 8))
        cols = data.draw(st.integers(1, 8))
        matrix = [
            [data.draw(st.integers(0, p - 1)) for _ in range(cols)]
            for _ in range(rows)
        ]
        rhs = [data.draw(st.integers(0, p - 1)) for _ in range(rows)]
        reference_ge = python_kernel.gaussian_elimination(p, matrix)
        reference_solve = python_kernel.solve_linear_system(p, matrix, rhs)
        for kernel in BOTH_KERNELS:
            assert kernel.gaussian_elimination(p, matrix) == reference_ge
            assert kernel.solve_linear_system(p, matrix, rhs) == reference_solve
        if reference_solve is not None:
            for produced, expected in zip(
                (
                    sum(c * x for c, x in zip(row, reference_solve)) % p
                    for row in matrix
                ),
                rhs,
            ):
                assert produced == expected % p

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_find_roots_identical_root_sets(self, data):
        p = data.draw(st.sampled_from([5, 17, 257, 1048583, (1 << 29) + 11]))
        field = prime_field(p)
        roots = data.draw(
            st.lists(st.integers(0, p - 1), min_size=1, max_size=10)
        )
        poly = Polynomial.from_roots(field, roots)
        if data.draw(st.booleans()):
            # Mix in a (often irreducible) cofactor: the kernels must agree
            # on polynomials that are not pure products of distinct linears.
            extra = Polynomial.from_coefficients(
                field,
                [data.draw(st.integers(0, p - 1)) for _ in range(3)] + [1],
            )
            poly = poly * extra
        seed = data.draw(st.integers(0, 2**16))
        expected = python_kernel.find_distinct_roots(p, poly.coeffs, random.Random(seed))
        assert set(roots) <= set(expected)
        assert all(poly.evaluate(root) == 0 for root in expected)
        for kernel in BOTH_KERNELS:
            produced = kernel.find_distinct_roots(
                p, poly.coeffs, random.Random(seed + 1)
            )
            assert produced == expected

    def test_inv_many_matches_scalar_and_rejects_zero(self):
        p = 1048583
        field = prime_field(p)
        values = [random.Random(0).randrange(1, p) for _ in range(50)]
        for kernel in BOTH_KERNELS:
            assert kernel.inv_many(p, values) == [field.inv(v) for v in values]
            with pytest.raises(ZeroDivisionError):
                kernel.inv_many(p, values + [0])

    def test_rational_system_identical_across_kernels(self):
        p = 1048583
        field = prime_field(p)
        rng = random.Random(42)
        points = [rng.randrange(p) for _ in range(10)]
        numer = [rng.randrange(p) for _ in range(10)]
        denom = [rng.randrange(1, p) for _ in range(10)]
        results = [
            rational_interpolation_system(
                field, points, numer, denom, 6, 4, kernel=kernel
            )
            for kernel in BOTH_KERNELS
        ]
        assert all(result == results[0] for result in results)


# ---------------------------------------------------------------------------
# Polynomial layer integration (ops route through kernel_for the modulus)
# ---------------------------------------------------------------------------


class TestPolynomialIntegration:
    def test_polynomial_ops_identical_under_both_kernels(self):
        # Polynomial operators run on the NumPy kernel at this modulus; the
        # reference kernel's primitives must give the same coefficients.
        p = 1048583
        field = prime_field(p)
        rng = random.Random(7)
        a = Polynomial.from_coefficients(field, [rng.randrange(p) for _ in range(30)])
        b = Polynomial.from_coefficients(field, [rng.randrange(p) for _ in range(18)])
        assert kernel_for(p).name == "numpy"
        product = a * b
        assert list(product.coeffs) == python_kernel.poly_mul(p, a.coeffs, b.coeffs)
        for dividend, divisor in ((a, b), (product, a)):
            quotient, remainder = dividend.divmod(divisor)
            assert (list(quotient.coeffs), list(remainder.coeffs)) == (
                python_kernel.poly_divmod(p, dividend.coeffs, divisor.coeffs)
            )
        assert list(a.gcd(b).coeffs) == python_kernel.poly_gcd(p, a.coeffs, b.coeffs)

    def test_evaluate_from_roots_many_matches_points_loop(self):
        p = 65537
        field = prime_field(p)
        roots = {3, 7, 1000, 40000}
        points = [1, 2, 65535]
        batch = Polynomial.evaluate_from_roots_many(field, roots, points)
        assert batch == [
            Polynomial.evaluate_from_roots(field, roots, z) for z in points
        ]

    def test_linalg_wrappers_accept_kernel_argument(self):
        p = 257
        field = prime_field(p)
        matrix = [[1, 2], [3, 4]]
        for kernel in BOTH_KERNELS:
            rref, pivots = gaussian_elimination(field, matrix, kernel=kernel)
            assert pivots == [0, 1]
            assert solve_linear_system(field, matrix, [5, 6], kernel=kernel) is not None

    def test_find_roots_kernel_argument(self):
        field = prime_field(1048583)
        poly = Polynomial.from_roots(field, [11, 22, 33, 44, 55])
        for kernel in BOTH_KERNELS:
            assert find_roots(poly, kernel=kernel) == [11, 22, 33, 44, 55]


# ---------------------------------------------------------------------------
# Vectorized Euclid chain (large-degree gcds above _GCD_VECTOR_CUTOFF)
# ---------------------------------------------------------------------------


class TestLargeDegreeGcd:
    """The vectorized gcd chain is exact: bit-identical to the scalar
    reference on operands large enough to engage it."""

    @staticmethod
    def _operands(p, rng, common_degree=60, extra=35):
        common = [rng.randrange(p) for _ in range(common_degree)] + [1]
        left = _poly_mul_scalar(
            p, common, [rng.randrange(p) for _ in range(extra)] + [1]
        )
        right = _poly_mul_scalar(
            p, common, [rng.randrange(p) for _ in range(extra + 7)] + [1]
        )
        return left, right

    @pytest.mark.parametrize("p", [65537, 1048583, (1 << 29) + 11])
    def test_matches_scalar_reference(self, p):
        rng = random.Random(p)
        a, b = self._operands(p, rng)
        assert min(len(a), len(b)) > _GCD_VECTOR_CUTOFF
        expected = _poly_gcd_scalar(p, a, b)
        for kernel in (numpy_kernel,):
            assert kernel.poly_gcd(p, a, b) == expected

    def test_gcd_recovers_planted_common_factor(self):
        p = 1048583
        field = prime_field(p)
        a = Polynomial.from_roots(field, range(1, 120))
        b = Polynomial.from_roots(field, range(60, 200))
        expected = Polynomial.from_roots(field, range(60, 120))
        for kernel in (numpy_kernel,):
            assert kernel.poly_gcd(p, a.coeffs, b.coeffs) == list(
                expected.coeffs
            )

    def test_root_finding_at_degree_200_exercises_the_chain(self):
        # Degree 200 keeps every top-level gcd above the cutoff, so the
        # Cantor-Zassenhaus driver runs through the vectorized Euclid path.
        p = 1048583
        field = prime_field(p)
        rng = random.Random(11)
        roots = sorted(rng.sample(range(1, p), 200))
        poly = Polynomial.from_roots(field, roots)
        for kernel in (numpy_kernel,):
            produced = kernel.find_distinct_roots(
                p, poly.coeffs, random.Random(5)
            )
            assert produced == roots
