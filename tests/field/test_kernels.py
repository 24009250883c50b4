"""The field kernel against the reference kernel, at every array dtype.

The contract under test: :class:`~repro.field.kernels.NumpyFieldKernel`
computes the same values as the pure-Python oracle
(``tests/reference_kernel.py``) for every method -- batched evaluation,
Horner, products, division, gcd, elimination, solving, rational-system
assembly and batch inversion -- and the same sorted root sets, at moduli
on both sides of the ``int64`` / ``object`` dtype switch.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ParameterError
from repro.field import Polynomial, find_roots, prime_field
from repro.field.kernels import (
    _GCD_VECTOR_CUTOFF,
    NumpyFieldKernel,
    _dtype,
    _poly_mul_scalar,
    kernel_for,
)

from reference_kernel import PythonFieldKernel

#: ``{id: modulus}``: a small odd prime, ~2**20, the largest ``int64``
#: modulus (2**31 - 1, on the limb paths), the first prime above 2**31, the
#: Mersenne prime 2**61 - 1 and the first prime above 2**64.
MODULI = {
    "p17": 17,
    "p2e20": 1048583,
    "p2e31-1": (1 << 31) - 1,
    "p2e31+": 2147483659,
    "p2e61-1": (1 << 61) - 1,
    "p2e64+": 18446744073709551629,
}
#: Every modulus above plus more ``int64`` ones (radix-3 and fast paths).
PRIMES = [3, 5, 257, 65537, (1 << 29) + 11, *MODULI.values()]

oracle = PythonFieldKernel()
kernel = NumpyFieldKernel()


# ---------------------------------------------------------------------------
# Resolution: one kernel, the name checked and dropped
# ---------------------------------------------------------------------------


class TestKernelFor:
    @pytest.mark.parametrize("name", [None, "auto", "numpy"])
    @pytest.mark.parametrize("modulus", MODULI.values(), ids=MODULI)
    def test_every_accepted_name_is_the_one_kernel(self, name, modulus):
        assert kernel_for(modulus, name) is kernel_for(3)
        assert kernel_for(modulus, name).name == "numpy"

    @pytest.mark.parametrize("name", ["python", "no-such-kernel", "numba", ""])
    def test_any_other_name_raises(self, name):
        with pytest.raises(
            ParameterError, match=rf"unknown field kernel '{name}'; accepted: \['auto', 'numpy'\]"
        ):
            kernel_for(17, name)

    @pytest.mark.parametrize("modulus", [2, 1, 0])
    def test_a_modulus_below_three_raises(self, modulus):
        with pytest.raises(ParameterError, match="odd prime modulus"):
            kernel_for(modulus)

    @pytest.mark.parametrize("modulus", MODULI.values(), ids=MODULI)
    def test_the_dtype_follows_the_modulus(self, modulus):
        expected = np.int64 if modulus < 1 << 31 else object
        assert _dtype(modulus) is expected


# ---------------------------------------------------------------------------
# Value for value against the oracle (property tests)
# ---------------------------------------------------------------------------


@st.composite
def prime_and_elements(draw, count):
    p = draw(st.sampled_from(PRIMES))
    values = draw(
        st.lists(st.integers(0, p - 1), min_size=count[0], max_size=count[1])
    )
    return p, values


def trimmed(values):
    while values and values[-1] == 0:
        values.pop()
    return values


class TestAgainstTheOracle:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_evaluate_from_roots_many(self, data):
        p, roots = data.draw(prime_and_elements((0, 20)))
        points = data.draw(st.lists(st.integers(0, p - 1), max_size=8))
        field = prime_field(p)
        expected = oracle.evaluate_from_roots_many(p, roots, points)
        assert expected == [Polynomial.evaluate_from_roots(field, roots, z) for z in points]
        assert kernel.evaluate_from_roots_many(p, roots, points) == expected

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_poly_eval_many(self, data):
        p, coeffs = data.draw(prime_and_elements((1, 12)))
        points = data.draw(st.lists(st.integers(0, p - 1), max_size=8))
        coeffs = trimmed(coeffs)
        expected = oracle.poly_eval_many(p, coeffs, points)
        assert kernel.poly_eval_many(p, coeffs, points) == expected

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_poly_mul_divmod_and_gcd(self, data):
        p, a = data.draw(prime_and_elements((1, 40)))
        b = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=40))
        a, b = trimmed(a), trimmed(b)
        if not a or not b:
            return
        assert kernel.poly_mul(p, a, b) == oracle.poly_mul(p, a, b)
        assert kernel.poly_divmod(p, a, b) == oracle.poly_divmod(p, a, b)
        assert kernel.poly_gcd(p, a, b) == oracle.poly_gcd(p, a, b)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_gaussian_elimination_and_solve(self, data):
        p = data.draw(st.sampled_from(PRIMES))
        rows = data.draw(st.integers(1, 8))
        cols = data.draw(st.integers(1, 8))
        matrix = [
            [data.draw(st.integers(0, p - 1)) for _ in range(cols)]
            for _ in range(rows)
        ]
        rhs = [data.draw(st.integers(0, p - 1)) for _ in range(rows)]
        assert kernel.gaussian_elimination(p, matrix) == oracle.gaussian_elimination(p, matrix)
        expected = oracle.solve_linear_system(p, matrix, rhs)
        assert kernel.solve_linear_system(p, matrix, rhs) == expected
        if expected is not None:
            for row, value in zip(matrix, rhs):
                assert sum(c * x for c, x in zip(row, expected)) % p == value

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_rational_system_assembly(self, data):
        p = data.draw(st.sampled_from(PRIMES[3:]))
        deg_num = data.draw(st.integers(0, 6))
        deg_den = data.draw(st.integers(0, 6))
        count = max(1, deg_num + deg_den)
        points = [data.draw(st.integers(0, p - 1)) for _ in range(count)]
        numer = [data.draw(st.integers(0, p - 1)) for _ in range(count)]
        denom = [data.draw(st.integers(1, p - 1)) for _ in range(count)]
        expected = oracle.assemble_rational_system(p, points, numer, denom, deg_num, deg_den)
        assert (
            kernel.assemble_rational_system(p, points, numer, denom, deg_num, deg_den)
            == expected
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_find_distinct_roots(self, data):
        p = data.draw(st.sampled_from(PRIMES[1:]))
        field = prime_field(p)
        roots = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=10))
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
        expected = oracle.find_distinct_roots(p, poly.coeffs, random.Random(seed))
        assert set(roots) <= set(expected)
        assert all(poly.evaluate(root) == 0 for root in expected)
        assert kernel.find_distinct_roots(p, poly.coeffs, random.Random(seed + 1)) == expected

    @pytest.mark.parametrize("p", MODULI.values(), ids=MODULI)
    def test_inv_many_and_zero(self, p):
        values = [random.Random(p).randrange(1, p) for _ in range(50)]
        assert kernel.inv_many(p, values) == oracle.inv_many(p, values)
        with pytest.raises(ZeroDivisionError):
            kernel.inv_many(p, values + [0])


# ---------------------------------------------------------------------------
# Shapes the property tests do not reach
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", MODULI.values(), ids=MODULI)
class TestLargeOperands:
    """Operands past the scalar cutoffs, where every vector path runs."""

    def test_products_divisions_and_gcds(self, p):
        rng = random.Random(p)
        common = [rng.randrange(p) for _ in range(_GCD_VECTOR_CUTOFF + 12)] + [1]
        a = _poly_mul_scalar(p, common, [rng.randrange(p) for _ in range(35)] + [1])
        b = _poly_mul_scalar(p, common, [rng.randrange(p) for _ in range(42)] + [1])
        assert min(len(a), len(b)) > _GCD_VECTOR_CUTOFF
        assert kernel.poly_mul(p, a, b) == oracle.poly_mul(p, a, b)
        assert kernel.poly_mul(p, a, a) == oracle.poly_mul(p, a, a)
        assert kernel.poly_divmod(p, a, common) == oracle.poly_divmod(p, a, common)
        assert kernel.poly_divmod(p, b, a) == oracle.poly_divmod(p, b, a)
        assert kernel.poly_gcd(p, a, b) == oracle.poly_gcd(p, a, b)

    def test_a_cpi_sized_system(self, p):
        # The shape cpi_decode builds at d = 48: 48 rows, 48 unknowns.
        rng = random.Random(p + 1)
        points = [rng.randrange(p) for _ in range(48)]
        numer = [rng.randrange(p) for _ in range(48)]
        denom = [rng.randrange(1, p) for _ in range(48)]
        matrix, rhs = kernel.assemble_rational_system(p, points, numer, denom, 25, 23)
        assert (matrix, rhs) == oracle.assemble_rational_system(p, points, numer, denom, 25, 23)
        assert kernel.solve_linear_system(p, matrix, rhs) == oracle.solve_linear_system(
            p, matrix, rhs
        )
        assert kernel.gaussian_elimination(p, matrix) == oracle.gaussian_elimination(p, matrix)

    def test_root_finding_past_the_gcd_cutoff(self, p):
        # Degree 60 keeps the top-level gcds above the cutoff, so the
        # Cantor-Zassenhaus driver runs the vectorized Euclid chain.
        rng = random.Random(11)
        roots = sorted({rng.randrange(1, p) for _ in range(60)})
        poly = Polynomial.from_roots(prime_field(p), roots)
        produced = kernel.find_distinct_roots(p, poly.coeffs, random.Random(5))
        assert produced == roots == oracle.find_distinct_roots(
            p, poly.coeffs, random.Random(6)
        )


class TestLargeDegreeGcd:
    def test_gcd_recovers_planted_common_factor(self):
        p = 1048583
        field = prime_field(p)
        a = Polynomial.from_roots(field, range(1, 120))
        b = Polynomial.from_roots(field, range(60, 200))
        expected = Polynomial.from_roots(field, range(60, 120))
        assert kernel.poly_gcd(p, a.coeffs, b.coeffs) == list(expected.coeffs)

    def test_root_finding_at_degree_200_exercises_the_chain(self):
        p = 1048583
        field = prime_field(p)
        rng = random.Random(11)
        roots = sorted(rng.sample(range(1, p), 200))
        poly = Polynomial.from_roots(field, roots)
        assert kernel.find_distinct_roots(p, poly.coeffs, random.Random(5)) == roots


# ---------------------------------------------------------------------------
# The polynomial layer runs on the kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", MODULI.values(), ids=MODULI)
class TestPolynomialLayer:
    def test_polynomial_ops_match_the_oracle(self, p):
        field = prime_field(p)
        rng = random.Random(7)
        a = Polynomial.from_coefficients(field, [rng.randrange(p) for _ in range(30)])
        b = Polynomial.from_coefficients(field, [rng.randrange(p) for _ in range(18)])
        product = a * b
        assert list(product.coeffs) == oracle.poly_mul(p, a.coeffs, b.coeffs)
        for dividend, divisor in ((a, b), (product, a)):
            quotient, remainder = dividend.divmod(divisor)
            assert (list(quotient.coeffs), list(remainder.coeffs)) == (
                oracle.poly_divmod(p, dividend.coeffs, divisor.coeffs)
            )
        assert list(a.gcd(b).coeffs) == oracle.poly_gcd(p, a.coeffs, b.coeffs)
        points = [rng.randrange(p) for _ in range(5)]
        assert a.evaluate_many(points) == [a.evaluate(z) for z in points]

    def test_find_roots(self, p):
        roots = sorted({r % p for r in (11, 22, 33, 44, 55)})
        poly = Polynomial.from_roots(prime_field(p), roots)
        assert find_roots(poly) == roots
