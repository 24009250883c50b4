"""Field-kernel registry, selection, and cross-kernel exactness tests.

The contract under test: every registered :class:`~repro.field.kernels.
FieldKernel` computes *bit-identical* values for the batched primitives
(evaluation, products, division, elimination, system assembly), and
identical root sets for the factorisation entry point, no matter how
different the internal strategies are.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    AUTO_BACKEND,
    _resolve_field_kernel_cached,
    available_field_kernels,
    default_field_kernel,
    field_kernel_names,
    resolve_field_kernel,
    set_default_field_kernel,
)
from repro.errors import ParameterError
from repro.field import Polynomial, find_roots, prime_field
from repro.field.kernels import (
    _GCD_VECTOR_CUTOFF,
    NumpyFieldKernel,
    PythonFieldKernel,
    _poly_gcd_scalar,
    _poly_mul_scalar,
    kernel_for,
    use_kernel,
)
from repro.field.linalg import (
    gaussian_elimination,
    rational_interpolation_system,
    solve_linear_system,
)
from repro.field.roots import _find_roots_reference

needs_numpy = pytest.mark.skipif(
    not NumpyFieldKernel.available(), reason="NumPy not installed"
)

PRIMES = [3, 5, 17, 257, 65537, 1048583, (1 << 29) + 11]
BIG_PRIME = (1 << 61) - 1  # Mersenne prime above the NumPy kernel's range

python_kernel = PythonFieldKernel()


def both_kernels():
    kernels = [python_kernel]
    if NumpyFieldKernel.available():
        kernels.append(NumpyFieldKernel())
    return kernels


def vectorized_kernels():
    return both_kernels()[1:]


# ---------------------------------------------------------------------------
# Registry and selection
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_python_kernel_always_registered_and_available(self):
        assert "python" in field_kernel_names()
        assert "python" in available_field_kernels()

    def test_both_kernels_registered(self):
        assert field_kernel_names() == ["numpy", "python"]

    def test_unknown_name_raises(self):
        with pytest.raises(ParameterError):
            resolve_field_kernel("no-such-kernel", 17)

    def test_auto_prefers_vectorized_when_supported(self):
        cls = resolve_field_kernel(AUTO_BACKEND, 1048583)
        if NumpyFieldKernel.available():
            assert cls is NumpyFieldKernel
        else:
            assert cls is PythonFieldKernel

    def test_large_modulus_falls_back_to_reference(self):
        # 2**61 - 1 squared overflows int64, so only the reference kernel
        # qualifies -- even when numpy is requested explicitly.
        assert resolve_field_kernel(AUTO_BACKEND, BIG_PRIME) is PythonFieldKernel
        assert resolve_field_kernel("numpy", BIG_PRIME) is PythonFieldKernel

    def test_explicit_python_request_is_honoured(self):
        assert resolve_field_kernel("python", 1048583) is PythonFieldKernel

    def test_process_default_and_context_override(self):
        assert default_field_kernel() == AUTO_BACKEND
        try:
            set_default_field_kernel("python")
            assert kernel_for(1048583).name == "python"
            with use_kernel(AUTO_BACKEND):
                expected = "numpy" if NumpyFieldKernel.available() else "python"
                assert kernel_for(1048583).name == expected
            assert kernel_for(1048583).name == "python"
        finally:
            set_default_field_kernel(None)

    def test_use_kernel_none_is_inherit(self):
        with use_kernel(None):
            assert kernel_for(BIG_PRIME).name == "python"

    def test_set_default_validates(self):
        with pytest.raises(ParameterError):
            set_default_field_kernel("bogus")


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
        for kernel in both_kernels():
            assert kernel.evaluate_from_roots_many(p, roots, points) == expected

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_poly_eval_many_matches_scalar(self, data):
        p, coeffs = data.draw(prime_and_elements((1, 12)))
        points = data.draw(st.lists(st.integers(0, p - 1), max_size=8))
        field = prime_field(p)
        poly = Polynomial.from_coefficients(field, coeffs)
        expected = [poly.evaluate(z) for z in points]
        for kernel in both_kernels():
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
        for kernel in both_kernels():
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
        for kernel in both_kernels():
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
        expected = _find_roots_reference(poly, random.Random(seed))
        assert set(roots) <= set(expected)
        for kernel in both_kernels():
            produced = kernel.find_distinct_roots(
                p, poly.coeffs, random.Random(seed + 1)
            )
            assert produced == expected

    def test_inv_many_matches_scalar_and_rejects_zero(self):
        p = 1048583
        field = prime_field(p)
        values = [random.Random(0).randrange(1, p) for _ in range(50)]
        for kernel in both_kernels():
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
            for kernel in both_kernels()
        ]
        assert all(result == results[0] for result in results)


# ---------------------------------------------------------------------------
# Polynomial layer integration (ops route through the active kernel)
# ---------------------------------------------------------------------------


class TestPolynomialIntegration:
    @needs_numpy
    def test_polynomial_ops_identical_under_both_kernels(self):
        p = 1048583
        field = prime_field(p)
        rng = random.Random(7)
        a = Polynomial.from_coefficients(field, [rng.randrange(p) for _ in range(30)])
        b = Polynomial.from_coefficients(field, [rng.randrange(p) for _ in range(18)])
        results = []
        for name in ("python", "numpy"):
            with use_kernel(name):
                results.append(
                    (a * b, a.divmod(b), a.gcd(b), (a * b).divmod(a))
                )
        assert results[0] == results[1]

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
        for kernel in both_kernels():
            rref, pivots = gaussian_elimination(field, matrix, kernel=kernel)
            assert pivots == [0, 1]
            assert solve_linear_system(field, matrix, [5, 6], kernel=kernel) is not None

    def test_find_roots_kernel_argument(self):
        field = prime_field(1048583)
        poly = Polynomial.from_roots(field, [11, 22, 33, 44, 55])
        for kernel in both_kernels():
            assert find_roots(poly, kernel=kernel) == [11, 22, 33, 44, 55]


# ---------------------------------------------------------------------------
# Registry fallback chain (numpy -> python)
# ---------------------------------------------------------------------------


class TestFallbackChain:
    """``field_kernel="numpy"`` requests degrade gracefully to the reference.

    The resolver is cached, so every availability monkeypatch must clear
    :func:`repro.config._resolve_field_kernel_cached` both after patching
    and after undoing the patch.
    """

    def test_numpy_request_resolves_down_the_chain(self):
        resolved = resolve_field_kernel("numpy", 1048583)
        if NumpyFieldKernel.available():
            assert resolved is NumpyFieldKernel
        else:
            assert resolved is PythonFieldKernel

    def test_numpy_absent_resolves_to_reference(self, monkeypatch):
        monkeypatch.setattr(
            NumpyFieldKernel, "available", classmethod(lambda cls: False)
        )
        _resolve_field_kernel_cached.cache_clear()
        try:
            assert resolve_field_kernel("numpy", 1048583) is PythonFieldKernel
            assert (
                resolve_field_kernel(AUTO_BACKEND, 1048583) is PythonFieldKernel
            )
        finally:
            monkeypatch.undo()
            _resolve_field_kernel_cached.cache_clear()


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
        for kernel in vectorized_kernels():
            assert kernel.poly_gcd(p, a, b) == expected

    @needs_numpy
    def test_gcd_recovers_planted_common_factor(self):
        p = 1048583
        field = prime_field(p)
        a = Polynomial.from_roots(field, range(1, 120))
        b = Polynomial.from_roots(field, range(60, 200))
        expected = Polynomial.from_roots(field, range(60, 120))
        for kernel in vectorized_kernels():
            assert kernel.poly_gcd(p, a.coeffs, b.coeffs) == list(
                expected.coeffs
            )

    @needs_numpy
    def test_root_finding_at_degree_200_exercises_the_chain(self):
        # Degree 200 keeps every top-level gcd above the cutoff, so the
        # Cantor-Zassenhaus driver runs through the vectorized Euclid path.
        p = 1048583
        field = prime_field(p)
        rng = random.Random(11)
        roots = sorted(rng.sample(range(1, p), 200))
        poly = Polynomial.from_roots(field, roots)
        for kernel in vectorized_kernels():
            produced = kernel.find_distinct_roots(
                p, poly.coeffs, random.Random(5)
            )
            assert produced == roots
