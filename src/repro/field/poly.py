"""Dense univariate polynomials over GF(p).

These polynomials back the characteristic-polynomial reconciliation protocol
(Theorem 2.3): Alice evaluates the characteristic polynomial of her set at
shared points, Bob interpolates the rational function chi_A / chi_B and
factors numerator and denominator to recover the symmetric difference.

Coefficients are stored low-degree first (``coeffs[i]`` multiplies ``x**i``)
and are always canonical residues of the owning :class:`PrimeField`.  The
zero polynomial is represented by an empty coefficient list and has degree
``-1`` by convention.

Products, long divisions, gcds and batched evaluations route through the
field kernel (:func:`repro.field.kernels.kernel_for`), so large-degree
arithmetic is vectorized at every modulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ParameterError
from repro.field.gfp import PrimeField
from repro.field.kernels import kernel_for


@dataclass(frozen=True)
class Polynomial:
    """An immutable polynomial over a prime field."""

    field: PrimeField
    coeffs: tuple[int, ...]

    # -- constructors -------------------------------------------------------------

    @classmethod
    def from_coefficients(
        cls, field: PrimeField, coefficients: Sequence[int]
    ) -> "Polynomial":
        """Build a polynomial from a low-degree-first coefficient sequence."""
        reduced = [field.element(c) for c in coefficients]
        while reduced and reduced[-1] == 0:
            reduced.pop()
        return cls(field, tuple(reduced))

    @classmethod
    def zero(cls, field: PrimeField) -> "Polynomial":
        """The zero polynomial."""
        return cls(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> "Polynomial":
        """The constant polynomial 1."""
        return cls(field, (1,))

    @classmethod
    def x(cls, field: PrimeField) -> "Polynomial":
        """The monomial ``x``."""
        return cls(field, (0, 1))

    @classmethod
    def from_roots(cls, field: PrimeField, roots: Iterable[int]) -> "Polynomial":
        """The monic polynomial whose roots are exactly ``roots``.

        This is the characteristic polynomial ``prod (x - r)`` of a set, the
        central object of Theorem 2.3.  Built by iterated multiplication,
        which is O(n^2) in the set size; adequate for the set sizes used in
        the protocols (the evaluation path never materialises it for large n,
        see :meth:`evaluate_from_roots`).
        """
        result = cls.one(field)
        for root in roots:
            result = result * cls.from_coefficients(field, [field.neg(root), 1])
        return result

    @staticmethod
    def evaluate_from_roots(field: PrimeField, roots: Iterable[int], point: int) -> int:
        """Evaluate ``prod (point - r)`` without materialising coefficients.

        O(n) per evaluation point, matching the "evaluate the polynomial in
        O(n) time once for each of the points" option in the paper.
        """
        acc = 1
        for root in roots:
            acc = field.mul(acc, field.sub(point, root))
        return acc

    @staticmethod
    def evaluate_from_roots_many(
        field: PrimeField, roots: Iterable[int], points: Sequence[int]
    ) -> list[int]:
        """Evaluate ``prod (z - r)`` at every ``z`` in ``points`` in one batch.

        This is the CPI hot path: both parties evaluate their characteristic
        polynomial at all ``d + 1`` shared points, which the scalar method
        turns into ``O(n d)`` interpreted field operations.  The batch form
        hands the whole set to the field kernel (one difference
        matrix plus a balanced product tree), returning the same values.
        """
        return kernel_for(field.modulus).evaluate_from_roots_many(
            field.modulus, roots, points
        )

    def evaluate_many(self, points: Sequence[int]) -> list[int]:
        """Batched Horner evaluation of this polynomial at many points."""
        return kernel_for(self.field.modulus).poly_eval_many(
            self.field.modulus, self.coeffs, points
        )

    # -- basic queries -------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the polynomial; ``-1`` for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        """True if this is the zero polynomial."""
        return not self.coeffs

    def is_monic(self) -> bool:
        """True if the leading coefficient is 1."""
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading_coefficient(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __len__(self) -> int:
        return len(self.coeffs)

    # -- arithmetic ----------------------------------------------------------------

    def _check_same_field(self, other: "Polynomial") -> None:
        if self.field.modulus != other.field.modulus:
            raise ParameterError("polynomials belong to different fields")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_field(other)
        field = self.field
        longer, shorter = (
            (self.coeffs, other.coeffs)
            if len(self.coeffs) >= len(other.coeffs)
            else (other.coeffs, self.coeffs)
        )
        summed = list(longer)
        for index, coefficient in enumerate(shorter):
            summed[index] = field.add(summed[index], coefficient)
        return Polynomial.from_coefficients(field, summed)

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_coefficients(
            self.field, [self.field.neg(c) for c in self.coeffs]
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_field(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.field)
        kernel = kernel_for(self.field.modulus)
        product = kernel.poly_mul(self.field.modulus, self.coeffs, other.coeffs)
        # Kernel outputs are canonical residues, so skip the re-reduction of
        # from_coefficients on this hot path.
        return Polynomial(self.field, tuple(product))

    def scale(self, scalar: int) -> "Polynomial":
        """Multiply every coefficient by a field scalar."""
        scalar = self.field.element(scalar)
        return Polynomial.from_coefficients(
            self.field, [self.field.mul(scalar, c) for c in self.coeffs]
        )

    def divmod(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Polynomial long division; returns ``(quotient, remainder)``."""
        self._check_same_field(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        kernel = kernel_for(self.field.modulus)
        quotient, remainder = kernel.poly_divmod(
            self.field.modulus, self.coeffs, divisor.coeffs
        )
        return (
            Polynomial(self.field, tuple(quotient)),
            Polynomial(self.field, tuple(remainder)),
        )

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]

    def monic(self) -> "Polynomial":
        """Return the monic scalar multiple of this polynomial."""
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading_coefficient()))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor via the Euclidean algorithm."""
        self._check_same_field(other)
        kernel = kernel_for(self.field.modulus)
        divisor = kernel.poly_gcd(self.field.modulus, self.coeffs, other.coeffs)
        return Polynomial(self.field, tuple(divisor))

    def pow_mod(self, exponent: int, modulus_poly: "Polynomial") -> "Polynomial":
        """Compute ``self**exponent mod modulus_poly`` by square-and-multiply."""
        if exponent < 0:
            raise ParameterError("pow_mod requires a non-negative exponent")
        result = Polynomial.one(self.field)
        base = self % modulus_poly
        while exponent:
            if exponent & 1:
                result = (result * base) % modulus_poly
            base = (base * base) % modulus_poly
            exponent >>= 1
        return result

    # -- evaluation & interpolation --------------------------------------------------

    def evaluate(self, point: int) -> int:
        """Evaluate at ``point`` using Horner's rule."""
        field = self.field
        acc = 0
        for coefficient in reversed(self.coeffs):
            acc = field.add(field.mul(acc, point), coefficient)
        return acc

    def derivative(self) -> "Polynomial":
        """Formal derivative."""
        field = self.field
        derived = [
            field.mul(index, coefficient)
            for index, coefficient in enumerate(self.coeffs)
        ][1:]
        return Polynomial.from_coefficients(field, derived)

    @classmethod
    def interpolate(
        cls, field: PrimeField, points: Sequence[tuple[int, int]]
    ) -> "Polynomial":
        """Lagrange interpolation through ``(x, y)`` pairs with distinct x."""
        xs = [field.element(x) for x, _ in points]
        if len(set(xs)) != len(xs):
            raise ParameterError("interpolation points must have distinct x values")
        result = cls.zero(field)
        for i, (x_i, y_i) in enumerate(points):
            numerator = cls.one(field)
            denominator = 1
            for j, (x_j, _) in enumerate(points):
                if i == j:
                    continue
                numerator = numerator * cls.from_coefficients(
                    field, [field.neg(x_j), 1]
                )
                denominator = field.mul(denominator, field.sub(x_i, x_j))
            term = numerator.scale(field.mul(field.element(y_i), field.inv(denominator)))
            result = result + term
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_zero():
            return "Polynomial(0)"
        terms = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Polynomial(" + " + ".join(terms) + f" mod {self.field.modulus})"
