"""Root finding for polynomials over GF(p).

The characteristic-polynomial protocol recovers the set difference as the
roots of the numerator / denominator of the interpolated rational function.
The field kernel finds roots with the Cantor-Zassenhaus strategy:

1. restrict to the product of distinct linear factors by taking
   ``gcd(f, x^p - x)``;
2. split that product with random shifts ``gcd(g, (x + a)^((p-1)/2) - 1)``.

It batches each level's modular exponentiations and finishes quadratics in
closed form (:meth:`repro.field.kernels.NumpyFieldKernel.find_distinct_roots`).
"""

from __future__ import annotations

import random

from repro.errors import ParameterError
from repro.field.kernels import kernel_for
from repro.field.poly import Polynomial


def find_roots(poly: Polynomial, rng: random.Random | None = None) -> list[int]:
    """Return all roots in GF(p) of ``poly`` (each distinct root once).

    Parameters
    ----------
    poly:
        The polynomial to factor; must be nonzero.
    rng:
        Randomness source for the Cantor-Zassenhaus splits.  Passing a seeded
        ``random.Random`` keeps the whole protocol deterministic; the default
        uses a fixed seed so results are reproducible.
    """
    if poly.is_zero():
        raise ParameterError("cannot find roots of the zero polynomial")
    if rng is None:
        rng = random.Random(0x5EED)
    modulus = poly.field.modulus
    return kernel_for(modulus).find_distinct_roots(modulus, poly.coeffs, rng)


def roots_with_multiplicity(poly: Polynomial, rng: random.Random | None = None) -> dict[int, int]:
    """Return a mapping from root to multiplicity.

    Used by multiset reconciliation (Section 3.4), where repeated elements of
    a multiset appear as repeated roots of the characteristic polynomial.
    """
    result: dict[int, int] = {}
    remaining = poly.monic()
    for root in find_roots(poly, rng):
        count = 0
        linear = Polynomial.from_coefficients(poly.field, [poly.field.neg(root), 1])
        while True:
            quotient, remainder = remaining.divmod(linear)
            if not remainder.is_zero():
                break
            remaining = quotient
            count += 1
        result[root] = count
    return result
