"""Finite-field and polynomial arithmetic substrate.

The characteristic-polynomial set reconciliation protocol of Minsky,
Trachtenberg and Zippel (Theorem 2.3 in the paper) requires exact arithmetic
over a prime field GF(p) with ``p`` larger than the element universe:

* :mod:`repro.field.prime` -- primality testing and prime generation.
* :mod:`repro.field.gfp` -- the :class:`~repro.field.gfp.PrimeField` helper
  wrapping modular arithmetic (add/sub/mul/inverse/power).
* :mod:`repro.field.poly` -- dense univariate polynomials over GF(p)
  (addition, multiplication, division, GCD, evaluation, interpolation).
* :mod:`repro.field.linalg` -- Gaussian elimination and nullspace computation
  over GF(p) (used for rational-function interpolation).
* :mod:`repro.field.roots` -- root finding for polynomials over GF(p) via
  Cantor-Zassenhaus equal-degree splitting (used to extract the reconciled
  set elements from the interpolated characteristic-polynomial ratio).
* :mod:`repro.field.kernels` -- the one batched-arithmetic kernel
  (:class:`~repro.field.kernels.NumpyFieldKernel`) every hot path above
  runs through, on ``int64`` arrays below ``2**31`` and on arrays of Python
  ints at or above it; :func:`~repro.field.kernels.kernel_for` returns it.
"""

from repro.field.prime import is_probable_prime, next_prime
from repro.field.gfp import PrimeField, prime_field
from repro.field.kernels import NumpyFieldKernel, kernel_for
from repro.field.poly import Polynomial
from repro.field.linalg import (
    gaussian_elimination,
    rational_interpolation_system,
    solve_linear_system,
    solve_nullspace_vector,
)
from repro.field.roots import find_roots

__all__ = [
    "is_probable_prime",
    "next_prime",
    "PrimeField",
    "prime_field",
    "NumpyFieldKernel",
    "kernel_for",
    "Polynomial",
    "solve_nullspace_vector",
    "solve_linear_system",
    "gaussian_elimination",
    "rational_interpolation_system",
    "find_roots",
]
