"""The reference GF(p) field kernel: the CPI arithmetic over plain Python ints.

A test oracle, never used by the library.  :class:`PythonFieldKernel` has the
method set of :class:`repro.field.kernels.NumpyFieldKernel` and does
everything one coefficient, one matrix entry and one root at a time:
schoolbook products, row-by-row Gaussian elimination, and textbook
Cantor-Zassenhaus (``gcd(f, x^p - x)``, then one random split per factor).
Tests run the same inputs through both and compare value for value; root
finding returns the sorted set of roots, which is intrinsic to the
polynomial, so the two may take different random splits.

It handles any modulus.  The scalar helpers it shares with the library are
the ones the NumPy kernel itself drops to below its vector cutoffs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ParameterError
from repro.field.kernels import (
    _minus_one,
    _poly_divmod_scalar,
    _poly_gcd_scalar,
    _poly_mod_scalar,
    _poly_monic_scalar,
    _poly_mul_scalar,
    _trim,
)


def _poly_eval_scalar(p: int, coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _poly_pow_mod_scalar(
    p: int, base: Sequence[int], exponent: int, modulus: Sequence[int]
) -> list[int]:
    """``base ** exponent mod modulus`` by square-and-multiply (trimmed lists)."""
    result = [1]
    base = _poly_mod_scalar(p, base, modulus)
    while exponent:
        if exponent & 1:
            result = _poly_mod_scalar(p, _poly_mul_scalar(p, result, base), modulus)
        base = _poly_mod_scalar(p, _poly_mul_scalar(p, base, base), modulus)
        exponent >>= 1
    return result


def _linear_factor_product(p: int, f: list[int]) -> list[int]:
    """The product of the distinct linear factors of monic ``f``:
    ``gcd(f, x^p - x)``."""
    x_to_p_minus_x = _poly_pow_mod_scalar(p, [0, 1], p, f)
    x_to_p_minus_x += [0] * (2 - len(x_to_p_minus_x))
    x_to_p_minus_x[1] = (x_to_p_minus_x[1] - 1) % p
    return _poly_gcd_scalar(p, f, _trim(x_to_p_minus_x))


def _split_roots(p: int, poly: list[int], rng, roots: list[int]) -> None:
    """Split a monic product of distinct linear factors into its roots.

    The classic split ``gcd(g, (x + a)^((p-1)/2) - 1)`` on an explicit
    work-stack (a split can peel one linear factor per step, so recursion
    would overflow at large degrees), the split-off factor first.
    """
    exponent = (p - 1) // 2
    stack = [poly]
    while stack:
        current = stack.pop()
        degree = len(current) - 1
        if degree <= 0:
            continue
        if degree == 1:
            # current = x + c (monic), root = -c.
            roots.append(-current[0] % p)
            continue
        if p == 2:
            roots.extend(x for x in (0, 1) if _poly_eval_scalar(p, current, x) == 0)
            continue
        while True:
            shift = rng.randrange(p)
            probe = _minus_one(p, _poly_pow_mod_scalar(p, [shift, 1], exponent, current))
            factor = _poly_gcd_scalar(p, current, probe)
            if 0 < len(factor) - 1 < degree:
                break
        complementary = _poly_divmod_scalar(p, current, factor)[0]
        stack.append(_poly_monic_scalar(p, complementary))
        stack.append(factor)


class PythonFieldKernel:
    """Reference kernel over plain Python integers (any modulus)."""

    name = "python"

    def evaluate_from_roots_many(
        self, modulus: int, roots: Iterable[int], points: Sequence[int]
    ) -> list[int]:
        p = modulus
        root_list = [r % p for r in roots]
        out = []
        for point in points:
            z = point % p
            acc = 1
            for root in root_list:
                acc = acc * (z - root) % p
            out.append(acc)
        return out

    def poly_eval_many(self, modulus, coeffs, points):
        return [_poly_eval_scalar(modulus, coeffs, z % modulus) for z in points]

    def poly_mul(self, modulus, a, b):
        return _poly_mul_scalar(modulus, a, b)

    def poly_divmod(self, modulus, a, b):
        return _poly_divmod_scalar(modulus, a, b)

    def poly_gcd(self, modulus, a, b):
        return _poly_gcd_scalar(modulus, a, b)

    def gaussian_elimination(self, modulus, matrix):
        p = modulus
        rows = [[entry % p for entry in row] for row in matrix]
        if not rows:
            return [], []
        num_cols = len(rows[0])
        if any(len(row) != num_cols for row in rows):
            raise ParameterError("matrix rows must all have the same length")
        pivot_columns: list[int] = []
        pivot_row = 0
        for col in range(num_cols):
            if pivot_row >= len(rows):
                break
            chosen = None
            for candidate in range(pivot_row, len(rows)):
                if rows[candidate][col] != 0:
                    chosen = candidate
                    break
            if chosen is None:
                continue
            rows[pivot_row], rows[chosen] = rows[chosen], rows[pivot_row]
            inv = pow(rows[pivot_row][col], -1, p)
            rows[pivot_row] = [inv * entry % p for entry in rows[pivot_row]]
            for other in range(len(rows)):
                if other == pivot_row or rows[other][col] == 0:
                    continue
                factor = rows[other][col]
                pivot_entries = rows[pivot_row]
                rows[other] = [
                    (entry - factor * pivot_entry) % p
                    for entry, pivot_entry in zip(rows[other], pivot_entries)
                ]
            pivot_columns.append(col)
            pivot_row += 1
        return rows, pivot_columns

    def solve_linear_system(self, modulus, matrix, rhs):
        """The reduced echelon form's particular solution (free variables
        zero); ``None`` if the augmented column is a pivot."""
        if not matrix:
            return []
        num_cols = len(matrix[0])
        augmented = [list(row) + [value] for row, value in zip(matrix, rhs)]
        rref, pivot_columns = self.gaussian_elimination(modulus, augmented)
        if pivot_columns and pivot_columns[-1] == num_cols:
            return None
        solution = [0] * num_cols
        for row, pivot_col in zip(rref, pivot_columns):
            solution[pivot_col] = row[num_cols]
        return solution

    def assemble_rational_system(
        self, modulus, points, numer_evals, denom_evals, deg_num, deg_den
    ):
        p = modulus
        ratios = [
            n * inv_d % p
            for n, inv_d in zip(numer_evals, self.inv_many(p, denom_evals))
        ]
        matrix: list[list[int]] = []
        rhs: list[int] = []
        for z, f in zip(points, ratios):
            z %= p
            row = []
            power = 1
            for _ in range(deg_num):
                row.append(power)
                power = power * z % p
            power = 1
            for _ in range(deg_den):
                row.append((-(f * power)) % p)
                power = power * z % p
            matrix.append(row)
            rhs.append((f * pow(z, deg_den, p) - pow(z, deg_num, p)) % p)
        return matrix, rhs

    def inv_many(self, modulus, values):
        out = []
        for value in values:
            if value % modulus == 0:
                raise ZeroDivisionError("cannot invert zero in a prime field")
            out.append(pow(value, -1, modulus))
        return out

    def find_distinct_roots(self, modulus, coeffs, rng):
        """Cantor-Zassenhaus: ``gcd(f, x^p - x)``, then random splits."""
        p = modulus
        trimmed = _trim([c % p for c in coeffs])
        if not trimmed:
            raise ParameterError("cannot find roots of the zero polynomial")
        if len(trimmed) == 1:
            return []
        roots: list[int] = []
        _split_roots(p, _linear_factor_product(p, _poly_monic_scalar(p, trimmed)), rng, roots)
        roots.sort()
        return roots
