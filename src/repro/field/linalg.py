"""Linear algebra over GF(p): Gaussian elimination and nullspace vectors.

The rational-function interpolation step of the characteristic-polynomial
protocol (Theorem 2.3) reduces to finding a nonzero vector in the nullspace
of a small linear system over GF(p); the paper notes this costs ``O(d^3)``
via Gaussian elimination, which is exactly what we implement.

Every entry point runs on the field kernel (:mod:`repro.field.kernels`),
which eliminates whole columns per pivot with vectorized modular arithmetic.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ParameterError
from repro.field.gfp import PrimeField
from repro.field.kernels import kernel_for


def gaussian_elimination(
    field: PrimeField, matrix: Sequence[Sequence[int]]
) -> tuple[list[list[int]], list[int]]:
    """Reduce ``matrix`` to reduced row echelon form over ``field``.

    Returns
    -------
    (rref, pivot_columns):
        The reduced matrix (as a new list of lists of canonical residues) and
        the list of pivot column indices, one per nonzero row.
    """
    return kernel_for(field.modulus).gaussian_elimination(field.modulus, matrix)


def solve_nullspace_vector(
    field: PrimeField, matrix: Sequence[Sequence[int]]
) -> list[int] | None:
    """Return a nonzero vector ``v`` with ``matrix @ v = 0`` over GF(p).

    Returns ``None`` when the nullspace is trivial (matrix has full column
    rank).  When several free variables exist the *last* free column is set
    to one and the rest to zero, which for the rational interpolation system
    corresponds to fixing the highest-degree denominator coefficient -- the
    conventional normalisation.
    """
    if not matrix:
        return None
    num_cols = len(matrix[0])
    rref, pivot_columns = gaussian_elimination(field, matrix)
    free_columns = [col for col in range(num_cols) if col not in pivot_columns]
    if not free_columns:
        return None
    chosen_free = free_columns[-1]
    solution = [0] * num_cols
    solution[chosen_free] = 1
    # Back-substitute: each pivot row reads  x_pivot + sum(coeff * x_free) = 0.
    for row, pivot_col in zip(rref, pivot_columns):
        value = 0
        for col in free_columns:
            if row[col]:
                value = field.add(value, field.mul(row[col], solution[col]))
        solution[pivot_col] = field.neg(value)
    return solution


def solve_linear_system(
    field: PrimeField,
    matrix: Sequence[Sequence[int]],
    rhs: Sequence[int],
) -> list[int] | None:
    """Solve ``matrix @ x = rhs`` over GF(p); return ``None`` if inconsistent.

    When the system is under-determined an arbitrary particular solution is
    returned (free variables set to zero).
    """
    if len(matrix) != len(rhs):
        raise ParameterError("matrix and right-hand side sizes disagree")
    return kernel_for(field.modulus).solve_linear_system(field.modulus, matrix, rhs)


def rational_interpolation_system(
    field: PrimeField,
    points: Sequence[int],
    numer_evals: Sequence[int],
    denom_evals: Sequence[int],
    deg_num: int,
    deg_den: int,
) -> tuple[list[list[int]], list[int]]:
    """Assemble the Vandermonde-style system of the CPI interpolation step.

    Row ``i`` encodes ``P(z_i) - f_i Q(z_i) = 0`` for the *monic* numerator
    ``P`` (degree ``deg_num``) and denominator ``Q`` (degree ``deg_den``),
    where ``f_i = numer_evals[i] / denom_evals[i]`` is the evaluation ratio
    ``chi_A(z_i) / chi_B(z_i)``; the right-hand side carries the two forced
    leading terms.  Ratios are produced with one batched inversion
    (Montgomery's trick) and the powers with a batched Vandermonde build.
    """
    return kernel_for(field.modulus).assemble_rational_system(
        field.modulus, points, numer_evals, denom_evals, deg_num, deg_den
    )
