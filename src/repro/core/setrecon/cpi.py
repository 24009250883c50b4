"""Characteristic-polynomial set reconciliation (Theorem 2.3).

Minsky, Trachtenberg and Zippel's protocol: Alice evaluates the
characteristic polynomial ``chi_A(z) = prod_{x in S_A} (z - x)`` of her set
at ``d + 1`` shared points of a prime field and sends the evaluations plus
``|S_A|``.  Bob evaluates his own characteristic polynomial at the same
points, forms the ratio ``chi_A / chi_B`` and interpolates it as a rational
function whose numerator/denominator degrees are fixed by the size
difference.  The roots of the reduced numerator are ``S_A \\ S_B`` and the
roots of the reduced denominator are ``S_B \\ S_A``.

Unlike the IBLT protocol, this succeeds with certainty whenever the true
difference is at most the bound ``d`` -- which is why the multi-round
protocol of Theorem 3.9 uses it for the child sets with very small
differences.  The cost is cubic-in-``d`` interpolation (Gaussian elimination)
plus ``O(n d)`` evaluation time, matching the simpler of the two evaluation
strategies discussed under Theorem 2.3.

Every field-heavy step (batch evaluation, system assembly, elimination,
gcd, division, root finding) runs on the one field kernel
(:mod:`repro.field.kernels`): ``int64`` arrays when the prime is below
``2**31``, arrays of Python ints above it, the same code and the same
messages either way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Set

from repro.comm.sizing import bits_for_field_elements, bits_for_value
from repro.core.setrecon.difference import apply_difference
from repro.errors import ParameterError
from repro.field import PrimeField, Polynomial, find_roots
from repro.field.gfp import prime_field
from repro.field.kernels import kernel_for
from repro.field.linalg import rational_interpolation_system, solve_linear_system
from repro.field.prime import prime_at_least
from repro.hashing import derive_seed


@dataclass(frozen=True)
class CPIMessage:
    """Alice's single message in the characteristic-polynomial protocol.

    Attributes
    ----------
    set_size:
        ``|S_A|``.
    evaluations:
        ``chi_A`` evaluated at the shared points ``z_0, ..., z_{d}``.
    difference_bound:
        The bound ``d`` the evaluations were prepared for.
    prime:
        The field modulus both parties agreed on (derived from the universe
        size, so it does not need to be transmitted).
    """

    set_size: int
    evaluations: tuple[int, ...]
    difference_bound: int
    prime: int

    @property
    def size_bits(self) -> int:
        """Transmitted size: the evaluations plus the set size counter."""
        return bits_for_field_elements(len(self.evaluations), self.prime) + bits_for_value(
            max(1, self.set_size)
        )


@lru_cache(maxsize=4096)
def field_for_universe(universe_size: int, difference_bound: int) -> PrimeField:
    """The prime field shared by both parties.

    The modulus must exceed every universe element and every evaluation
    point; evaluation points are placed just above the universe so they can
    never coincide with set elements (keeping ``chi_B`` nonzero there).
    Memoized: the multiround protocol derives the same field for every one
    of its per-child CPI exchanges, and re-running the probable-prime search
    each time dominated small decodes.
    """
    if universe_size <= 0:
        raise ParameterError("universe_size must be positive")
    modulus = prime_at_least(universe_size + difference_bound + 2)
    return prime_field(modulus)


def evaluation_points(universe_size: int, count: int) -> list[int]:
    """The shared evaluation points ``z_i = universe_size + i``."""
    return [universe_size + index for index in range(count)]


def _evaluations(field: PrimeField, elements, points: list[int]) -> list[int]:
    """``chi(z)`` of ``elements`` at every point.  An element the field's
    arrays cannot hold (``2**63`` or more below a 31-bit prime) is a
    :class:`ParameterError`, not the arrays' ``OverflowError``."""
    try:
        return Polynomial.evaluate_from_roots_many(field, elements, points)
    except OverflowError:
        raise ParameterError("cpi set elements must be below universe_size") from None


def cpi_encode(
    elements: Set[int], difference_bound: int, universe_size: int
) -> CPIMessage:
    """Alice's side: evaluate her characteristic polynomial at ``d + 1`` points.

    All ``d + 1`` evaluations are produced by one batched pass over the set
    (:meth:`~repro.field.poly.Polynomial.evaluate_from_roots_many`).
    """
    if difference_bound < 0:
        raise ParameterError("difference_bound must be non-negative")
    field = field_for_universe(universe_size, difference_bound)
    points = evaluation_points(universe_size, difference_bound + 1)
    evaluations = tuple(_evaluations(field, elements, points))
    return CPIMessage(len(elements), evaluations, difference_bound, field.modulus)


def cpi_decode(
    message: CPIMessage,
    bob: Set[int],
    universe_size: int,
    seed: int = 0,
) -> tuple[bool, set[int] | None]:
    """Bob's side: interpolate the rational function and recover Alice's set.

    Returns ``(success, recovered_set)``.  Failure means the true difference
    exceeded the bound (or, pathologically, the linear system degenerated);
    the caller can retry with a larger bound.
    """
    bound = message.difference_bound
    bob_list = list(bob)
    size_delta = message.set_size - len(bob_list)

    # Short-circuits that need no field arithmetic at all come first: the
    # multiround protocol probes many children whose size difference already
    # exceeds the per-child bound, and used to pay a primality check plus a
    # full evaluation pass before noticing.
    if abs(size_delta) > bound:
        return False, None

    # Choose the number of interpolation samples m_bar >= |delta| with the
    # same parity as the size difference, capped by what Alice sent.
    m_bar = bound if (bound - size_delta) % 2 == 0 else bound + 1
    if m_bar < abs(size_delta):
        m_bar = abs(size_delta)
    if m_bar > bound + 1:
        return False, None
    deg_num = (m_bar + size_delta) // 2
    deg_den = (m_bar - size_delta) // 2

    field = prime_field(message.prime)
    kernel = kernel_for(field.modulus)
    points = evaluation_points(universe_size, bound + 1)

    bob_evaluations = _evaluations(field, bob_list, points)

    if m_bar == 0:
        numerator = Polynomial.one(field)
        denominator = Polynomial.one(field)
    else:
        # Linear system for the non-leading coefficients of the monic
        # numerator P (degree deg_num) and denominator Q (degree deg_den):
        #   P(z_i) - f_i * Q(z_i) = 0   with  f_i = chi_A(z_i) / chi_B(z_i).
        matrix, rhs = rational_interpolation_system(
            field,
            points[:m_bar],
            message.evaluations[:m_bar],
            bob_evaluations[:m_bar],
            deg_num,
            deg_den,
        )
        solution = solve_linear_system(field, matrix, rhs)
        if solution is None:
            return False, None
        # Kernel solutions are canonical residues and the forced leading
        # 1 keeps the tuples trimmed, so skip from_coefficients here.
        numerator = Polynomial(field, tuple(solution[:deg_num]) + (1,))
        denominator = Polynomial(field, tuple(solution[deg_num:]) + (1,))

    p = field.modulus
    common = kernel.poly_gcd(p, numerator.coeffs, denominator.coeffs)
    if len(common) > 1:
        numerator = Polynomial(
            field, tuple(kernel.poly_divmod(p, numerator.coeffs, common)[0])
        ).monic()
        denominator = Polynomial(
            field, tuple(kernel.poly_divmod(p, denominator.coeffs, common)[0])
        ).monic()

    # lint: allow[D301] seeded from the protocol seed; decode-side search
    rng = random.Random(derive_seed(seed, "cpi-roots"))
    alice_only = find_roots(numerator, rng) if numerator.degree > 0 else []
    # The denominator's roots must be elements Bob holds, so instead of a
    # second Cantor-Zassenhaus factorisation we batch-evaluate it over
    # Bob's set and read the zeros off.  If any root lies outside Bob's
    # set, fewer than ``degree`` zeros show up and decoding fails exactly
    # as it would have after a full factorisation.
    if denominator.degree > 0:
        denom_values = denominator.evaluate_many(bob_list)
        bob_only = [
            element
            for element, value in zip(bob_list, denom_values)
            if value == 0
        ]
    else:
        bob_only = []

    # The recovered factors must split completely into distinct roots that
    # are genuine universe elements, and the denominator roots must be
    # Bob's (guaranteed for bob_only, which was read off Bob's set).
    if len(alice_only) != numerator.degree or len(bob_only) != denominator.degree:
        return False, None
    if any(root >= universe_size for root in alice_only + bob_only):
        return False, None
    bob_set = bob if isinstance(bob, (set, frozenset)) else set(bob_list)
    if bob_set & set(alice_only):
        return False, None

    recovered = apply_difference(bob_set, alice_only, bob_only)
    if len(recovered) != message.set_size:
        return False, None
    # Spare-point verification: check the reconstruction against the last
    # evaluation Alice sent (it is unused when m_bar < d + 1, and a harmless
    # re-check otherwise).
    check_point = points[-1]
    check_value = Polynomial.evaluate_from_roots_many(field, recovered, [check_point])[0]
    if check_value != message.evaluations[-1]:
        return False, None
    return True, recovered

