"""The GF(p) field kernel: the batched arithmetic behind the CPI path.

The characteristic-polynomial protocol (Theorem 2.3) and the multiround
protocol that leans on it (Theorem 3.9) spend essentially all of their time
in four inner loops: evaluating characteristic polynomials ``prod (z - r)``
at the shared points, assembling and solving the rational-interpolation
linear system (Gaussian elimination, the paper's ``O(d^3)`` step),
polynomial products/remainders, and Cantor-Zassenhaus root finding.  This
module holds those loops in one stateless, batch-first kernel,
:class:`NumpyFieldKernel`: every method takes whole vectors/matrices of
field elements and runs them as NumPy array operations.

The array dtype follows the modulus.  Below ``2**31`` it is ``int64``: a
product of two canonical residues fits a signed 64-bit word, and the few
sums that could overflow are guarded by :data:`_INT64_SAFE` (16-bit limb
splits, chunked matmuls).  At or above ``2**31`` it is NumPy ``object``
arrays of Python ints, exact at any size, running the same code.  Below
small size cutoffs the kernel drops to scalar helpers over Python lists.
All arithmetic is exact (integer, never floating point).

:func:`kernel_for` returns the kernel for a modulus (any odd prime); it also
takes the ``field_kernel=`` name the public entry points still accept,
checks it (:func:`check_field_kernel`) and drops it.  The reference kernel
the tests compare against value for value lives in
``tests/reference_kernel.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as _np

from repro.errors import ParameterError

_MASK16 = 0xFFFF


# ---------------------------------------------------------------------------
# Scalar helpers (the kernel's small-size paths)
# ---------------------------------------------------------------------------


def _trim(coeffs: list[int]) -> list[int]:
    """Strip trailing zero coefficients in place; return the list."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul_scalar(p: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Schoolbook product of two canonical coefficient sequences mod ``p``."""
    if not a or not b:
        return []
    product = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            product[i + j] = (product[i + j] + ai * bj) % p
    return product


def _poly_divmod_scalar(
    p: int, a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Long division of ``a`` by nonzero ``b``; returns trimmed ``(q, r)``."""
    remainder = list(a)
    quotient = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    deg_b = len(b) - 1
    body = b[:deg_b]
    for shift in range(len(quotient) - 1, -1, -1):
        coeff_index = shift + deg_b
        if coeff_index >= len(remainder):
            continue
        factor = remainder[coeff_index] * inv_lead % p
        if factor == 0:
            continue
        quotient[shift] = factor
        remainder[shift:coeff_index] = [
            (rc - factor * bc) % p
            for rc, bc in zip(remainder[shift:coeff_index], body)
        ]
        remainder[coeff_index] = 0
    return _trim(quotient), _trim(remainder)


def _poly_mod_scalar(p: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Remainder only: skips the quotient bookkeeping of the full division."""
    deg_b = len(b) - 1
    if deg_b < 0:
        raise ZeroDivisionError("polynomial division by zero")
    remainder = list(a)
    if len(remainder) <= deg_b:
        return _trim(remainder)
    inv_lead = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    body = b[: deg_b]
    for idx in range(len(remainder) - 1, deg_b - 1, -1):
        coeff = remainder[idx]
        if coeff == 0:
            continue
        factor = coeff * inv_lead % p
        shift = idx - deg_b
        remainder[shift:idx] = [
            (rc - factor * bc) % p for rc, bc in zip(remainder[shift:idx], body)
        ]
    del remainder[deg_b:]
    return _trim(remainder)


def _poly_monic_scalar(p: int, a: Sequence[int]) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    inv_lead = pow(a[-1], -1, p)
    return [c * inv_lead % p for c in a]


def _poly_gcd_scalar(p: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Monic greatest common divisor via the Euclidean algorithm.

    Self-contained in-place remainder chain: the CPI root finder issues many
    small gcds per decode, so per-step helper calls and list churn matter.
    """
    x, y = _trim(list(a)), _trim(list(b))
    while y:
        deg_y = len(y) - 1
        if len(x) > deg_y:
            inv_lead = 1 if y[-1] == 1 else pow(y[-1], -1, p)
            if deg_y <= 6:
                # Index loop beats slice machinery on tiny divisors.
                for idx in range(len(x) - 1, deg_y - 1, -1):
                    coeff = x[idx]
                    if coeff:
                        factor = coeff * inv_lead % p
                        base = idx - deg_y
                        for j in range(deg_y):
                            x[base + j] = (x[base + j] - factor * y[j]) % p
            else:
                body = y[:deg_y]
                for idx in range(len(x) - 1, deg_y - 1, -1):
                    coeff = x[idx]
                    if coeff:
                        factor = coeff * inv_lead % p
                        base = idx - deg_y
                        x[base:idx] = [
                            (rc - factor * bc) % p
                            for rc, bc in zip(x[base:idx], body)
                        ]
            del x[deg_y:]
            _trim(x)
        x, y = y, x
    return _poly_monic_scalar(p, x)


def _minus_one(p: int, coeffs: list[int]) -> list[int]:
    """``poly - 1`` as a trimmed coefficient list (mod ``p``)."""
    coeffs = _trim(list(coeffs))
    if not coeffs:
        return [p - 1]
    coeffs[0] = (coeffs[0] - 1) % p
    return _trim(coeffs)


def _sqrt_mod(p: int, a: int) -> int | None:
    """A square root of ``a`` modulo an odd prime ``p`` (``None`` if a non-residue).

    Deterministic Tonelli-Shanks: the non-residue witness is found by
    scanning 2, 3, 4, ... so repeated calls agree on which of the two roots
    is returned.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, probe = 0, t
        while probe != 1:
            probe = probe * probe % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        b2 = b * b % p
        m, c, t, r = i, b2, t * b2 % p, r * b % p
    return r


def _small_degree_roots(p: int, coeffs: Sequence[int]) -> list[int]:
    """All distinct GF(p) roots of a polynomial of degree <= 2 (monic or not)."""
    coeffs = _trim(list(coeffs))
    degree = len(coeffs) - 1
    if degree <= 0:
        return []
    if degree == 1:
        # c0 + c1 x = 0  =>  x = -c0 / c1.
        return [(-coeffs[0]) * pow(coeffs[1], -1, p) % p]
    inv_lead = pow(coeffs[2], -1, p)
    b = coeffs[1] * inv_lead % p
    c = coeffs[0] * inv_lead % p
    disc = (b * b - 4 * c) % p
    inv2 = pow(2, -1, p)
    if disc == 0:
        return [(-b) * inv2 % p]
    root = _sqrt_mod(p, disc)
    if root is None:
        return []
    return sorted({(-b + root) * inv2 % p, (-b - root) * inv2 % p})


# ---------------------------------------------------------------------------
# Array helpers
# ---------------------------------------------------------------------------

# Below these operand sizes the vector dispatch overhead exceeds the scalar
# loop cost, so the kernel drops to the (bit-identical) scalar helpers.
_MUL_SCALAR_CUTOFF = 96  # product work: a.degree * b.degree
_DIV_SCALAR_CUTOFF = 32  # divisor length (the vectorized inner-loop width)

#: Moduli at or above this run on ``object`` arrays: the product of two
#: residues no longer fits a signed 64-bit word.
_WIDE_MODULUS = 1 << 31

# Largest intermediate we allow in int64 vector arithmetic (margin below 2**63).
_INT64_SAFE = 1 << 62

# Below this divisor length the Euclidean remainder chain stays on the scalar
# helpers; at or above it each reduction step runs whole-array (the d=1e4 CZ
# regime spends nearly all of its time in these chains).
_GCD_VECTOR_CUTOFF = 48


def _dtype(p):
    """The array dtype of modulus ``p``: ``int64`` below :data:`_WIDE_MODULUS`,
    Python ints (``object``) at or above it."""
    return _np.int64 if p < _WIDE_MODULUS else object


def _exact(p, terms):
    """Whether a sum of ``terms`` products of two residues is exact in the
    dtype of ``p`` (always, on ``object`` arrays)."""
    return p >= _WIDE_MODULUS or terms * p * p < _INT64_SAFE


def _array(p, values):
    """``values`` (canonical residues) as an array of the dtype of ``p``."""
    return _np.asarray(values, dtype=_dtype(p))


def _residues(p, values):
    """Canonical residues of ``values`` as an array of the dtype of ``p``."""
    return _array(p, values if isinstance(values, (list, tuple)) else list(values)) % p


def _trim_arr(arr):
    """Array counterpart of :func:`_trim` (returns a view)."""
    nonzero = _np.nonzero(arr)[0]
    return arr[: int(nonzero[-1]) + 1] if nonzero.size else arr[:0]


def _pmod_vec(p, a, b):
    """Remainder of canonical residue arrays ``a mod b`` (``len(b) >= 2``).

    Same long-division chain as :func:`_poly_mod_scalar`, with each
    reduction step a whole-array multiply-subtract; returns a trimmed
    array.  ``a`` is not modified.
    """
    width = len(b)
    if len(a) < width:
        return _trim_arr(a.copy())
    remainder = a.copy()
    inv_lead = pow(int(b[-1]), -1, p)
    body = b[:-1]
    for idx in range(len(remainder) - 1, width - 2, -1):
        coeff = int(remainder[idx])
        if coeff == 0:
            continue
        factor = coeff * inv_lead % p
        shift = idx - width + 1
        remainder[shift:idx] = (remainder[shift:idx] - factor * body) % p
    return _trim_arr(remainder[: width - 1])


def _poly_gcd_vec(p, a, b):
    """Monic gcd with vectorized remainder steps for large operands.

    Bit-identical to :func:`_poly_gcd_scalar` (exact arithmetic over the
    same Euclidean chain); hands the tail of the chain to the scalar
    helper once both degrees drop below :data:`_GCD_VECTOR_CUTOFF`.
    """
    x = _trim_arr(_residues(p, a))
    y = _trim_arr(_residues(p, b))
    while len(y) >= _GCD_VECTOR_CUTOFF:
        if len(x) >= len(y):
            x = _pmod_vec(p, x, y)
        x, y = y, x
    return _poly_gcd_scalar(p, [int(v) for v in x], [int(v) for v in y])


def _pmul_np(p, a, b):
    """Exact product of canonical coefficient arrays mod ``p``.

    Fast path: when every convolution term sum is exact (``object`` arrays,
    or ``n * p**2 < 2**62`` on ``int64``), one direct convolution suffices
    -- this covers every realistic ``int64`` universe (p up to ~2**28 at
    CPI degrees).  Otherwise coefficients are split into 16-bit limbs and
    the three partial convolutions are recombined modulo ``p``.
    """
    if _exact(p, len(a) + len(b) - 1):
        return _np.convolve(a, b) % p
    w16 = (1 << 16) % p
    w32 = w16 * w16 % p
    ah, al = a >> 16, a & _MASK16
    if b is a:
        hh = _np.convolve(ah, ah)
        cross = _np.convolve(ah, al)
        cross = cross + cross
        ll = _np.convolve(al, al)
    else:
        bh, bl = b >> 16, b & _MASK16
        hh = _np.convolve(ah, bh)
        cross = _np.convolve(ah, bl) + _np.convolve(al, bh)
        ll = _np.convolve(al, bl)
    r = ((hh % p) * w32 + (cross % p) * w16) % p
    return (r + ll % p) % p


class _Modulus:
    """Precomputed reduction data for a fixed monic modulus polynomial.

    Reduction of a product (degree <= 2m-2) is one small integer
    matmul: the rows give ``x^(m+j) mod q``.  When the dot products
    could overflow ``int64`` they are pre-split into 16-bit limbs.
    """

    __slots__ = ("p", "q", "m", "x_m", "rows", "rows_hi", "rows_lo", "w16", "fast")

    def __init__(self, p, q):
        self.p = p
        self.q = q
        self.m = len(q) - 1
        self.w16 = (1 << 16) % p
        # Strict int64 bound for every fused op: convolution term sums
        # (<= m terms of p^2), the reduction matmul plus carry-in, and
        # the linear multiply's three-way sum.
        self.fast = _exact(p, self.m + 1)
        self.x_m = (p - q[: self.m] % p) % p  # x^m mod q
        rows = _np.zeros((max(0, self.m - 1), self.m), dtype=q.dtype)
        cur = self.x_m
        for j in range(self.m - 1):
            rows[j] = cur
            if j == self.m - 2:
                break
            top = int(cur[self.m - 1])
            nxt = _np.empty(self.m, dtype=q.dtype)
            nxt[0] = 0
            nxt[1:] = cur[: self.m - 1]
            if top:
                nxt = (nxt + top * self.x_m) % p
            cur = nxt
        self.rows = rows
        if not self.fast:
            self.rows_hi = rows >> 16
            self.rows_lo = rows & _MASK16

    def reduce(self, u):
        """``u mod q`` for ``len(u) <= 2m - 1`` (canonical residues)."""
        m = self.m
        if len(u) <= m:
            out = _np.zeros(m, dtype=u.dtype)
            out[: len(u)] = u
            return out
        lo, hi = u[:m], u[m:]
        k = len(hi)
        if self.fast:
            return (lo + hi @ self.rows[:k]) % self.p
        # Limb path: each dot product sums terms below p * 2**16, so cap
        # the summed length and fold chunk-wise to stay within int64.
        safe = max(1, int(_INT64_SAFE // (self.p << 16)))
        acc = lo % self.p
        for start in range(0, k, safe):
            stop = min(start + safe, k)
            part = hi[start:stop]
            acc = (
                acc
                + ((part @ self.rows_hi[start:stop]) % self.p) * self.w16
                + (part @ self.rows_lo[start:stop]) % self.p
            ) % self.p
        return acc

    def mulmod(self, a, b):
        return self.reduce(_pmul_np(self.p, a, b))

    def mul_linear(self, cur, shift):
        """``(x + shift) * cur mod q`` without a full convolution."""
        p, m = self.p, self.m
        top = int(cur[m - 1])
        if self.fast:
            # shift*cur + top*x_m is at most 2p^2 + p, well within int64.
            res = shift * cur
            res[1:] += cur[: m - 1]
            if top:
                res += top * self.x_m
            res %= p
            return res
        full = _np.empty(m + 1, dtype=_np.int64)
        full[0] = 0
        full[1:] = cur
        if shift:
            full[:m] = (full[:m] + shift * cur) % p
        res = full[:m]
        if top:
            res = (res + top * self.x_m) % p
        return res

    def pow_linear(self, shift, exponent):
        """``(x + shift) ** exponent mod q`` (exponent >= 1, m >= 2)."""
        p, m = self.p, self.m
        cur = _np.zeros(m, dtype=self.q.dtype)
        cur[0] = shift % p
        cur[1] = 1
        bits = bin(exponent)[3:]
        if self.fast:
            rows = self.rows
            for bit in bits:
                u = _np.convolve(cur, cur) % p
                cur = (u[:m] + u[m:] @ rows) % p
                if bit == "1":
                    cur = self.mul_linear(cur, shift)
            return cur
        for bit in bits:
            cur = self.mulmod(cur, cur)
            if bit == "1":
                cur = self.mul_linear(cur, shift)
        return cur


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------


class NumpyFieldKernel:
    """Batched GF(p) arithmetic over NumPy arrays, for any odd prime ``p``.

    Stateless: every method takes the modulus and whole vectors/matrices of
    field elements, and returns Python ints (canonical residues).
    """

    #: The name :func:`kernel_for` reports.
    name = "numpy"

    # -- evaluation -----------------------------------------------------------------

    def evaluate_from_roots_many(
        self, modulus: int, roots: Iterable[int], points: Sequence[int]
    ) -> list[int]:
        """Evaluate ``prod (z - r)`` at every ``z`` in ``points`` in one pass."""
        p = modulus
        root_array = _residues(p, roots)
        point_array = _residues(p, points)
        if root_array.size == 0:
            return [1] * len(points)
        if point_array.size == 0:
            return []
        # (num_points, num_roots) difference matrix, then a balanced product
        # tree along the root axis: log_r(n) vectorized multiply-mod passes.
        # The differences lie in (-p, p) and stay unreduced until the first
        # pass.  Radix 3 when three of them multiply without overflowing
        # (object arrays, or int64 with p < ~2^20.6), radix 2 otherwise.
        diff = point_array[:, None] - root_array[None, :]
        radix = 3 if p >= _WIDE_MODULUS or p * p * p < _INT64_SAFE else 2
        while diff.shape[1] > 1:
            width = diff.shape[1]
            rem = width % radix
            if rem:
                spill = diff[:, width - rem :]
                diff = diff[:, : width - rem]
                if diff.shape[1] == 0:
                    diff = spill[:, :1] if rem == 1 else spill[:, :1] * spill[:, 1:2] % p
                    continue
            if radix == 3 and diff.shape[1] >= 3:
                diff = diff[:, 0::3] * diff[:, 1::3] * diff[:, 2::3] % p
            else:
                diff = diff[:, 0::2] * diff[:, 1::2] % p
            if rem:
                diff[:, :1] = diff[:, :1] * spill[:, :1] % p
                if rem == 2:
                    diff[:, :1] = diff[:, :1] * spill[:, 1:2] % p
        return (diff[:, 0] % p).tolist()

    def poly_eval_many(
        self, modulus: int, coeffs: Sequence[int], points: Sequence[int]
    ) -> list[int]:
        """Horner-evaluate one (low-first) coefficient vector at many points."""
        p = modulus
        if not len(points):
            return []
        if not coeffs:
            return [0] * len(points)
        z = _residues(p, points)
        acc = _np.full(z.shape, coeffs[-1] % p, dtype=z.dtype)
        for c in reversed(coeffs[:-1]):
            acc *= z
            acc += c % p
            acc %= p
        return acc.tolist()

    # -- polynomial arithmetic ------------------------------------------------------

    def poly_mul(self, modulus: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Product of two trimmed canonical coefficient sequences."""
        if not a or not b:
            return []
        if (len(a) - 1) * (len(b) - 1) < _MUL_SCALAR_CUTOFF:
            return _poly_mul_scalar(modulus, a, b)
        a_arr = _array(modulus, a)
        b_arr = a_arr if b is a else _array(modulus, b)
        return _trim([int(v) for v in _pmul_np(modulus, a_arr, b_arr)])

    def poly_gcd(self, modulus: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Monic greatest common divisor: the scalar Euclidean chain for the
        small degrees most protocols see, whole-array remainder steps for the
        large degrees of the d=1e4 CZ regime (bit-identical either way)."""
        if min(len(a), len(b)) < _GCD_VECTOR_CUTOFF:
            return _poly_gcd_scalar(modulus, a, b)
        return _poly_gcd_vec(modulus, a, b)

    @staticmethod
    def _poly_mod_auto(modulus, a, b):
        """Remainder with the gcd chain's scalar/vector dispatch (lists in/out)."""
        if min(len(a), len(b)) < _GCD_VECTOR_CUTOFF:
            return _poly_mod_scalar(modulus, a, b)
        remainder = _pmod_vec(modulus, _residues(modulus, a), _residues(modulus, b))
        return [int(v) for v in remainder]

    def poly_divmod(
        self, modulus: int, a: Sequence[int], b: Sequence[int]
    ) -> tuple[list[int], list[int]]:
        """Long division ``a = q * b + r`` with trimmed canonical outputs."""
        quotient_len = max(0, len(a) - len(b) + 1)
        if len(b) < _DIV_SCALAR_CUTOFF or quotient_len == 0:
            return _poly_divmod_scalar(modulus, a, b)
        p = modulus
        remainder = _residues(p, a)
        divisor = _residues(p, b)
        width = len(b)
        inv_lead = pow(int(divisor[-1]), -1, p)
        quotient = [0] * quotient_len
        for shift in range(quotient_len - 1, -1, -1):
            factor = int(remainder[shift + width - 1]) * inv_lead % p
            if factor == 0:
                continue
            quotient[shift] = factor
            window = remainder[shift : shift + width]
            remainder[shift : shift + width] = (window - factor * divisor) % p
        return _trim(quotient), _trim([int(v) for v in remainder])

    # -- linear algebra -------------------------------------------------------------

    def gaussian_elimination(
        self, modulus: int, matrix: Sequence[Sequence[int]]
    ) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form and pivot columns over GF(p)."""
        p = modulus
        rows = [list(row) for row in matrix]
        if not rows:
            return [], []
        num_cols = len(rows[0])
        if any(len(row) != num_cols for row in rows):
            raise ParameterError("matrix rows must all have the same length")
        arr = _array(p, rows) % p
        pivot_columns: list[int] = []
        pivot_row = 0
        num_rows = arr.shape[0]
        for col in range(num_cols):
            if pivot_row >= num_rows:
                break
            # Optimistic pivoting: the diagonal entry is almost always
            # usable for the dense Vandermonde-style CPI systems; fall back
            # to a column scan (the textbook choice: first row with a
            # nonzero entry) only when it is zero.
            if arr[pivot_row, col] == 0:
                nonzero = _np.nonzero(arr[pivot_row:, col])[0]
                if nonzero.size == 0:
                    continue
                chosen = pivot_row + int(nonzero[0])
                arr[[pivot_row, chosen]] = arr[[chosen, pivot_row]]
            inv = pow(int(arr[pivot_row, col]), -1, p)
            # Columns left of the pivot are already reduced and the pivot row
            # is zero there, so the update only needs the right-hand block,
            # in place (a residue minus a single product stays within int64).
            block = arr[:, col:]
            pivot_block = block[pivot_row] * inv % p
            block[pivot_row] = pivot_block
            factors = block[:, 0].copy()
            factors[pivot_row] = 0
            block -= factors[:, None] * pivot_block[None, :]
            block %= p
            pivot_columns.append(col)
            pivot_row += 1
        return arr.tolist(), pivot_columns

    def solve_linear_system(
        self, modulus: int, matrix: Sequence[Sequence[int]], rhs: Sequence[int]
    ) -> list[int] | None:
        """Solve ``matrix @ x = rhs``; ``None`` if inconsistent.

        Under-determined systems get the canonical particular solution with
        free variables set to zero (fixed by the uniqueness of the reduced
        echelon form, so any exact elimination order returns it).
        """
        p = modulus
        if not matrix:
            return []
        num_cols = len(matrix[0])
        augmented = [list(row) + [value] for row, value in zip(matrix, rhs)]
        if not _exact(p, num_cols + 2):
            # The back-substitution dot products below sum up to num_cols
            # p^2 terms, past what int64 holds: read the solution off the
            # reduced echelon form, whose updates are single products.
            rref, pivot_columns = self.gaussian_elimination(p, augmented)
            # Inconsistent iff the augmented column is a pivot.
            if pivot_columns and pivot_columns[-1] == num_cols:
                return None
            solution = [0] * num_cols
            for row, pivot_col in zip(rref, pivot_columns):
                solution[pivot_col] = row[num_cols]
            return solution
        if any(len(row) != num_cols for row in matrix):
            raise ParameterError("matrix rows must all have the same length")
        arr = _array(p, augmented) % p
        num_rows = arr.shape[0]
        # Forward elimination only (rows below the pivot); the reduced form
        # above the pivot is never needed for a single solve.  Pivots are
        # processed two at a time: a closed-form 2x2 inverse turns the
        # whole block step into two matmuls (echelon solutions are
        # canonical, so any exact elimination order yields the same result).
        pivot_columns: list[int] = []
        pivot_row = 0
        col = 0
        while col < num_cols and pivot_row < num_rows:
            width = min(2, num_cols - col, num_rows - pivot_row)
            if width > 1:
                a00 = int(arr[pivot_row, col])
                a01 = int(arr[pivot_row, col + 1])
                a10 = int(arr[pivot_row + 1, col])
                a11 = int(arr[pivot_row + 1, col + 1])
                det = (a00 * a11 - a01 * a10) % p
                if det != 0:
                    inv_det = pow(det, -1, p)
                    inv_arr = _np.asarray(
                        [
                            [a11 * inv_det % p, (-a01) * inv_det % p],
                            [(-a10) * inv_det % p, a00 * inv_det % p],
                        ],
                        dtype=arr.dtype,
                    )
                    # Pivot rows become echelon (identity in block columns)...
                    reduced = inv_arr @ arr[pivot_row : pivot_row + width] % p
                    arr[pivot_row : pivot_row + width] = reduced
                    below = arr[pivot_row + width :]
                    if below.size:
                        # ...and one rank-`width` update clears every row below.
                        coeffs_below = below[:, col : col + width].copy()
                        below -= coeffs_below @ reduced
                        below %= p
                    pivot_columns.extend(range(col, col + width))
                    pivot_row += width
                    col += width
                    continue
            # Scalar fallback: one textbook pivot step.
            if arr[pivot_row, col] == 0:
                nonzero = _np.nonzero(arr[pivot_row:, col])[0]
                if nonzero.size == 0:
                    col += 1
                    continue
                chosen = pivot_row + int(nonzero[0])
                arr[[pivot_row, chosen]] = arr[[chosen, pivot_row]]
            below = arr[pivot_row + 1 :]
            if below.size:
                inv = pow(int(arr[pivot_row, col]), -1, p)
                factors = below[:, col] * inv % p
                below -= factors[:, None] * arr[pivot_row][None, :]
                below %= p
            pivot_columns.append(col)
            pivot_row += 1
            col += 1
        # Rows below the rank have an all-zero left side by construction.
        if arr[pivot_row:, num_cols].any():
            return None
        solution = _np.zeros(num_cols, dtype=arr.dtype)
        for k in range(pivot_row - 1, -1, -1):
            col = pivot_columns[k]
            row = arr[k]
            acc = int(row[col + 1 : num_cols] @ solution[col + 1 :]) if col + 1 < num_cols else 0
            inv = pow(int(row[col]), -1, p)
            solution[col] = (int(row[num_cols]) - acc) % p * inv % p
        return solution.tolist()

    def assemble_rational_system(
        self,
        modulus: int,
        points: Sequence[int],
        numer_evals: Sequence[int],
        denom_evals: Sequence[int],
        deg_num: int,
        deg_den: int,
    ) -> tuple[list[list[int]], list[int]]:
        """The Vandermonde-style system of the rational interpolation step.

        Row ``i`` encodes ``P(z_i) - f_i Q(z_i) = 0`` for monic ``P``
        (degree ``deg_num``) and ``Q`` (degree ``deg_den``) with
        ``f_i = numer_evals[i] / denom_evals[i]``; the right-hand side moves
        the two forced leading coefficients over.  The ratios take one
        batched inversion, the powers a column-doubling Vandermonde build.
        """
        p = modulus
        if not len(points):
            return [], []
        z = _residues(p, points)
        ratios = _array(
            p,
            [
                n * inv_d % p
                for n, inv_d in zip(numer_evals, self.inv_many(p, denom_evals))
            ],
        )
        max_power = max(deg_num, deg_den)
        powers = _np.empty((len(points), max_power + 1), dtype=z.dtype)
        powers[:, 0] = 1
        if max_power:
            powers[:, 1] = z
            # Column doubling: powers[k:2k] = powers[:k] * z^k, log passes.
            filled = 2
            while filled <= max_power:
                take = min(filled, max_power + 1 - filled)
                z_filled = powers[:, filled - 1] * z % p
                powers[:, filled : filled + take] = (
                    powers[:, :take] * z_filled[:, None]
                ) % p
                filled += take
        matrix = _np.empty((len(points), deg_num + deg_den), dtype=z.dtype)
        matrix[:, :deg_num] = powers[:, :deg_num]
        matrix[:, deg_num:] = (-(ratios[:, None] * powers[:, :deg_den])) % p
        rhs = (ratios * powers[:, deg_den] - powers[:, deg_num]) % p
        return matrix.tolist(), rhs.tolist()

    def inv_many(self, modulus: int, values: Sequence[int]) -> list[int]:
        """Batch modular inversion (Montgomery's trick: one ``pow``, 3n muls).

        Raises :class:`ZeroDivisionError` on any zero entry, matching
        :meth:`repro.field.gfp.PrimeField.inv`.
        """
        p = modulus
        values = [v % p for v in values]
        if not values:
            return []
        prefix = [0] * len(values)
        acc = 1
        for i, v in enumerate(values):
            if v == 0:
                raise ZeroDivisionError("cannot invert zero in a prime field")
            acc = acc * v % p
            prefix[i] = acc
        inv_acc = pow(acc, -1, p)
        out = [0] * len(values)
        for i in range(len(values) - 1, 0, -1):
            out[i] = inv_acc * prefix[i - 1] % p
            inv_acc = inv_acc * values[i] % p
        out[0] = inv_acc
        return out

    # -- root finding ---------------------------------------------------------------

    def find_distinct_roots(self, modulus: int, coeffs: Sequence[int], rng) -> list[int]:
        """All distinct GF(p) roots of a nonzero polynomial, sorted ascending.

        Cantor-Zassenhaus with level-batched splitting.  Differences from
        the textbook ``gcd(f, x^p - x)`` followed by one random split per
        factor (the result is the same, the set of roots being intrinsic to
        the polynomial):

        * ``x^((p-1)/2) mod f`` is computed once and reused both for the
          distinct-linear-part extraction (``x^p = (x^e)^2 x``) and as the
          free first split of the root product;
        * every subsequent level computes *one* vectorized modular
          exponentiation modulo the product of all still-unsplit factors and
          reduces it per factor, instead of one exponentiation per factor;
        * factors of degree <= 2 are finished with the closed quadratic
          formula (deterministic Tonelli-Shanks), truncating the recursion
          two levels early where most of the split attempts live.
        """
        p = modulus
        trimmed = _trim([c % p for c in coeffs])
        if not trimmed:
            raise ParameterError("cannot find roots of the zero polynomial")
        f = _poly_monic_scalar(p, trimmed)
        degree = len(f) - 1
        if degree <= 0:
            return []
        roots: list[int] = []
        if degree <= 2:
            return _small_degree_roots(p, f)

        exponent = (p - 1) // 2
        ctx = _Modulus(p, _array(p, f))
        # h = x^e mod f; then x^p mod f = (h^2 mod f) * x mod f.
        h = ctx.pow_linear(0, exponent)
        x_p = ctx.mul_linear(ctx.mulmod(h, h), 0)
        x_p_minus_x = [int(v) for v in x_p]
        x_p_minus_x[1] = (x_p_minus_x[1] - 1) % p
        linear_part = self.poly_gcd(p, f, _trim(x_p_minus_x))

        pending: list[list[int]] = []

        def resolve(factor: list[int], target: list[list[int]]) -> None:
            if len(factor) - 1 <= 0:
                return
            if len(factor) - 1 <= 2:
                roots.extend(_small_degree_roots(p, factor))
            else:
                target.append(factor)

        def split_with(
            factor: list[int], probe: list[int], target: list[list[int]]
        ) -> bool:
            """Try gcd-splitting ``factor``; resolve or re-queue onto ``target``."""
            part = self.poly_gcd(p, factor, probe)
            if not 0 < len(part) - 1 < len(factor) - 1:
                return False
            resolve(part, target)
            resolve(self.poly_divmod(p, factor, part)[0], target)
            return True

        g_degree = len(linear_part) - 1
        h_probe = _minus_one(p, self._poly_mod_auto(p, [int(v) for v in h], linear_part))
        if g_degree <= 2:
            roots.extend(_small_degree_roots(p, linear_part))
        elif not split_with(linear_part, h_probe, pending):
            # The free split (h separates quadratic residues) was trivial.
            pending.append(linear_part)

        while pending:
            # One exponentiation per level: every pending factor divides the
            # context modulus, so (x+a)^e mod it reduces mod each factor for
            # free and one vectorized pow (reusing the precomputed reduction
            # matrix) splits the whole level with cheap scalar gcds.  Once
            # most roots are resolved, rebuild the context over the product
            # of the survivors so the squarings and probes shrink with them.
            total_degree = sum(len(factor) - 1 for factor in pending)
            if total_degree >= 3 and 2 * total_degree <= ctx.m:
                product = _array(p, pending[0])
                for factor in pending[1:]:
                    product = _pmul_np(p, product, _array(p, factor))
                ctx = _Modulus(p, product)
            shift = rng.randrange(p)
            probe = _minus_one(p, [int(v) for v in ctx.pow_linear(shift, exponent)])
            if not probe:
                continue  # (x+a)^e = 1 mod the context: retry with a fresh shift
            next_pending: list[list[int]] = []
            for factor in pending:
                if not split_with(factor, probe, next_pending):
                    next_pending.append(factor)
            pending = next_pending
        roots.sort()
        return roots


# ---------------------------------------------------------------------------
# Kernel resolution: the one kernel, and the name the entry points accept
# ---------------------------------------------------------------------------

_KERNEL = NumpyFieldKernel()

#: The names ``field_kernel=`` accepts; each names the one kernel.
FIELD_KERNEL_NAMES = ("auto", "numpy")


def check_field_kernel(field_kernel: str | None) -> None:
    """Refuse a ``field_kernel=`` request the one kernel does not answer to
    (:data:`FIELD_KERNEL_NAMES`, or ``None``)."""
    if field_kernel is not None and field_kernel not in FIELD_KERNEL_NAMES:
        raise ParameterError(
            f"unknown field kernel {field_kernel!r}; accepted: {list(FIELD_KERNEL_NAMES)}"
        )


def kernel_for(modulus: int, field_kernel: str | None = None) -> NumpyFieldKernel:
    """The field kernel for the odd prime ``modulus``.

    ``field_kernel`` is checked (:func:`check_field_kernel`) and dropped:
    every accepted name selects the same kernel.  A modulus below 3 raises
    :class:`~repro.errors.ParameterError` (the root finder assumes an odd
    modulus; the CPI path never builds one).
    """
    check_field_kernel(field_kernel)
    if modulus < 3:
        raise ParameterError(f"the field kernel needs an odd prime modulus (got {modulus})")
    return _KERNEL
