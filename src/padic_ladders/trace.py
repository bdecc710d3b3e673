"""Integer side of the construction: Hecke-matrix powers and delta coefficients.

The 2x2 trace matrix C = [[a_p, -1], [p, 0]] drives everything here: its
scaled powers give the integer pairs (y_i, y_i') behind the printed
delta-table, the A_l matrices satisfy a closed inversion identity, and the
beta scalars live in Z[alpha] with alpha a root of X^2 - a_p X + p.  The suite's six
checks of this side (the printed table, anti-periodicity, the parity recursion, A_l, the
y-beta identity and beta's periodicity) live here as functions of (p, a_p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Tuple

from .errors import IdentityViolation, NonIntegralCoefficient, NotSupersingular
from .padics import QuadExtScalar, is_prime
from .report import CheckReport

Matrix = Tuple[Tuple[int, int], Tuple[int, int]]


def mat(a, b, c, d) -> Matrix:
    return ((a, b), (c, d))


MAT_ID = mat(1, 0, 0, 1)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def mat_pow(A: Matrix, k: int) -> Matrix:
    if k < 0:
        raise ValueError("nonnegative exponents only")
    out = MAT_ID
    for _ in range(k):
        out = mat_mul(out, A)
    return out


def mat_inv_unimodular(A: Matrix) -> Matrix:
    """Inverse of a determinant-1 matrix (the adjugate)."""
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    if det != 1:
        raise ValueError(f"expected determinant 1, got {det}")
    return mat(A[1][1], -A[0][1], -A[1][0], A[0][0])


def trace_matrix(p: int, ap: int) -> Matrix:
    return mat(ap, -1, p, 0)


@dataclass(frozen=True)
class PeriodConstants:
    """Periodicity constants: (2, 4, 1) when a_p = 0, else (2p, 4p, p), and
    one period of delta pairs (y_r, y_r'), 0 <= r < two_tilde."""

    p: int
    ap: int
    two_tilde: int
    four_tilde: int
    one_tilde: int
    deltas: Tuple[Tuple[int, int], ...] = ()


@dataclass(frozen=True)
class DeltaCoeffs:
    """Integer pair (y, y') with delta_n^i = y*c_n + y'*c_{n-1}."""

    p: int
    ap: int
    i: int
    y: int
    y_prime: int

    @property
    def rendered(self) -> str:
        return render_delta(self.y, self.y_prime)


@lru_cache(maxsize=256)
def period_constants(p: int, ap: int) -> PeriodConstants:
    """Constants of the supersingular pair, with C^two_tilde = -p^one_tilde * I checked.

    The top rows of C^r come from an integer walk (a, b) -> (a, b) * C; the
    bottom row of C^r is p times the top row of C^(r-1).  Row r over p^[r/2]
    is the delta pair (y_r, y_r'), checked integral once here.

    Admissible pairs are exactly those with p prime, p | a_p and a_p^2 <= 4p:
    (2, 0), (2, +-2), (3, 0), (3, +-3) and (p >= 5, 0).  Results are cached
    per pair; an inadmissible pair raises on every call (nothing is cached).
    """
    if not is_prime(p):
        raise NotSupersingular(f"p = {p} is not prime")
    if ap % p != 0:
        raise NotSupersingular(f"p = {p} does not divide a_p = {ap}")
    if ap * ap > 4 * p:
        raise NotSupersingular(f"a_p = {ap} violates the Hasse bound at p = {p}")
    tt, one = (2, 1) if ap == 0 else (2 * p, p)
    tops = [(1, 0)]
    for _ in range(tt):
        a, b = tops[-1]
        tops.append((ap * a + p * b, -a))
    if tops[tt] != (-p ** one, 0) or tops[tt - 1] != (0, -p ** (one - 1)):
        raise NotSupersingular(f"C^{tt} != -{p}^{one} I for (p, a_p) = ({p}, {ap})")
    deltas = []
    for r, (a, b) in enumerate(tops[:tt]):
        scale = p ** (r // 2)
        if a % scale or b % scale:
            raise NonIntegralCoefficient(f"(y, y') = ({Fraction(a, scale)}, "
                                         f"{Fraction(b, scale)}) at (p, a_p, i) = ({p}, {ap}, {r})")
        deltas.append((a // scale, b // scale))
    return PeriodConstants(p, ap, tt, 2 * tt, one, tuple(deltas))


def ap_parity_value(p: int, ap: int, i: int) -> int:
    """a_p(i): a_p / p for odd i, a_p for even i.  Always an integer here."""
    if i % 2 != 0:
        if ap % p != 0:
            raise NotSupersingular(f"a_p = {ap} not divisible by p = {p}")
        return ap // p
    return ap


def delta_coeffs(p: int, ap: int, i: int) -> DeltaCoeffs:
    """(y_i, y_i'): top row of diag(p^-[i/2], p^-[(i+1)/2]) * C^i, for any integer i: the
    index is reduced modulo two_tilde with a sign flip per step, which is the mod-four_tilde
    periodicity of the table."""
    consts = period_constants(p, ap)
    r = i % consts.two_tilde
    sign = -1 if ((i - r) // consts.two_tilde) % 2 else 1
    y, y_prime = consts.deltas[r]
    return DeltaCoeffs(p, ap, i, sign * y, sign * y_prime)


def render_delta(y: int, y_prime: int) -> str:
    """Human form "y*c_n +- y'*c_{n-1}" with unit coefficients suppressed."""
    out = ""
    for c, term in ((y, "c_n"), (y_prime, "c_{n-1}")):
        if c:  # a leading sign is "-" or nothing, a later one " - " or " + "
            sign = (" - " if c < 0 else " + ") if out else ("-" if c < 0 else "")
            out += sign + (str(abs(c)) if abs(c) != 1 else "") + term
    return out or "0"


def delta_table(p: int, ap: int, i_min: int, i_max: int) -> List[DeltaCoeffs]:
    return [delta_coeffs(p, ap, i) for i in range(i_min, i_max + 1)]


def a_matrix(p: int, ap: int, l: int) -> Matrix:
    """A_l = [[a_p,-1],[1,0]] * prod_{i=1..l-1} [[a_p(i),-1],[1,0]], identity-checked: the
    postcondition A_l^-1 [[a_p,-p],[1,0]]^(l-1) = diag(p^[l/2], p^[(l-1)/2]) [[0,1],[-1,a_p]]
    is verified exactly."""
    period_constants(p, ap)
    if l < 1:
        raise ValueError("l must be >= 1")
    A = mat(ap, -1, 1, 0)
    for i in range(1, l):
        A = mat_mul(A, mat(ap_parity_value(p, ap, i), -1, 1, 0))
    lhs = mat_mul(mat_inv_unimodular(A), mat_pow(mat(ap, -p, 1, 0), l - 1))
    rhs = mat_mul(mat(p ** (l // 2), 0, 0, p ** ((l - 1) // 2)), mat(0, 1, -1, ap))
    if lhs != rhs:
        lhs, rhs = (tuple(tuple(map(Fraction, row)) for row in m) for m in (lhs, rhs))
        raise IdentityViolation(f"A_l inversion identity failed at (p, a_p, l) = "
                                f"({p}, {ap}, {l}): {lhs} != {rhs}")  # Fraction reprs
    return A


def beta(p: int, ap: int, m: int) -> QuadExtScalar:
    """beta_m = p^[m/2] * y_m * alpha^(-m) in Z[alpha] coordinates.  It depends only on m
    mod two_tilde, so the index is reduced first (the value cached per residue); negative
    powers of alpha go through alpha^-1 = conj(alpha)/p."""
    return _beta(p, ap, m % period_constants(p, ap).two_tilde)


@lru_cache(maxsize=1024)
def _beta(p: int, ap: int, m0: int) -> QuadExtScalar:
    scale = p ** (m0 // 2) * delta_coeffs(p, ap, m0).y  # m0 >= 0
    return QuadExtScalar.alpha(p, ap).pow_int(-m0) * scale


def _times_root(p: int, ap: int, x: int, y: int, k: int, conj: bool) -> Tuple[int, int]:
    """(x + y alpha) * conj(alpha)^k if conj, else * alpha^k, for k >= 0, on the int pair."""
    for _ in range(k):
        x, y = (x * ap + p * y, -x) if conj else (-p * y, x + ap * y)
    return x, y


def y_beta_identity_check(p: int, ap: int, i: int, k: int) -> CheckReport:
    """Assert p^[i/2] y_i - p^[(i-k)/2] y_{i-k} (p/alpha)^k = beta_{k-1} alpha^i exactly: with
    beta_{k-1} = (na + nb alpha)/d, both sides times d p^M, p^M the least power that clears
    every p^-e (p/alpha = conj(alpha), and alpha^i = conj(alpha)^-i / p^-i for i < 0), are
    compared as int pairs x + y alpha, and built as QuadExtScalars only for a failure's text."""
    if k < 1:
        raise ValueError("k must be >= 1")
    y_i = delta_coeffs(p, ap, i).y  # validates the pair first
    y_ik, b = delta_coeffs(p, ap, i - k).y, beta(p, ap, k - 1)
    m = max(0, -i, -((i - k) // 2))
    t, u = _times_root(p, ap, y_ik * b.d * p ** ((i - k) // 2 + m), 0, k, True)
    lhs, s = (y_i * b.d * p ** (i // 2 + m) - t, -u), p ** (m + min(i, 0))
    rhs = _times_root(p, ap, b.na * s, b.nb * s, abs(i), i < 0)
    if lhs != rhs:
        lhs, rhs = (QuadExtScalar(p, ap, Fraction(x, b.d * p ** m), Fraction(y, b.d * p ** m))
                    for x, y in (lhs, rhs))
        raise IdentityViolation(f"y-beta identity failed at (p, a_p, i, k) = ({p}, {ap}, {i}, "
                                f"{k}): {lhs!r} != {rhs!r}")
    return CheckReport("y_beta_identity", {"p": p, "ap": ap, "i": i, "k": k})


# The suite's trace-level checks each return a failure text or None.  The printed
# delta-table: rows i = -2..7, one column per a_p value; the a_p = 0 column is p-independent.
PRINTED_TABLE = {
    2: ["-c_n + c_{n-1}", "c_{n-1}", "c_n", "2c_n - c_{n-1}", "c_n - c_{n-1}",
        "-c_{n-1}", "-c_n", "-2c_n + c_{n-1}", "-c_n + c_{n-1}", "c_{n-1}"],
    -2: ["-c_n - c_{n-1}", "c_{n-1}", "c_n", "-2c_n - c_{n-1}", "c_n + c_{n-1}",
         "-c_{n-1}", "-c_n", "2c_n + c_{n-1}", "-c_n - c_{n-1}", "c_{n-1}"],
    3: ["-c_n + c_{n-1}", "c_{n-1}", "c_n", "3c_n - c_{n-1}", "2c_n - c_{n-1}",
        "3c_n - 2c_{n-1}", "c_n - c_{n-1}", "-c_{n-1}", "-c_n", "-3c_n + c_{n-1}"],
    -3: ["-c_n - c_{n-1}", "c_{n-1}", "c_n", "-3c_n - c_{n-1}", "2c_n + c_{n-1}",
         "-3c_n - 2c_{n-1}", "c_n + c_{n-1}", "-c_{n-1}", "-c_n", "3c_n + c_{n-1}"],
    0: ["-c_n", "c_{n-1}", "c_n", "-c_{n-1}", "-c_n", "c_{n-1}", "c_n",
        "-c_{n-1}", "-c_n", "c_{n-1}"],
}


def check_delta_table(p: int, ap: int) -> Optional[str]:
    rows = delta_table(p, ap, -2, 7)  # validates the pair; admissible a_p are keys
    for row, want in zip(rows, PRINTED_TABLE[ap]):
        if row.rendered != want:
            return f"row i={row.i}: got {row.rendered!r}, expected {want!r}"
    return None


def check_integrality_antiperiodicity(p: int, ap: int) -> Optional[str]:
    """By construction (delta_coeffs flips the sign once per two_tilde) it catches a wrong
    index-reduction rule only: the y + 1 and beta-late rows of the fault matrix pass it."""
    tt = period_constants(p, ap).two_tilde
    for i in range(-8 * p, 8 * p + 1):
        d, d2 = delta_coeffs(p, ap, i), delta_coeffs(p, ap, i + tt)  # or NonIntegralCoefficient
        if (d2.y, d2.y_prime) != (-d.y, -d.y_prime):
            return f"anti-periodicity broken at i={i}"
    return None


def check_parity_recursion(p: int, ap: int) -> Optional[str]:
    for i in range(-8 * p, 8 * p):
        prev, cur, nxt = (delta_coeffs(p, ap, j) for j in (i - 1, i, i + 1))
        a = ap_parity_value(p, ap, i)  # after delta_coeffs, which validates the pair
        if nxt.y != a * cur.y - prev.y or nxt.y_prime != a * cur.y_prime - prev.y_prime:
            return f"parity recursion broken at i={i}"
    # direct scaled-power cross-check on the C^i formula
    for i in range(0, 4 * p + 1):
        d, scale = delta_coeffs(p, ap, i), p ** (i // 2)
        if mat_pow(trace_matrix(p, ap), i)[0] != (d.y * scale, d.y_prime * scale):
            return f"C^i top row mismatch at i={i}"
    return None


def check_a_matrix(p: int, ap: int) -> Optional[str]:
    for l in range(1, 2 * p + 3):
        a_matrix(p, ap, l)  # IdentityViolation on failure
    return None


def check_y_beta(p: int, ap: int) -> Optional[str]:
    for i in range(-2, period_constants(p, ap).two_tilde + 1):
        for k in (1, 2, 3):
            y_beta_identity_check(p, ap, i, k)
    return None


def check_beta_periodicity(p: int, ap: int) -> Optional[str]:
    """By construction (beta reduces m mod two_tilde before it reads _beta) it catches a wrong
    index-reduction rule only: the beta-late and y + 1 rows of the fault matrix pass it."""
    tt = period_constants(p, ap).two_tilde
    for m in range(-3 * tt, 3 * tt + 1):
        if beta(p, ap, m) != beta(p, ap, m + tt):
            return f"beta not two_tilde-periodic at m={m}"
    return None
