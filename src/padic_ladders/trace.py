"""Integer side of the construction: Hecke-matrix powers and delta coefficients.

The 2x2 trace matrix C = [[a_p, -1], [p, 0]] drives everything here: its
scaled powers give the integer pairs (y_i, y_i') behind the printed
delta-table, the A_l matrices satisfy a closed inversion identity, and the
beta scalars live in Z[alpha] with alpha a root of X^2 - a_p X + p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Tuple

from .errors import IdentityViolation, NonIntegralCoefficient, NotSupersingular
from .padics import QuadExtScalar, is_prime
from .report import CheckReport

Matrix = Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]


def mat(a, b, c, d) -> Matrix:
    return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))


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
    """(y_i, y_i'): top row of diag(p^-[i/2], p^-[(i+1)/2]) * C^i.

    Any integer i is accepted; the index is reduced modulo two_tilde with a
    sign flip per step, which is the mod-four_tilde periodicity of the table.
    """
    consts = period_constants(p, ap)
    r = i % consts.two_tilde
    sign = -1 if ((i - r) // consts.two_tilde) % 2 else 1
    y, y_prime = consts.deltas[r]
    return DeltaCoeffs(p, ap, i, sign * y, sign * y_prime)


def render_delta(y: int, y_prime: int) -> str:
    """Human form "y*c_n +- y'*c_{n-1}" with unit coefficients suppressed."""

    def coeff(c: int) -> str:
        if c == 1:
            return ""
        if c == -1:
            return "-"
        return str(c)

    if y == 0 and y_prime == 0:
        return "0"
    parts = []
    if y != 0:
        parts.append(coeff(y) + "c_n")
    if y_prime != 0:
        if not parts:
            parts.append(coeff(y_prime) + "c_{n-1}")
        else:
            sign = " + " if y_prime > 0 else " - "
            mag = abs(y_prime)
            parts.append(sign + (str(mag) if mag != 1 else "") + "c_{n-1}")
    return "".join(parts)


def delta_table(p: int, ap: int, i_min: int, i_max: int) -> List[DeltaCoeffs]:
    return [delta_coeffs(p, ap, i) for i in range(i_min, i_max + 1)]


def a_matrix(p: int, ap: int, l: int) -> Matrix:
    """A_l = [[a_p,-1],[1,0]] * prod_{i=1..l-1} [[a_p(i),-1],[1,0]], identity-checked.

    The postcondition A_l^-1 [[a_p,-p],[1,0]]^(l-1)
    = diag(p^[l/2], p^[(l-1)/2]) [[0,1],[-1,a_p]] is verified exactly.
    """
    period_constants(p, ap)
    if l < 1:
        raise ValueError("l must be >= 1")
    A = mat(ap, -1, 1, 0)
    for i in range(1, l):
        A = mat_mul(A, mat(ap_parity_value(p, ap, i), -1, 1, 0))
    lhs = mat_mul(mat_inv_unimodular(A), mat_pow(mat(ap, -p, 1, 0), l - 1))
    rhs = mat_mul(
        mat(Fraction(p) ** (l // 2), 0, 0, Fraction(p) ** ((l - 1) // 2)),
        mat(0, 1, -1, ap),
    )
    if lhs != rhs:
        raise IdentityViolation(
            f"A_l inversion identity failed at (p, a_p, l) = ({p}, {ap}, {l}): "
            f"{lhs} != {rhs}"
        )
    return A


def beta(p: int, ap: int, m: int) -> QuadExtScalar:
    """beta_m = p^[m/2] * y_m * alpha^(-m) in Z[alpha] coordinates.

    Depends only on m modulo two_tilde, so the index is reduced first (and
    the value cached per residue); negative powers of alpha go through
    alpha^-1 = conj(alpha)/p.
    """
    return _beta(p, ap, m % period_constants(p, ap).two_tilde)


@lru_cache(maxsize=1024)
def _beta(p: int, ap: int, m0: int) -> QuadExtScalar:
    scale = Fraction(p) ** (m0 // 2) * delta_coeffs(p, ap, m0).y
    return QuadExtScalar.alpha(p, ap).pow_int(-m0) * scale


def y_beta_identity_check(p: int, ap: int, i: int, k: int) -> CheckReport:
    """Assert p^[i/2] y_i - p^[(i-k)/2] y_{i-k} (p/alpha)^k = beta_{k-1} alpha^i exactly."""
    if k < 1:
        raise ValueError("k must be >= 1")
    period_constants(p, ap)
    alpha = QuadExtScalar.alpha(p, ap)
    abar = QuadExtScalar.alpha_bar(p, ap)  # p / alpha
    yi = delta_coeffs(p, ap, i).y
    yik = delta_coeffs(p, ap, i - k).y
    lhs = (
        QuadExtScalar.from_rationals(p, ap, Fraction(p) ** (i // 2) * yi)
        - abar.pow_int(k) * (Fraction(p) ** ((i - k) // 2) * yik)
    )
    rhs = beta(p, ap, k - 1) * alpha.pow_int(i)
    if lhs != rhs:
        raise IdentityViolation(
            f"y-beta identity failed at (p, a_p, i, k) = ({p}, {ap}, {i}, {k}): "
            f"{lhs!r} != {rhs!r}"
        )
    return CheckReport(
        name="y_beta_identity",
        config={"p": p, "ap": ap, "i": i, "k": k},
    )
