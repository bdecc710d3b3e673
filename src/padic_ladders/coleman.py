"""Level-n linear algebra of the ladder map and its constructive inversion.

phi_n^i sends a pair (a, b) to (theta_i a + upsilon_i b,
theta_{i-1} a + upsilon_{i-1} b) in the quotient by omega_n.  Its kernel is
spanned by X * (upsilon_row, -theta_row) for two adjacent rows, and the map
is inverted by peeling one cyclotomic factor per level through exact
polynomial division; a division failure is a sound and complete witness that
the input is outside the image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from .errors import IdentityViolation, PrecisionExhausted, SerializationError
from .ladders import ladder
from .padics import _json_int, rational_valuation
from .report import CheckReport
from .series import (
    LambdaElement,
    PowerSeries,
    _lincomb,
    exact_divide,
    ladder_rows,
    omega,
    omega_coeffs,
    phi,
    poly_rem,
    reduce_mod,
    shift_rows,
)
from .trace import period_constants


@dataclass(frozen=True)
class LambdaPair:
    """Two level-n quotient elements with shared (p, level)."""

    first: LambdaElement
    second: LambdaElement

    def __post_init__(self):
        self.first._check(self.second)

    @property
    def p(self) -> int:
        return self.first.p

    @property
    def level(self) -> int:
        return self.first.level

    @classmethod
    def from_ints(cls, p: int, level: int, first, second) -> "LambdaPair":
        return cls(
            LambdaElement.from_ints(p, level, first),
            LambdaElement.from_ints(p, level, second),
        )

    def __sub__(self, other: "LambdaPair") -> "LambdaPair":
        return LambdaPair(self.first - other.first, self.second - other.second)

    def is_zero(self) -> bool:
        return self.first.is_zero() and self.second.is_zero()

    def __eq__(self, other):
        if not isinstance(other, LambdaPair):
            return NotImplemented
        return self.first == other.first and self.second == other.second

    __hash__ = None

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "level": self.level,
            "first": self.first.to_json(),
            "second": self.second.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "LambdaPair":
        p, level = _json_int(data, "p"), _json_int(data, "level")
        parts = [data.get("first"), data.get("second")]
        if not all(isinstance(d, dict) for d in parts):
            raise SerializationError("first and second must be JSON objects")
        return cls(*(LambdaElement.from_json(dict(d, p=p, level=level)) for d in parts))


@dataclass(frozen=True)
class KernelBasis:
    generators: Tuple[LambdaPair, LambdaPair]


@lru_cache(maxsize=256)
def _rows_mod_omega(p: int, ap: int, n: int, i: int):
    """Ladder rows (i, i-1) at level n: degrees < p^n, so already reduced mod omega_n."""
    return tuple(map(tuple, ladder(p, ap, n, i).entries))  # ladder checks (p, a_p) and n


def phi_apply(p: int, ap: int, n: int, i: int, v: LambdaPair) -> LambdaPair:
    """(theta_i a + upsilon_i b, theta_{i-1} a + upsilon_{i-1} b) mod omega_n."""
    rows = _rows_mod_omega(p, ap, n, i)
    if (v.p, v.level) != (p, n):
        raise ValueError("inputs must live at the requested (p, level)")
    a, b = v.first.poly, v.second.poly
    return LambdaPair(*(LambdaElement(p, n, theta.mul(a) + upsilon.mul(b))
                        for theta, upsilon in rows))


def kernel_basis(p: int, ap: int, n: int, i: int = 1) -> KernelBasis:
    """Generators X*(upsilon_i, -theta_i) and X*(upsilon_{i-1}, -theta_{i-1})."""
    rows = _rows_mod_omega(p, ap, n, i)
    x = PowerSeries.x_power(p, 1)
    return KernelBasis(tuple(
        LambdaPair(LambdaElement(p, n, x.mul(upsilon)), LambdaElement(p, n, -x.mul(theta)))
        for theta, upsilon in rows))


def kernel_member(p: int, ap: int, n: int, v: LambdaPair) -> bool:
    """Membership in ker(phi_n): the index-1 map sends v to (0, 0) exactly."""
    return phi_apply(p, ap, n, 1, v).is_zero()


def decompose(p: int, ap: int, n: int, P1: LambdaElement, P0: LambdaElement) -> LambdaPair:
    """Invert the index-1 map: find (theta, upsilon) with phi(theta, upsilon) = (P1, P0).

    Peels the cyclotomic factors from the outside in: at step j the pair
    (u, v) becomes (v, (a_p v - u)/Phi_j), dividing canonical lifts exactly.
    InexactDivision from any step witnesses that the input is not in the
    image.  The result is one representative of the kernel coset.

    Exact inputs (PowerSeries.is_exact) are not rebuilt: exact_divide accepts only
    a zero remainder, so Phi_j v' = a_p v - u and [[a_p, -Phi_j], [1, 0]] undoes
    each step; their product maps the output onto (P1, P0) before reduction mod
    omega_n, so after it too.  An inexact input is rebuilt: a remainder zero only at
    its precision can leave the rebuild off the input (seen at p = 2): PrecisionExhausted.
    """
    period_constants(p, ap)
    if n < 1:
        raise ValueError("level n must be >= 1")
    if (P1.p, P1.level) != (p, n) or (P0.p, P0.level) != (p, n):
        raise ValueError("inputs must live at the requested (p, level)")
    u, v = P1.poly, P0.poly
    for j in range(n, 0, -1):
        w = v * ap - u
        u, v = v, exact_divide(w, phi(p, j))
    out = LambdaPair(LambdaElement(p, n, u), LambdaElement(p, n, v))
    if not (P1.poly.is_exact() and P0.poly.is_exact()) and \
            phi_apply(p, ap, n, 1, out) != LambdaPair(P1, P0):
        raise PrecisionExhausted(f"the peeled pair does not rebuild the inexact input at its "
                                 f"precision at (p, a_p, n) = ({p}, {ap}, {n})")
    return out


KERNEL_COSET_NOTE = (
    "theta/upsilon are determined only modulo the kernel spanned by "
    "X*(upsilon_row, -theta_row) over adjacent rows; this is the canonical "
    "peeling representative."
)


def limit_lemma_check(p: int, ap: int, m: int, nu: int) -> CheckReport:
    """Kernel generators at level 2m+nu, reduced mod omega_nu, are divisible by p^m.

    Reduction mod omega_nu is a ring map, and Phi_k(1+X) = p in Z[X]/omega_nu
    for k > nu, since (1+X)^(p^nu) = 1 there: the level-nu rows times 2m
    constant steps [[a_p, -p], [1, 0]] give the generators, with degrees
    below p^nu instead of p^(2m+nu).
    """
    period_constants(p, ap)
    if m < 1 or nu < 0:
        raise ValueError("need m >= 1 and nu >= 0")
    for s in _limit_lemma_residues(p, ap, m, nu):
        for k, c in enumerate(s):
            if c:
                raise IdentityViolation(
                    f"coefficient of X^{k} has valuation {rational_valuation(c, p)} < {m} "
                    f"at (p, a_p, m, nu) = ({p}, {ap}, {m}, {nu})"
                )
    return CheckReport(
        name="limit_lemma", config={"p": p, "ap": ap, "m": m, "nu": nu}
    )


def _limit_lemma_residues(p: int, ap: int, m: int, nu: int) -> list:
    """X * (upsilon, theta) of rows 2m+1 and 2m at level 2m+nu, mod (omega_nu, p^m)."""
    # p^m divides a coefficient exactly when its residue is 0, whatever its
    # sign, so X*theta stands for -X*theta.
    mod = p ** m
    rows = ladder_rows(p, ap, nu, 1, mod=mod)
    for _ in range(2 * m):
        top, bot = rows
        rows = [[_lincomb(ap, x, -p, y, mod) for x, y in zip(top, bot)], top]
    rows = shift_rows(p, ap, rows, 2 * m + 1, mod)
    w = omega_coeffs(p, nu)
    return [poly_rem([0] + s, w, mod) for theta, upsilon in rows for s in (upsilon, theta)]


def projection_compatibility_check(
    p: int, ap: int, n: int, i: int, v: LambdaPair
) -> CheckReport:
    """Level n+1 -> n compatibility under the diagonal p scalings.

    The reduced level-(n+1) image equals the level-n image at index i+1 with
    diag(p, 1) applied for odd i (diag(1, p) for even i), exactly: the
    diagonal 1/p scalings of the level-(n+1) side, moved across.
    """
    period_constants(p, ap)
    if v.level != n + 1:
        raise ValueError("input pair must live at level n+1")
    w = omega(p, n)
    up = phi_apply(p, ap, n + 1, i, v)
    v_down = LambdaPair(
        LambdaElement(p, n, reduce_mod(v.first.poly, w)),
        LambdaElement(p, n, reduce_mod(v.second.poly, w)),
    )
    down = phi_apply(p, ap, n, i + 1, v_down)
    first, second = down.first.poly, down.second.poly
    if i % 2 != 0:
        first = first.scale(p)
    else:
        second = second.scale(p)
    if not (reduce_mod(up.first.poly, w) == first and reduce_mod(up.second.poly, w) == second):
        raise IdentityViolation(
            f"projection compatibility failed at (p, a_p, n, i) = ({p}, {ap}, {n}, {i})"
        )
    return CheckReport(
        name="projection_compatibility",
        config={"p": p, "ap": ap, "n": n, "i": i},
    )
