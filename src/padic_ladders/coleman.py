"""Level-n linear algebra of the ladder map and its constructive inversion.

phi_n^i sends a pair (a, b) to (theta_i a + upsilon_i b,
theta_{i-1} a + upsilon_{i-1} b) in the quotient by omega_n.  Its kernel is
spanned by X * (upsilon_row, -theta_row) for two adjacent rows, and the map
is inverted by peeling one cyclotomic factor per level through exact
polynomial division; a division failure is a sound and complete witness that
the input is outside the image.  One kernel on coefficient lists does the arithmetic
(``_image``, ``_killed``, ``_peel``, ``_generators``, ``_projection``): the suite's checks
call it on int lists, and the public ops validate, run it on their inputs' coefficients
and build a LambdaPair for the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, zip_longest
from operator import mul
from typing import Tuple

from .errors import IdentityViolation, PrecisionExhausted, SerializationError
from .intcore import (_lincomb, _pack, _phi_exact, _unpack, ladder_rows, omega_coeffs,
                      poly_divmod, poly_mul, shift_rows)
from .padics import _json_int, rational_valuation
from .report import CheckReport
from .series import LambdaElement, PowerSeries, _exact_quotient
from .trace import period_constants

_PACKED_MAX_DEG = 32  # from here _image runs poly_mul and poly_divmod (BENCH_35.json)
_PACKED_MAX_WIDTH = 48  # slot bytes; wider inputs run them too, entry unchanged (BENCH_36.json)


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
        return cls(*(LambdaElement.from_ints(p, level, x) for x in (first, second)))

    def __sub__(self, other: "LambdaPair") -> "LambdaPair":
        return LambdaPair(self.first - other.first, self.second - other.second)

    def is_zero(self) -> bool:
        return self.first.is_zero() and self.second.is_zero()

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


def _check_level(p: int, ap: int, n: int) -> None:
    """The level guard of ladder, the Coleman ops and the kappa check: (p, a_p) and n >= 1."""
    period_constants(p, ap)
    if n < 1:
        raise ValueError("level n must be >= 1")


@lru_cache(maxsize=256)
def _rows_mod_omega(p: int, ap: int, n: int, i: int):
    """Ladder rows (i, i-1) at level n as int tuples: degrees < p^n, so already reduced
    mod omega_n.  The one source of exact finite-level rows (``ladder``, the kappa check,
    the Coleman ops): index 1 is built once per level, after the level guard; others shift
    its rows.  Tuples all the way down, so no reader can change a shared entry."""
    if i == 1:
        _check_level(p, ap, n)
        rows = ladder_rows(p, ap, n, 1)
    else:
        rows = shift_rows(p, ap, _rows_mod_omega(p, ap, n, 1), i)
    return tuple(tuple(map(tuple, row)) for row in rows)


@lru_cache(maxsize=256)
def _operator(p: int, ap: int, n: int, i: int) -> list:
    """[width, max |theta entry|, max |upsilon entry|, columns]: phi_n^i on Z^d x Z^d, d = p^n.
    Column j (d + j) is X^j (theta_i, theta_(i-1)) (upsilon's) mod omega_n by one shift and
    subtract; _image packs it at X = 2^(8 width) (0: not yet) and widens it: one per level."""
    rows, w = _rows_mod_omega(p, ap, n, i), omega_coeffs(p, n)
    d, cols = len(w) - 1, []
    for k in (0, 1):
        col = [list(row[k]) + [0] * (d - len(row[k])) for row in rows]
        for _ in range(d):
            cols.append(col[0] + col[1])
            col = [[c - x[-1] * g for c, g in zip([0, *x[:-1]], w)] for x in col]
    return [0, *(max(map(abs, chain(*cols[k * d:k * d + d]))) for k in (0, 1)), cols]


def _image(p: int, ap: int, n: int, i: int, a, b) -> list:
    """phi_n^i on coefficient lists: both images, each the remainder by omega_n.  Int inputs
    below _PACKED_MAX_DEG, reduced mod omega_n, are one dot product with _operator, whose slots
    hold d (|a| max|theta| + |b| max|upsilon|) >= each |coefficient| and a sign: exact."""
    rows, w = _rows_mod_omega(p, ap, n, i), omega_coeffs(p, n)  # the level guard first
    if (d := len(w) - 1) < _PACKED_MAX_DEG and {*map(type, a), *map(type, b)} <= {int}:
        ends = [min(d, max(len(t) and len(a) and len(t) + len(a) - 1,
                           len(u) and len(b) and len(u) + len(b) - 1)) for t, u in rows]
        x, y = (poly_divmod(v, w)[1] if len(v) > d else v for v in (a, b))
        op = _operator(p, ap, n, i)
        if (width := (d * (max([1, *map(abs, x)]) * op[1] + max([1, *map(abs, y)]) * op[2])
                      ).bit_length() // 8 + 1) <= _PACKED_MAX_WIDTH:  # the bound and a sign bit
            if width > op[0]:
                op[3], op[0] = [_pack(_unpack(c, op[0], 2 * d, True) if op[0] else c, width, True)
                                for c in op[3]], width
            out = _unpack(sum(map(mul, x, op[3])) + sum(map(mul, y, op[3][d:])), op[0], 2 * d, True)
            return [out[:ends[0]], out[d:d + ends[1]]]
    return [poly_divmod(_lincomb(1, poly_mul(t, a), 1, poly_mul(u, b), None), w)[1]
            for t, u in rows]


def _killed(p: int, ap: int, n: int, i: int, a, b) -> bool:  # phi_n^i(a, b) = 0, a, b ints
    return not any(map(any, _image(p, ap, n, i, a, b)))


def _peel(p: int, ap: int, n: int, u, v) -> tuple:
    """decompose's n exact divisions (u, v) -> (v, (a_p v - u)/Phi_j), j = n..1."""
    for j in range(n, 0, -1):
        u, v = v, _exact_quotient(*poly_divmod(_lincomb(ap, v, -1, u, None), _phi_exact(p, j)))
    return u, v


def _generators(p: int, ap: int, n: int, i: int) -> list:
    """X*(upsilon, -theta) for the rows i and i-1, reduced mod omega_n."""
    rows, w = _rows_mod_omega(p, ap, n, i), omega_coeffs(p, n)
    return [[poly_divmod(x, w)[1] for x in ([0, *u], [0, *(-c for c in t)])] for t, u in rows]


def _projection(p: int, ap: int, n: int, i: int, a, b) -> None:
    """projection_compatibility_check's identity; == reads PadicScalars at precision."""
    up, w = _image(p, ap, n + 1, i, a, b), omega_coeffs(p, n)
    down = _image(p, ap, n, i + 1, *(poly_divmod(x, w)[1] for x in (a, b)))
    if not all(x == s * y for top, bot, s in zip(up, down, (p, 1) if i % 2 else (1, p))
               for x, y in zip_longest(poly_divmod(top, w)[1], bot, fillvalue=0)):
        raise IdentityViolation(f"projection compatibility failed at (p, a_p, n, i) = "
                                f"({p}, {ap}, {n}, {i})")


def _pair(p: int, n: int, lists) -> LambdaPair:  # degrees < p^n (a peel's too): reduced
    return LambdaPair(*(LambdaElement(p, n, PowerSeries(p, x), reduced=True) for x in lists))


def _inputs(p: int, ap: int, n: int, i: int, *elements) -> list:  # the guards, then _raw
    _rows_mod_omega(p, ap, n, i)
    if any((e.p, e.level) != (p, n) for e in elements):
        raise ValueError("inputs must live at the requested (p, level)")
    return [e.poly._raw for e in elements]


def phi_apply(p: int, ap: int, n: int, i: int, v: LambdaPair) -> LambdaPair:
    """(theta_i a + upsilon_i b, theta_{i-1} a + upsilon_{i-1} b) mod omega_n."""
    return _pair(p, n, _image(p, ap, n, i, *_inputs(p, ap, n, i, v.first, v.second)))


def kernel_basis(p: int, ap: int, n: int, i: int = 1) -> KernelBasis:
    """Generators X*(upsilon_i, -theta_i) and X*(upsilon_{i-1}, -theta_{i-1})."""
    return KernelBasis(tuple(_pair(p, n, g) for g in _generators(p, ap, n, i)))


def kernel_member(p: int, ap: int, n: int, v: LambdaPair) -> bool:
    """Membership in ker(phi_n): the index-1 map sends v to (0, 0) exactly."""
    return phi_apply(p, ap, n, 1, v).is_zero()


def decompose(p: int, ap: int, n: int, P1: LambdaElement, P0: LambdaElement) -> LambdaPair:
    """Invert the index-1 map: find (theta, upsilon) with phi(theta, upsilon) = (P1, P0).

    Peels the cyclotomic factors from the outside in: at step j the pair
    (u, v) becomes (v, (a_p v - u)/Phi_j), dividing canonical lifts exactly.
    InexactDivision from any step witnesses that the input is not in the
    image.  The result is one representative of the kernel coset.

    Exact inputs (PowerSeries.is_exact) are not rebuilt: a step, like exact_divide,
    accepts only a zero remainder, so Phi_j v' = a_p v - u and [[a_p, -Phi_j], [1, 0]]
    undoes each step; their product maps the output onto (P1, P0) before reduction
    mod omega_n, so after it too.  An inexact input is rebuilt: a remainder zero only at
    its precision can leave the rebuild off the input (seen at p = 2): PrecisionExhausted.
    """
    out = _pair(p, n, _peel(p, ap, n, *_inputs(p, ap, n, 1, P1, P0)))
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
    return [poly_divmod([0] + s, w, mod)[1] for theta, upsilon in rows for s in (upsilon, theta)]


def projection_compatibility_check(p: int, ap: int, n: int, i: int, v: LambdaPair) -> CheckReport:
    """Level n+1 -> n compatibility under the diagonal p scalings.

    The reduced level-(n+1) image equals the level-n image at index i+1 with
    diag(p, 1) applied for odd i (diag(1, p) for even i), exactly: the
    diagonal 1/p scalings of the level-(n+1) side, moved across.
    """
    period_constants(p, ap)
    if v.level != n + 1:
        raise ValueError("input pair must live at level n+1")
    _projection(p, ap, n, i, *_inputs(p, ap, n + 1, i, v.first, v.second))
    return CheckReport("projection_compatibility", {"p": p, "ap": ap, "n": n, "i": i})
