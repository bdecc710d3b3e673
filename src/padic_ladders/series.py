"""Truncated power series and polynomials over PadicScalar.

Includes the p-power cyclotomic polynomials Phi_j(1+X), omega_n, quotient
reduction against monic exact moduli (the level-n Iwasawa algebra is plain
polynomial remainder arithmetic), exact division, Gauss norms at radii
p^(-s), and the p-adic logarithm series.

A series with ``cap`` None is a polynomial: every untracked coefficient is
exactly zero.  A series with integer ``cap`` is known modulo X^cap; where an
operation needs coefficients past the cap it treats the series as the
polynomial spanned by its tracked coefficients.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import zip_longest
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import InexactDivision, PrecisionExhausted, SerializationError
from .padics import (PadicScalar, _json_int, _numerators_json, _operand, rational_valuation,
                     require_prime)
from .trace import ap_parity_value, period_constants

ScalarLike = Union[int, Fraction, PadicScalar]


class PowerSeries:
    """Coefficients indexed 0..cap-1 over a common prime p.

    Integer numerators are stored as ``_nums`` = (xs, e, absprec), coefficient k
    being xs[k]/p^e known mod p^absprec, the flat absolute-precision form of
    Caruso-Roe-Vaccon (arXiv:1402.0291): exact integers as (xs, 0, None), also
    kept as ``_ints``, on which arithmetic between two such series runs the int
    core below; a limit's x/p^e mod p^absprec (``from_numerators``) as they
    come.  ``to_json`` encodes the numerators directly, and ``coeffs`` builds
    their PadicScalars on first read for everything else.  Other series store
    PadicScalars.
    """

    __slots__ = ("p", "cap", "_ints", "_coeffs", "_nums")

    def __init__(self, p: int, coeffs: Iterable[ScalarLike], cap: Optional[int] = None):
        self.p = p
        cs = list(coeffs)
        ints = _exact_ints(p, cs)
        if ints is None:
            for k, c in enumerate(cs):
                if not isinstance(c, PadicScalar):
                    cs[k] = PadicScalar(p, c)
                elif c.p != p:
                    self._check_same(c)
        else:
            cs = ints
        if cap is not None:
            cap = int(cap)
            if cap < 0:
                raise ValueError("cap must be >= 0")
            del cs[cap:]
        # strip trailing exact zeros; inexact zeros stay tracked
        while cs and (cs[-1].is_exact_zero() if ints is None else not cs[-1]):
            cs.pop()
        self.cap = cap
        self._ints = None if ints is None else tuple(cs)
        self._coeffs = tuple(cs) if ints is None else None
        self._nums = None if ints is None else (self._ints, 0, None)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, p: int, cap: Optional[int] = None) -> "PowerSeries":
        return cls(p, [], cap)

    @classmethod
    def one(cls, p: int) -> "PowerSeries":
        return cls(p, [1])

    @classmethod
    def x_power(cls, p: int, k: int) -> "PowerSeries":
        return cls(p, [0] * k + [1])

    @classmethod
    def from_numerators(cls, p: int, xs: Sequence[int], e: int, absprec: int,
                        cap: Optional[int] = None) -> "PowerSeries":
        """sum_k xs[k]/p^e X^k below X^cap, each coefficient known mod p^absprec: the
        series of PadicScalar(p, Fraction(x, p**e), absprec), none of them built yet."""
        out = cls(p, [], cap)
        out._ints, out._nums = None, (tuple(xs[:cap]), e, absprec)
        return out

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[PadicScalar, ...]:
        if self._coeffs is None:
            xs, e, absprec = self._nums
            den = self.p ** e
            self._coeffs = tuple(PadicScalar(self.p, Fraction(x, den), absprec) for x in xs)
        return self._coeffs

    @property
    def _raw(self) -> tuple:
        return self.coeffs if self._ints is None else self._ints

    def _pair(self, other: "PowerSeries") -> tuple:
        """Both coefficient tuples: ints if both series are int-backed, else PadicScalars."""
        if self._ints is None or other._ints is None:
            return self.coeffs, other.coeffs
        return self._ints, other._ints

    def coefficient(self, k: int) -> PadicScalar:
        if self.cap is not None and k >= self.cap:
            raise PrecisionExhausted(f"coefficient {k} is beyond cap {self.cap}")
        return self.coefficient_raw(k)

    def coefficient_raw(self, k: int) -> PadicScalar:
        # like coefficient() but silently exact-zero past the cap; internal use
        raw = self._raw
        c = raw[k] if 0 <= k < len(raw) else 0
        return c if isinstance(c, PadicScalar) else PadicScalar(self.p, c)

    def degree(self) -> int:
        """Largest index with a nonzero tracked coefficient; -1 for zero."""
        if self._ints is not None:
            return len(self._ints) - 1
        for k in range(len(self.coeffs) - 1, -1, -1):
            if not self.coeffs[k].is_zero():
                return k
        return -1

    def is_zero(self) -> bool:
        return self.degree() < 0

    def is_exact(self) -> bool:
        return self._ints is not None or all(c.is_exact for c in self.coeffs)

    def _cap_min(self, other: "PowerSeries") -> Optional[int]:
        if self.cap is None or other.cap is None:
            return other.cap if self.cap is None else self.cap
        return min(self.cap, other.cap)

    # -- ring operations -----------------------------------------------------

    _check_same = PadicScalar._check_same  # the same ring check: both read only .p

    def _coerce(self, other):
        if isinstance(other, PowerSeries):
            return other
        if isinstance(other, (int, Fraction, PadicScalar)):
            return PowerSeries(self.p, [other])
        return NotImplemented

    @_operand
    def __add__(self, other):
        a, b = self._pair(other)
        out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
        return PowerSeries(self.p, out, self._cap_min(other))

    __radd__ = __add__

    @_operand
    def __sub__(self, other):
        a, b = self._pair(other)
        out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
        return PowerSeries(self.p, out, self._cap_min(other))

    @_operand
    def __rsub__(self, other):
        return other - self

    def __neg__(self):
        return PowerSeries(self.p, [-c for c in self._raw], self.cap)

    def scale(self, s: ScalarLike) -> "PowerSeries":
        if self._ints is None or type(s) is not int:
            s = s if isinstance(s, PadicScalar) else PadicScalar(self.p, s)
        return PowerSeries(self.p, [c * s for c in self._raw], self.cap)

    @_operand
    def mul(self, other: "PowerSeries", cap: Optional[int] = None) -> "PowerSeries":
        """Product truncated at X^cap (and at the operands' own caps)."""
        caps = [c for c in (self.cap, other.cap, cap) if c is not None]
        eff = min(caps) if caps else None
        a, b = self._pair(other)
        return PowerSeries(self.p, poly_mul(a, b, eff), eff)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PadicScalar)):
            return self.scale(other)
        if isinstance(other, PowerSeries):
            return self.mul(other)
        return NotImplemented

    __rmul__ = __mul__

    def truncate(self, cap: int) -> "PowerSeries":
        if self.cap is not None and self.cap <= cap:
            return self
        return PowerSeries(self.p, self._raw[:cap], cap)

    @_operand
    def congruent(self, other: "PowerSeries", k: int) -> bool:
        """Coefficientwise congruence mod p^k on the shared tracked range."""
        n = self._cap_min(other)
        pairs = zip_longest(self.coeffs[:n], other.coeffs[:n], fillvalue=PadicScalar.zero(self.p))
        return all(x.congruent(y, k) for x, y in pairs)

    @_operand
    def __eq__(self, other):
        a, b = self._pair(other)
        n = self._cap_min(other)
        return all(x == y for x, y in zip_longest(a[:n], b[:n], fillvalue=0))

    __hash__ = None

    def __repr__(self):
        terms = [f"({c!r})*X^{k}" for k, c in enumerate(self.coeffs) if not c.is_exact_zero()]
        tail = f" + O(X^{self.cap})" if self.cap is not None else ""
        return (" + ".join(terms) or "0") + tail

    # -- wire format -----------------------------------------------------------

    def to_json(self) -> dict:
        coeffs = [c.to_json() for c in self.coeffs] if self._nums is None else \
            _numerators_json(self.p, *self._nums)
        return {"p": self.p, "cap": self.cap, "coeffs": coeffs}

    @classmethod
    def from_json(cls, data: dict) -> "PowerSeries":
        p = _json_int(data, "p")
        cap = data.get("cap")
        cap = None if cap in (None, "inf") else _json_int(data, "cap", minimum=0)
        coeffs = data.get("coeffs")
        if not isinstance(coeffs, list):
            raise SerializationError(f"field 'coeffs' must be a JSON list, got {coeffs!r}")
        return cls(p, [PadicScalar.from_json(p, c) for c in coeffs], cap)


def _exact_ints(p: int, cs: list) -> Optional[list]:
    """The coefficients as ints when every one is an exact integer, else None."""
    if {int}.issuperset(map(type, cs)):
        return cs
    out = []
    for c in cs:
        if isinstance(c, PadicScalar):
            if c.absprec is not None or c.p != p:
                return None
            c = c.value
        if type(c) is not int and not (isinstance(c, Fraction) and c.denominator == 1):
            return None
        out.append(int(c))
    return out


# -- integer coefficient lists ------------------------------------------------
#
# Phi_j(1+X), omega_n and every finite-level ladder row are integer
# polynomials: lists of ints, index = degree, kept as ints by PowerSeries at
# the API boundary.  Truncation at X^cap, reduction of the coefficients mod an
# integer and reduction mod a monic polynomial are ring maps, so applying them
# after every step is sound.
#
# The schoolbook loops of poly_divmod and poly_mul use only +, - and * on the
# coefficients, so PowerSeries also runs them on its PadicScalar tuples; their
# ``if c:`` skips int zeros only (a PadicScalar is always truthy, and an exact
# zero term leaves the value and absprec of a sum as they are).  Int operands
# with _KRONECKER_MIN_LEN or more kept coefficients are packed into one int
# each for one big-int product (Kronecker substitution, arXiv:0712.4046); int
# division by a monic g of degree >= _RECIPROCAL_MIN_DEG takes two, with 1/rev(g).
# A ladder step reads Phi_j(1+X) as p + c*H_j (_phi_split): one product H_j*y
# and one pass a_p*x - p*y - c*(H_j*y) mod the step's modulus per row.

Poly = List[int]
IntRows = List[List[Poly]]  # [[theta_top, upsilon_top], [theta_bot, upsilon_bot]]
_KRONECKER_MIN_LEN = 32  # crossover measured in BENCH_7.json
_RECIPROCAL_MIN_DEG = 100  # poly_divmod's crossover, measured in BENCH_16.json


def _reduced(coeffs: Poly, mod: Optional[int]) -> Poly:
    return coeffs if mod is None else [c % mod for c in coeffs]


def _binomials(e: int, count: int) -> Poly:
    """C(e, k) for 0 <= k < min(count, e+1), by C(e, k+1) = C(e, k)(e-k)/(k+1)."""
    out, c = [], 1
    for k in range(min(count, e + 1)):
        out.append(c)
        c = c * (e - k) // (k + 1)
    return out


def phi_coeffs(p: int, j: int, cap: Optional[int] = None, mod: Optional[int] = None) -> Poly:
    """Phi_j(1+X) = sum_{t<p} (1+X)^(p^(j-1) t): monic, constant term p.

    With cap, exactly cap coefficients (zero past the degree); with mod, each
    coefficient reduced into [0, mod).
    """
    require_prime(p)
    if j < 1:
        raise ValueError("j must be >= 1")
    q = p ** (j - 1)
    out = [0] * (q * (p - 1) + 1 if cap is None else cap)
    for t in range(p):
        for k, c in enumerate(_binomials(q * t, len(out))):
            out[k] += c
    return _reduced(out, mod)


def _phi_split(p: int, j: int, cap: Optional[int], mod: Optional[int]):
    """(c, H_j, low) with Phi_j(1+X) = p + c H_j below X^cap and mod mod, H_j
    reduced into [0, low), low = mod/c or 1: (p^s, G_j) for a cap, mod = p^w
    and q = p^(j-1) >= cap, else (1, Phi_j - p).  There s = j-1-L >= 1, p^L <=
    cap-1 < p^(L+1), and C(tq, k) = p^(j-1-v_p(k)) t prod_{0<i<k} ((tq - i)/
    p^v_p(i)) / u(k!) (v_p(tq - i) = v_p(i) for i < cap, u the unit part): unit
    products mod low and a table (_split_tables), not thousand-bit binomials."""
    q, w = p ** (j - 1), round(math.log(mod, p)) if mod is not None and mod > 1 else 0
    if cap is None or mod is None or q < cap or p ** w != mod:
        return 1, [0] + phi_coeffs(p, j, cap, mod)[1:], mod  # Phi_j - p
    L, pv, table = _split_tables(p, cap, 1 << (w - 1).bit_length())
    shift, low = p ** (j - 1 - L), p ** max(w - (j - 1 - L), 0)
    if low == 1:
        return shift, [0] * cap, low
    sums = [0] * (cap - 1)  # k-1 -> sum_t t prod_{0<i<k} (tq - i)/p^v_p(i)
    for t in range(1, p):
        f, tq = t, t * q
        falling = [t] + [f := f * ((tq - i) // d) % low for i, d in zip(range(1, cap - 1), pv[1:])]
        sums = [s + g for s, g in zip(sums, falling)]
    return shift, [0] + [a * s % low for a, s in zip(table, sums)], low


@lru_cache(maxsize=32)
def _split_tables(p: int, cap: int, K: int) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """(L, pv, table) with p^L <= cap-1 < p^(L+1), pv[k] = p^v_p(k) and
    table[k-1] = p^(L-v_p(k))/u(k!) mod p^K for 0 < k < cap.  K is a power of two
    >= w, so a limit's levels (w up by one every second level) share few tables."""
    vs = [0] + [rational_valuation(i, p) for i in range(1, cap)]  # the largest is L
    L, pv, mod = max(vs), tuple(p ** v for v in vs), p ** K
    units = [i // pv[i] for i in range(cap - 1, 1, -1)]
    f = pow(math.prod(units), -1, mod)  # 1/u((cap-1)!)
    inv = [f] + [f := f * u % mod for u in units]  # 1/u(k!) for k = cap-1 down to 1
    return L, pv, tuple(p ** L // d * f % mod for d, f in zip(pv[1:], reversed(inv)))


@lru_cache(maxsize=64)
def omega_coeffs(p: int, n: int) -> Tuple[int, ...]:
    """omega_n(X) = (1+X)^(p^n) - 1, monic of degree p^n (cached per (p, n))."""
    require_prime(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    return (0, *_binomials(p ** n, p ** n + 1)[1:])


def poly_mul(a: Poly, b: Poly, cap: Optional[int] = None) -> Poly:
    """a*b below X^cap: min(cap, len(a)+len(b)-1) coefficients, none if a or b is []."""
    n = len(a) + len(b) - 1 if a and b else 0
    out = [0] * (n if cap is None else min(n, cap))
    a, b = a[: len(out)], b[: len(out)]
    if min(len(a), len(b)) >= _KRONECKER_MIN_LEN and type(a[0]) is type(b[0]) is int:
        return _kronecker_mul(a, b, len(out))
    for i, ai in enumerate(a):
        if ai:
            for k, bk in enumerate(b[: len(out) - i], i):
                out[k] += ai * bk
    return out


def _kronecker_mul(a: Poly, b: Poly, count: int) -> Poly:
    """The first count coefficients of a*b, from one product of packed ints."""
    (lo_a, hi_a), (lo_b, hi_b) = (min(a), max(a)), (min(b), max(b))
    bound = max(hi_a, -lo_a) * max(hi_b, -lo_b) * min(len(a), len(b))  # >= every |(a*b)_k|
    if not bound:
        return [0] * count
    width = (bound.bit_length() + 8) // 8  # bytes per slot: the bound plus a sign bit

    def pack(cs, signed):  # sum_k cs[k] * 2^(8*width*k); negative entries take a second pass
        if signed:
            return pack([max(c, 0) for c in cs], False) - pack([max(-c, 0) for c in cs], False)
        return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in cs]), "little")

    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")  # half in every slot
    packed = (pack(a, lo_a < 0) * pack(b, lo_b < 0) + offset) & ((1 << (8 * width * count)) - 1)
    buf = packed.to_bytes(width * count, "little")
    return [int.from_bytes(buf[k:k + width], "little") - half for k in range(0, len(buf), width)]


def poly_divmod(f: Poly, g: Poly, mod: Optional[int] = None) -> Tuple[Poly, Poly]:
    """Quotient and remainder of f by the monic polynomial g (g[-1] == 1).  Int f at most
    d = deg g >= _RECIPROCAL_MIN_DEG bits wide, with m >= _KRONECKER_MIN_LEN quotient terms,
    takes rev(q) = rev(f)/rev(g) mod X^m and r = f - q*g mod X^d (the same lists)."""
    d, m = len(g) - 1, len(f) - len(g) + 1
    if d >= _RECIPROCAL_MIN_DEG and m >= _KRONECKER_MIN_LEN and \
            all(type(c) is int for c in (*f, *g)) and max(map(abs, f)).bit_length() <= d:
        quot = poly_mul(f[::-1], _reversed_inverse(tuple(g), 1 << (m - 1).bit_length()), m)[::-1]
        return _reduced(quot, mod), _reduced([a - b for a, b in zip(f, poly_mul(quot, g, d))], mod)
    rem, quot = list(f), []
    while len(rem) > d:
        c = rem.pop()
        quot.append(c)
        if c and d:
            rem[-d:] = [r - c * t for r, t in zip(rem[-d:], g)]
    return _reduced(quot[::-1], mod), _reduced(rem, mod)


@lru_cache(maxsize=32)
def _reversed_inverse(g: Tuple[int, ...], m: int) -> Tuple[int, ...]:
    """1/rev(g) mod X^m (m a power of two) by Newton steps h <- h(2 - rev(g) h), von zur
    Gathen-Gerhard 9.1: if rev(g) h = 1 + X^k E mod X^2k, h gains -h E mod X^k."""
    rev, h = g[::-1], [1]
    while len(h) < m:
        e = poly_mul(rev, h, 2 * len(h))[len(h):]
        h += [-c for c in poly_mul(h, e, len(h))]
    return tuple(h)


def _lincomb(s: int, x: Poly, t: int, y: Poly, mod: Optional[int]) -> Poly:
    """s*x + t*y, as long as the longer operand, reduced mod mod in the same pass."""
    pairs = zip_longest(x, y, fillvalue=0)
    if mod is None:
        return [s * xk + t * yk for xk, yk in pairs]
    return [(s * xk + t * yk) % mod for xk, yk in pairs]


def _int_approx_congruent(p: int, a, b, prec: int) -> bool:
    """Whether the rows of a and b, (x, e) pairs read as x / p^e, agree mod p^prec."""
    for (x, ea), (y, eb) in zip(a, b):
        # x/p^ea = y/p^eb mod p^prec  <=>  x*p^eb - y*p^ea = 0 mod p^(prec+ea+eb)
        modulus = p ** (prec + ea + eb)
        sa, sb = p ** eb, p ** ea
        if any((xv * sa - yv * sb) % modulus for xv, yv in zip_longest(x, y, fillvalue=0)):
            return False
    return True


def phi_mul(p: int, j: int, y: Poly, cap: Optional[int] = None,
            mod: Optional[int] = None) -> Poly:
    """Phi_j(1+X) * y below X^cap and mod mod, in one pass: (p*y + c*(H_j*y))
    mod mod with Phi_j(1+X) = p + c H_j (_phi_split).  For mod = p^w, c = p^s
    and the product is p*y once s >= w; as s >= 1 and p | a_p, a ladder step
    then gains one p-adic digit."""
    c, h, low = _phi_split(p, j, cap, mod)
    return _lincomb(p, y[:cap], c, poly_mul(h, _reduced(y, low), cap), mod)


def append_factor(p: int, ap: int, rows: IntRows, k: int, cap: Optional[int] = None,
                  mod: Optional[int] = None) -> IntRows:
    """[[a_p, -Phi_k(1+X)], [1, 0]] applied to (top; bottom): the new top row is
    (a_p*x - p*y - c*(H_k*y)) mod mod, one pass per column (_phi_split)."""
    (top, bot), (c, h, low), new_top = rows, _phi_split(p, k, cap, mod), []
    for x, y in zip(top, bot):
        terms = zip_longest(x, y[:cap], poly_mul(h, _reduced(y, low), cap), fillvalue=0)
        new_top.append([ap * xk - p * yk - c * hk for xk, yk, hk in terms] if mod is None else
                       [(ap * xk - p * yk - c * hk) % mod for xk, yk, hk in terms])
    return [new_top, top]


def shift_matrix(p: int, ap: int, i: int, parity_flip: bool = False) -> Tuple[int, ...]:
    """[[s, t], [u, v]] taking index-1 rows to index i: the |i-1| steps
    [[a_p(idx), -1], [1, 0]] or their inverses.  parity_flip reads a_p(idx+1)
    for a_p(idx), a deliberate fault for tests."""
    off = 1 if parity_flip else 0
    s, t, u, v = 1, 0, 0, 1
    for idx in range(1, i):
        a = ap_parity_value(p, ap, idx + off)
        s, t, u, v = a * s - u, a * t - v, s, t
    for idx in range(1, i, -1):
        a = ap_parity_value(p, ap, idx - 1 + off)
        s, t, u, v = u, v, a * u - s, a * v - t
    return s, t, u, v


def shift_rows(p: int, ap: int, rows: IntRows, i: int, mod: Optional[int] = None,
               parity_flip: bool = False) -> IntRows:
    """Index-1 rows moved to index i by shift_matrix, mod mod: a Z-linear combination
    per coefficient, so capped or omega-reduced rows stay so."""
    if i == 1:
        return rows
    s, t, u, v = shift_matrix(p, ap, i, parity_flip)
    # After a single step one row is the old row itself, unreduced and unpadded.
    top, bot = rows
    new_top = bot if i == 0 else [_lincomb(s, x, t, y, mod) for x, y in zip(top, bot)]
    new_bot = top if i == 2 else [_lincomb(u, x, v, y, mod) for x, y in zip(top, bot)]
    return [new_top, new_bot]


def ladder_rows(p: int, ap: int, n: int, i: int, cap: Optional[int] = None,
                mod: Optional[int] = None) -> IntRows:
    """Rows (i, i-1) of the level-n ladder, built up from the identity rows."""
    rows: IntRows = [[[1], []], [[], [1]]]
    for k in range(1, n + 1):
        rows = append_factor(p, ap, rows, k, cap, mod)
    return shift_rows(p, ap, rows, i, mod)


# -- cyclotomic building blocks ----------------------------------------------


@lru_cache(maxsize=64)
def _phi_exact(p: int, j: int) -> Tuple[int, ...]:
    return tuple(phi_coeffs(p, j))


def phi(p: int, j: int) -> PowerSeries:
    """Phi_j(1+X) = sum_{t<p} (1+X)^(p^(j-1) t): monic, constant term p (cached per (p, j))."""
    return PowerSeries(p, _phi_exact(p, j))


def phi_truncated(p: int, j: int, cap: int) -> PowerSeries:
    """Phi_j(1+X) mod X^cap."""
    return PowerSeries(p, phi_coeffs(p, j, cap), cap)


def omega(p: int, n: int) -> PowerSeries:
    """omega_n(X) = (1+X)^(p^n) - 1, monic of degree p^n."""
    return PowerSeries(p, omega_coeffs(p, n))


def omega_congruent(p: int, ap: int, n: int, i: int) -> PowerSeries:
    """Product of phi(p, j) over 1 <= j <= n with j = i mod two_tilde."""
    tt = period_constants(p, ap).two_tilde
    factors = [phi_coeffs(p, j) for j in range(1, n + 1) if (j - i) % tt == 0]
    return PowerSeries(p, reduce(poly_mul, factors, [1]))


# -- spec-level operations -----------------------------------------------------


def series_arith(op: str, f: PowerSeries, g, cap: Optional[int]) -> PowerSeries:
    if op == "add":
        out = f + g
    elif op == "sub":
        out = f - g
    elif op == "mul":
        return f.mul(g, cap)
    elif op == "scalar_mul":
        out = f.scale(g)
    else:
        raise ValueError(f"unknown op {op!r}")
    return out.truncate(cap) if cap is not None else out


def divmod_monic(f: PowerSeries, g: PowerSeries):
    """Quotient and remainder of f against a monic exact polynomial g.

    f is taken as the polynomial spanned by its tracked coefficients;
    coefficient precision propagates through the subtractions.
    """
    f._check_same(g)
    d = g.degree()
    if d < 0:
        raise ValueError("modulus must be nonzero")
    if not g.is_exact():
        raise ValueError("modulus must be exact")
    if g._raw[d] != 1:
        raise ValueError("modulus must be monic")
    quot, rem = poly_divmod(*f._pair(g))
    return PowerSeries(f.p, quot), PowerSeries(f.p, rem)


def reduce_mod(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Canonical remainder of f modulo the monic exact polynomial g."""
    return divmod_monic(f, g)[1]


def eval_at_root(f: PowerSeries, j: int) -> PowerSeries:
    """f reduced mod Phi_j(1+X): the value f(zeta_{p^j} - 1) in Z_p[zeta_{p^j}]."""
    modulus = phi(f.p, j)
    if f.cap is not None and f.cap < modulus.degree():
        raise ValueError(f"cap {f.cap} is below deg Phi_{j} = {modulus.degree()}")
    return reduce_mod(f, modulus)


def exact_divide(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Quotient f/g when g divides f exactly (remainder zero at the tracked precision)."""
    quot, rem = divmod_monic(f, g)
    return _exact_quotient(quot, rem._raw)


def _exact_quotient(quot, rem: Sequence):
    """quot if rem is zero (a PadicScalar: at its precision), else InexactDivision."""
    for k, c in enumerate(rem):
        if c if type(c) is int else not c.is_zero():
            raise InexactDivision(f"remainder coefficient of X^{k} is {c!r}, not zero")
    return quot


def gauss_norm_log(f: PowerSeries, s) -> Optional[Fraction]:
    """log_p of the Gauss norm |f|_r at r = p^(-s): max_k(-v_p(a_k) - k*s).

    Zero-at-precision coefficients contribute their precision bound (an upper
    estimate of the true norm).  Returns None for a series with no nonzero
    tracked coefficient.
    """
    s = Fraction(s)
    if s <= 0:
        raise ValueError("s must be positive")
    return max((-Fraction(c.absprec if c.is_zero() else c.valuation()) - k * s
                for k, c in enumerate(f.coeffs) if not c.is_exact_zero()), default=None)


def log_series(p: int, cap: int) -> PowerSeries:
    """log_p(1+X) truncated: sum_{k=1}^{cap-1} (-1)^(k+1) X^k / k."""
    require_prime(p)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    coeffs = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, cap)]
    return PowerSeries(p, coeffs, cap)


class LambdaElement:
    """An element of the level-n quotient Z_p[X]/(omega_n), canonically reduced: the
    remainder of poly's coefficients by omega_n, the one reduction of the Coleman ops."""

    __slots__ = ("p", "level", "poly")

    def __init__(self, p: int, level: int, poly: PowerSeries, reduced: bool = False):
        if level < 0:
            raise ValueError("level must be >= 0")
        self.p = p
        self.level = level
        if not reduced:
            w = omega_coeffs(p, level)
            poly._check_same(self)  # _raw bypasses the operand guard's prime check
            poly = PowerSeries(p, poly_divmod(poly._raw, w)[1])
        self.poly = poly

    @classmethod
    def from_ints(cls, p: int, level: int, ints: Sequence) -> "LambdaElement":
        return cls(p, level, PowerSeries(p, ints))

    def __add__(self, other):
        self._check(other)
        return LambdaElement(self.p, self.level, self.poly + other.poly, reduced=True)

    def __sub__(self, other):
        self._check(other)
        return LambdaElement(self.p, self.level, self.poly - other.poly, reduced=True)

    def __neg__(self):
        return LambdaElement(self.p, self.level, -self.poly, reduced=True)

    def __mul__(self, other):
        if isinstance(other, LambdaElement):
            self._check(other)
            return LambdaElement(self.p, self.level, self.poly.mul(other.poly))
        return LambdaElement(self.p, self.level, self.poly * other)

    __rmul__ = __mul__

    def _check(self, other):
        self.poly._check_same(other.poly)
        if self.level != other.level:
            raise ValueError("mixed (p, level)")

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __eq__(self, other):
        if isinstance(other, LambdaElement):
            self._check(other)
            return self.poly == other.poly
        return self.poly == other

    __hash__ = None

    def __repr__(self):
        return f"LambdaElement(p={self.p}, level={self.level}, {self.poly!r})"

    def to_json(self) -> dict:
        out = self.poly.to_json()
        out["level"] = self.level
        return out

    @classmethod
    def from_json(cls, data: dict) -> "LambdaElement":
        return cls(_json_int(data, "p"), _json_int(data, "level", minimum=0),
                   PowerSeries.from_json(data))
