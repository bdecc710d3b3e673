"""Truncated power series and polynomials: exact-int, numerator or PadicScalar coefficients.

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

from fractions import Fraction
from functools import reduce
from itertools import zip_longest
from typing import Iterable, Optional, Sequence, Tuple, Union

from .errors import InexactDivision, PrecisionExhausted, SerializationError
from .intcore import _phi_exact, omega_coeffs, phi_coeffs, poly_divmod, poly_mul
from .padics import PadicScalar, _json_int, _numerators_json, _operand, require_prime
from .trace import period_constants

ScalarLike = Union[int, Fraction, PadicScalar]


class PowerSeries:
    """Coefficients indexed 0..cap-1 over a common prime p.

    Integer numerators are stored as ``_nums`` = (xs, e, absprec), coefficient k
    being xs[k]/p^e known mod p^absprec, the flat absolute-precision form of
    Caruso-Roe-Vaccon (arXiv:1402.0291): exact integers as (xs, 0, None), read
    by ``_ints``, on which arithmetic between two such series runs the int core
    (intcore.py); a limit's x/p^e mod p^absprec (``from_numerators``) as they
    come.  ``to_json`` encodes the numerators directly, and ``coeffs`` builds
    their PadicScalars on first read for everything else.  Other series store
    PadicScalars.
    """

    __slots__ = ("p", "cap", "_coeffs", "_nums")

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
        self._coeffs = tuple(cs) if ints is None else None
        self._nums = None if ints is None else (tuple(cs), 0, None)

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
        out._nums = (tuple(xs[:cap]), e, absprec)
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
    def _ints(self) -> Optional[tuple]:
        """The coefficients of an exact-int series, _nums = (xs, 0, None), else None."""
        nums = self._nums
        return nums[0] if nums is not None and nums[1] == 0 and nums[2] is None else None

    @property
    def _raw(self) -> tuple:
        return self.coeffs if (ints := self._ints) is None else ints

    def _pair(self, other: "PowerSeries") -> tuple:
        """Both coefficient tuples: ints if both series are int-backed, else PadicScalars."""
        a, b = self._ints, other._ints
        return (self.coeffs, other.coeffs) if a is None or b is None else (a, b)

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
        if (ints := self._ints) is not None:
            return len(ints) - 1
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


# -- cyclotomic building blocks ----------------------------------------------


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
    if n < 0:
        raise ValueError("n must be >= 0")
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
