"""Exact scalar arithmetic: p-adic rationals with precision intervals and Q[alpha].

A PadicScalar, the one scalar with a precision, is exact (absprec None, read
"infinite precision") or known modulo p^absprec; its value is an exact
rational.  Precision propagates conservatively: add/sub take the minimum of
the operand precisions, mul/div shift by valuations.  Nothing ever raises
precision.

The quadratic extension adjoins a symbolic root alpha of X^2 - a_p*X + p;
every product is reduced through that relation, and no embedding of alpha
into a completed field is ever chosen.  Its scalars (alpha, conj(alpha), the
beta_m) are exact and lie in Z[alpha][1/p], so QuadExtScalar keeps integer
coordinates over one common denominator (H. Cohen, GTM 138, 4.2).
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from typing import List, Optional, Sequence, Union

from .errors import (
    DivisionByZero,
    MixedExtension,
    NonPrimeModulus,
    PrecisionExhausted,
    SerializationError,
)

RationalLike = Union[int, Fraction]


def is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def require_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    return p


def rational_valuation(x: Fraction, p: int) -> int:
    """v_p of a nonzero rational."""
    if x == 0:
        raise ValueError("valuation of zero is undefined here")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _operand(method):
    """Guard a binary method of an exact value type: coerce the other operand with the
    class's _coerce, then reject another prime or extension with its _check_same.  On a
    foreign operand an operator returns NotImplemented and a named method raises TypeError."""
    dunder = method.__name__.startswith("__")

    @functools.wraps(method)
    def guarded(self, other, *args, **kwargs):
        given, other = other, self._coerce(other)
        if other is NotImplemented:
            if dunder:
                return NotImplemented
            raise TypeError(f"{method.__qualname__}: unsupported operand {type(given).__name__}")
        self._check_same(other)
        return method(self, other, *args, **kwargs)

    return guarded


class PadicScalar:
    """An element of Q_p known to a stated absolute precision.

    ``value`` is an exact rational representative; ``absprec`` is either None
    (the value is exact) or an integer k meaning the element is only known
    modulo p^k.  An element indistinguishable from 0 at its precision is
    stored with value 0 (the canonical zero-at-precision), so
    v_p(value) < absprec whenever value != 0.
    """

    __slots__ = ("p", "value", "absprec")

    def __init__(self, p: int, value: RationalLike, absprec: Optional[int] = None):
        self.p = p
        v = value if isinstance(value, Fraction) else Fraction(value)
        if absprec is not None:
            absprec = int(absprec)
            if v != 0 and rational_valuation(v, p) >= absprec:
                v = Fraction(0)
        self.value = v
        self.absprec = absprec

    # -- constructors ------------------------------------------------------

    @classmethod
    def exact(cls, p: int, value: RationalLike) -> "PadicScalar":
        return cls(p, value, None)

    @classmethod
    def zero(cls, p: int, absprec: Optional[int] = None) -> "PadicScalar":
        return cls(p, 0, absprec)

    @classmethod
    def one(cls, p: int) -> "PadicScalar":
        return cls(p, 1, None)

    # -- predicates --------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.absprec is None

    def is_zero(self) -> bool:
        """True when the canonical representative is 0 (possibly only at precision)."""
        return self.value == 0

    def is_exact_zero(self) -> bool:
        return self.value == 0 and self.absprec is None

    # -- basic arithmetic ---------------------------------------------------

    def _check_same(self, other: "PadicScalar"):
        if self.p != other.p:
            raise MixedExtension(f"mixed primes {self.p} and {other.p}")

    def _coerce(self, other) -> "PadicScalar":
        if isinstance(other, PadicScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return PadicScalar(self.p, other, None)
        return NotImplemented

    def _min_absprec(self, other: "PadicScalar") -> Optional[int]:
        if self.absprec is None:
            return other.absprec
        if other.absprec is None:
            return self.absprec
        return min(self.absprec, other.absprec)

    @_operand
    def __add__(self, other):
        return PadicScalar(self.p, self.value + other.value, self._min_absprec(other))

    __radd__ = __add__

    @_operand
    def __sub__(self, other):
        return PadicScalar(self.p, self.value - other.value, self._min_absprec(other))

    @_operand
    def __rsub__(self, other):
        return other - self

    def __neg__(self):
        return PadicScalar(self.p, -self.value, self.absprec)

    def _val_floor(self) -> Optional[int]:
        # Lower bound on the valuation; None means +infinity (exact zero).
        if self.value != 0:
            return rational_valuation(self.value, self.p)
        return self.absprec  # None for exact zero

    @_operand
    def __mul__(self, other):
        if self.is_exact_zero() or other.is_exact_zero():
            return PadicScalar(self.p, 0, None)
        candidates = []
        if self.absprec is not None:
            vo = other._val_floor()
            if vo is not None:
                candidates.append(self.absprec + vo)
        if other.absprec is not None:
            vs = self._val_floor()
            if vs is not None:
                candidates.append(other.absprec + vs)
        absprec = min(candidates) if candidates else None
        return PadicScalar(self.p, self.value * other.value, absprec)

    __rmul__ = __mul__

    @_operand
    def __truediv__(self, other):
        if other.value == 0:
            raise DivisionByZero(f"division by {other!r}")
        vo = rational_valuation(other.value, self.p)
        candidates = []
        if self.absprec is not None:
            candidates.append(self.absprec - vo)
        if other.absprec is not None:
            vs = self._val_floor()
            if vs is not None:
                candidates.append(other.absprec + vs - 2 * vo)
        absprec = min(candidates) if candidates else None
        return PadicScalar(self.p, self.value / other.value, absprec)

    @_operand
    def __rtruediv__(self, other):
        return other / self

    @_operand
    def __eq__(self, other):
        d = self.value - other.value
        k = self._min_absprec(other)
        if d == 0:
            return True
        if k is None:
            return False
        return rational_valuation(d, self.p) >= k

    __hash__ = None  # equality is at-precision, too fuzzy to hash

    def __repr__(self):
        if self.absprec is None:
            return f"{self.value}"
        return f"{self.value} + O({self.p}^{self.absprec})"

    # -- p-adic structure ----------------------------------------------------

    def valuation(self):
        """v_p of the element; math.inf for exact zero.

        Raises PrecisionExhausted for a zero-at-finite-precision, whose true
        valuation is only bounded below by absprec.
        """
        if self.value != 0:
            return rational_valuation(self.value, self.p)
        if self.absprec is None:
            return math.inf
        raise PrecisionExhausted(
            f"value is 0 mod {self.p}^{self.absprec}; valuation undetermined"
        )

    def reduce(self) -> "PadicScalar":
        """Canonical small representative: unit part reduced mod p^(absprec - v).

        Exact scalars are returned unchanged.  Sound because any representative
        congruent modulo p^absprec denotes the same interval.
        """
        if self.absprec is None or self.value == 0:
            return self
        p = self.p
        v = rational_valuation(self.value, p)
        unit = self.value / Fraction(p) ** v
        modulus = p ** (self.absprec - v)
        num = unit.numerator % modulus
        den_inv = pow(unit.denominator, -1, modulus)
        red = (num * den_inv) % modulus
        return PadicScalar(p, Fraction(red) * Fraction(p) ** v, self.absprec)

    @_operand
    def congruent(self, other, k: int) -> bool:
        """True when self - other has valuation >= k at the tracked precision."""
        d = self.value - other.value
        if d == 0:
            return True
        return rational_valuation(d, self.p) >= k

    # -- wire format ---------------------------------------------------------

    def to_json(self) -> dict:
        """Encode as {"num": decimal-string, "den_pow": int, "absprec": int|"inf"}.

        Only p-power denominators are encodable; an inexact scalar with a unit
        factor in its denominator is first replaced by its canonical reduced
        representative (same residue class), an exact one cannot be encoded.
        """
        x, d, den_pow = self, self.value.denominator, 0
        while d % x.p == 0:
            d //= x.p
            den_pow += 1
        if d != 1:
            if x.absprec is None:
                raise SerializationError(
                    f"{x!r} has a unit denominator {d}; not encodable exactly"
                )
            x = x.reduce()
            den_pow = max(0, -rational_valuation(x.value, x.p))
        assert x.value.denominator == x.p ** den_pow
        return {
            "num": str(x.value.numerator),
            "den_pow": den_pow,
            "absprec": "inf" if x.absprec is None else x.absprec,
        }

    @classmethod
    def from_json(cls, p: int, data: dict) -> "PadicScalar":
        num = _json_int(data, "num")
        den_pow = _json_int(data, "den_pow", 0, minimum=0)
        absprec = data.get("absprec", "inf")
        absprec = None if absprec in ("inf", None) else _json_int(data, "absprec")
        return cls(p, Fraction(num, p ** den_pow), absprec)


def _numerators_json(p: int, xs: Sequence[int], e: int, absprec: Optional[int]) -> List[dict]:
    """PadicScalar(p, Fraction(x, p**e), absprec).to_json() for each x, on ints: x/p^d
    in lowest terms (one gcd with p^e), then 0 where v_p(x/p^d) >= absprec."""
    den, pa = p ** e, p ** absprec if absprec is not None and absprec > 0 else 0
    exps, out = {p ** k: k for k in range(e + 1)}, []
    for x in xs:
        g = math.gcd(x, den)
        x, d = x // g, e - exps[g]
        if x and absprec is not None and (absprec <= -d or not d and x % pa == 0):
            x = 0  # zero at precision
        out.append({"num": str(x), "den_pow": d if x else 0,
                    "absprec": "inf" if absprec is None else absprec})
    return out


def _json_int(data: dict, key: str, default=None, minimum=None) -> int:
    """An integer field (JSON integer or decimal string) of the JSON object data, >= minimum."""
    if not isinstance(data, dict):
        raise SerializationError(f"expected a JSON object with field {key!r}, got {data!r}")
    value = data.get(key, default)
    try:  # a string is ASCII decimal only: no "+5", "1_000", " 7 " or non-ASCII digits
        if type(value) is int or isinstance(value, str) and re.fullmatch("-?[0-9]+", value):
            out = int(value)
            if minimum is None or out >= minimum:
                return out
            raise SerializationError(f"{key} must be >= {minimum}, got {out}")
    except ValueError:
        pass
    raise SerializationError(f"field {key!r} must be an integer, got {value!r}")


# -- spec-level operation wrappers -------------------------------------------


def padic_from_rational(p: int, num: int, den_pow: int, absprec=None) -> PadicScalar:
    """Build num / p^den_pow known modulo p^absprec (None or math.inf: exact)."""
    require_prime(p)
    if den_pow < 0:
        raise ValueError("den_pow must be >= 0")
    absprec = None if absprec is None or absprec is math.inf else int(absprec)
    return PadicScalar(p, Fraction(num, p ** den_pow), absprec)


def padic_arith(op: str, x: PadicScalar, y: PadicScalar) -> PadicScalar:
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        return x / y
    raise ValueError(f"unknown op {op!r}")


def padic_valuation(x: PadicScalar):
    return x.valuation()


class QuadExtScalar:
    """(na + nb*alpha) / d in Q[alpha], alpha^2 = a_p*alpha - p, on ints with
    gcd(na, nb, d) = 1 and d > 0: one common denominator, so equal values have equal
    coordinates.  ``a`` and ``b`` read the rational coordinates as Fractions."""

    __slots__ = ("p", "ap", "na", "nb", "d")

    def __init__(self, p: int, ap: int, a: RationalLike, b: RationalLike):
        if not isinstance(a, (int, Fraction)) or not isinstance(b, (int, Fraction)):
            raise TypeError(f"Q[alpha] coordinates must be int or Fraction, got {a!r}, {b!r}")
        a, b = Fraction(a), Fraction(b)
        d = math.lcm(a.denominator, b.denominator)  # coprime to the scaled numerators
        self.p, self.ap, self.na, self.nb, self.d = (
            p, ap, a.numerator * d // a.denominator, b.numerator * d // b.denominator, d)

    def _new(self, na: int, nb: int, d: int) -> "QuadExtScalar":
        """(na + nb*alpha) / d for ints, d != 0, in lowest terms by one gcd."""
        g = math.gcd(na, nb, d) if d > 0 else -math.gcd(na, nb, d)
        x = object.__new__(QuadExtScalar)
        x.p, x.ap, x.na, x.nb, x.d = self.p, self.ap, na // g, nb // g, d // g
        return x

    a = property(lambda self: Fraction(self.na, self.d))
    b = property(lambda self: Fraction(self.nb, self.d))

    @classmethod
    def from_rationals(cls, p, ap, a=0, b=0) -> "QuadExtScalar":
        return cls(p, ap, a, b)

    @classmethod
    def alpha(cls, p, ap) -> "QuadExtScalar":
        return cls.from_rationals(p, ap, 0, 1)

    @classmethod
    def alpha_bar(cls, p, ap) -> "QuadExtScalar":
        """The conjugate root a_p - alpha (= p/alpha)."""
        return cls.from_rationals(p, ap, ap, -1)

    @classmethod
    def one(cls, p, ap) -> "QuadExtScalar":
        return cls.from_rationals(p, ap, 1, 0)

    @classmethod
    def zero(cls, p, ap) -> "QuadExtScalar":
        return cls.from_rationals(p, ap, 0, 0)

    def _check_same(self, other: "QuadExtScalar"):
        if (self.p, self.ap) != (other.p, other.ap):
            raise MixedExtension(
                f"mixed extensions (p, a_p) = ({self.p}, {self.ap}) "
                f"vs ({other.p}, {other.ap})"
            )

    def _coerce(self, other):
        if isinstance(other, QuadExtScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExtScalar(self.p, self.ap, other, 0)
        return NotImplemented

    @_operand
    def __add__(self, other):
        d1, d2 = self.d, other.d
        return self._new(self.na * d2 + other.na * d1, self.nb * d2 + other.nb * d1, d1 * d2)

    __radd__ = __add__

    @_operand
    def __sub__(self, other):
        return self + -other

    @_operand
    def __rsub__(self, other):
        return other - self

    def __neg__(self):
        return self._new(-self.na, -self.nb, self.d)

    @_operand
    def __mul__(self, other):
        # (a1 + b1 A)(a2 + b2 A) with A^2 = ap*A - p
        a1, b1, a2, b2 = self.na, self.nb, other.na, other.nb
        bb = b1 * b2
        return self._new(a1 * a2 - bb * self.p, a1 * b2 + b1 * a2 + bb * self.ap, self.d * other.d)

    __rmul__ = __mul__

    def conj(self) -> "QuadExtScalar":
        """a + b*alpha -> (a + a_p b) - b*alpha."""
        return self._new(self.na + self.nb * self.ap, -self.nb, self.d)

    def norm(self) -> Fraction:
        """x * conj(x) as a rational: a^2 + a_p a b + p b^2."""
        na, nb = self.na, self.nb
        return Fraction(na * na + na * nb * self.ap + nb * nb * self.p, self.d * self.d)

    def inverse(self) -> "QuadExtScalar":
        n = self.norm()
        if n == 0:
            raise DivisionByZero(f"{self!r} is not invertible")
        c = self.conj()  # conj(x) / norm(x)
        return self._new(c.na * n.denominator, c.nb * n.denominator, c.d * n.numerator)

    @_operand
    def __truediv__(self, other):
        return self * other.inverse()

    def pow_int(self, k: int) -> "QuadExtScalar":
        """Integer power, negative exponents through alpha^-1 = conj/p."""
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = self._new(1, 0, 1)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @_operand
    def __eq__(self, other):
        return self.na == other.na and self.nb == other.nb and self.d == other.d

    __hash__ = None

    def __repr__(self):
        return f"({self.a}) + ({self.b})*alpha[{self.p},{self.ap}]"


def quadext_arith(op: str, x: QuadExtScalar, y: QuadExtScalar) -> QuadExtScalar:
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    raise ValueError(f"unknown op {op!r}")


def quadext_conj(x: QuadExtScalar) -> QuadExtScalar:
    return x.conj()
