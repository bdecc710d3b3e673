"""Q[alpha] arithmetic the plain way, for the tests.

``FractionQuad`` keeps a + b*alpha as two ``Fraction`` coordinates and
reduces every product through alpha^2 = a_p*alpha - p.  Each operation is
written out on the rational coordinates, so it shares no arithmetic with
``padics.QuadExtScalar``, which keeps integer coordinates over one common
denominator; the two must agree on every value, on ``==`` and on ``repr``.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class FractionQuad:
    p: int
    ap: int
    a: Fraction
    b: Fraction

    def _new(self, a, b) -> "FractionQuad":
        return FractionQuad(self.p, self.ap, Fraction(a), Fraction(b))

    def __add__(self, other):
        return self._new(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return self._new(-self.a, -self.b)

    def __sub__(self, other):
        return self._new(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        bb = self.b * other.b
        return self._new(self.a * other.a - bb * self.p,
                         self.a * other.b + self.b * other.a + bb * self.ap)

    def conj(self) -> "FractionQuad":
        return self._new(self.a + self.b * self.ap, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a + self.a * self.b * self.ap + self.b * self.b * self.p

    def inverse(self) -> "FractionQuad":
        n, c = self.norm(), self.conj()
        return self._new(c.a / n, c.b / n)

    def pow_int(self, k: int) -> "FractionQuad":
        base, out = (self if k >= 0 else self.inverse()), self._new(1, 0)
        for _ in range(abs(k)):
            out = out * base
        return out

    def __repr__(self):
        return f"({self.a}) + ({self.b})*alpha[{self.p},{self.ap}]"
