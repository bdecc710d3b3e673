"""Scalar layer: p-adic rationals with precision, and the quadratic extension."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from padic_ladders.errors import (
    DivisionByZero,
    MixedExtension,
    NonPrimeModulus,
    PrecisionExhausted,
    SerializationError,
)
from padic_ladders.padics import (
    PadicScalar,
    QuadExtScalar,
    padic_arith,
    padic_from_rational,
    padic_valuation,
    quadext_arith,
    quadext_conj,
    rational_valuation,
)
from quadext_reference import FractionQuad

SUPERSINGULAR_PAIRS = [(2, 0), (2, 2), (2, -2), (3, 0), (3, 3), (3, -3), (5, 0), (7, 0)]


def test_from_rational_identity_case():
    x = padic_from_rational(3, 1, 0, 5)
    assert x.value == 1 and x.absprec == 5
    assert repr(x) == "1 + O(3^5)"


def test_from_rational_pure_p_power():
    x = padic_from_rational(3, 1, 1, 5)
    assert x.value == Fraction(1, 3)
    assert padic_valuation(x) == -1


def test_from_rational_exact_six():
    x = padic_from_rational(2, 6, 0, None)
    assert x.is_exact and x.value == 6
    assert padic_valuation(x) == 1


def test_from_rational_rejects_nonprime():
    with pytest.raises(NonPrimeModulus):
        padic_from_rational(4, 1, 0, None)


def test_mul_exact_inverse():
    x = PadicScalar.exact(3, Fraction(1, 3))
    assert padic_arith("mul", x, PadicScalar.exact(3, 3)) == PadicScalar.one(3)


def test_add_below_precision_retains_value():
    x = padic_from_rational(3, 1, 0, 2)
    y = PadicScalar.exact(3, 9)
    z = padic_arith("add", x, y)
    assert z.absprec == 2
    assert z.value == 10  # retained, not reduced
    assert z == padic_from_rational(3, 1, 0, 2)  # equal at precision


def test_div_exact():
    z = padic_arith("div", PadicScalar.exact(2, 6), PadicScalar.exact(2, 2))
    assert z.value == 3 and padic_valuation(z) == 0


def test_div_by_zero():
    with pytest.raises(DivisionByZero):
        padic_arith("div", PadicScalar.one(3), PadicScalar.zero(3))
    with pytest.raises(DivisionByZero):
        padic_arith("div", PadicScalar.one(3), PadicScalar.zero(3, absprec=4))


def test_valuation_examples():
    assert padic_valuation(PadicScalar.exact(2, 6)) == 1
    assert padic_valuation(PadicScalar.exact(3, Fraction(1, 3))) == -1
    assert padic_valuation(PadicScalar.exact(5, 0)) == math.inf


def test_valuation_of_inexact_zero_raises():
    with pytest.raises(PrecisionExhausted):
        padic_valuation(PadicScalar(3, 9, 2))


def test_zero_at_precision_is_canonical():
    x = PadicScalar(3, 9, 2)  # 9 = 0 mod 3^2
    assert x.value == 0 and x.absprec == 2


def test_mixed_primes_rejected():
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq,
               lambda x, y: x.congruent(y, 2)):
        with pytest.raises(MixedExtension, match="mixed primes 3 and 5"):
            op(PadicScalar.one(3), PadicScalar.one(5))


def test_foreign_operand_to_named_method_is_a_type_error():
    # a named method must not hand back the (truthy) NotImplemented of an operator
    with pytest.raises(TypeError):
        PadicScalar.one(3).congruent("1", 2)
    assert PadicScalar.one(3).__eq__("1") is NotImplemented


def test_precision_propagation_mul():
    x = PadicScalar(3, 3, 5)  # v=1, known mod 3^5
    y = PadicScalar(3, Fraction(1, 3), 2)  # v=-1, known mod 3^2
    z = x * y
    assert z.absprec == min(5 + (-1), 2 + 1)  # = 3


def test_reduce_canonicalizes_unit_denominator():
    x = PadicScalar(3, Fraction(1, 2), 4)
    r = x.reduce()
    assert r == x
    assert r.value.denominator == 1  # 1/2 = 41 mod 81


def test_ring_axioms_random_exact():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        xs = [
            PadicScalar.exact(p, Fraction(rng.randint(-50, 50), p ** rng.randint(0, 3)))
            for _ in range(3)
        ]
        a, b, c = xs
        assert ((a + b) + c).value == (a + (b + c)).value
        assert ((a * b) * c).value == (a * (b * c)).value
        assert (a * (b + c)).value == (a * b + a * c).value


def test_valuation_of_square():
    rng = random.Random(11)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        v = Fraction(rng.randint(1, 60), p ** rng.randint(0, 4))
        x = PadicScalar.exact(p, v * rng.choice([1, -1]))
        assert padic_valuation(x * x) == 2 * padic_valuation(x)


def test_serialization_round_trip():
    x = padic_from_rational(3, 22, 2, 7)
    data = x.to_json()
    assert data == {"num": "22", "den_pow": 2, "absprec": 7}
    assert PadicScalar.from_json(3, data) == x
    e = PadicScalar.exact(2, 5)
    assert PadicScalar.from_json(2, e.to_json()) == e
    assert PadicScalar.from_json(3, {"num": "-0042", "den_pow": "1"}) == PadicScalar.exact(3, -14)
    # the wire format's integer strings are ASCII decimal, as str(int) writes them
    for bad in ("1_000", "+5", " 7 ", "5\n", "--5", "-", "", "\u0665", "\uff17", "1" * 5000):
        for key in ("num", "den_pow", "absprec"):
            with pytest.raises(SerializationError, match=f"field '{key}' must be an integer"):
                PadicScalar.from_json(3, {"num": "1", key: bad})


@st.composite
def _scalar(draw, p):
    """An exact or inexact scalar; values with p-power and unit denominators."""
    den = p ** draw(st.integers(0, 2)) * draw(st.sampled_from((1, 1, p + 1)))
    value = Fraction(draw(st.integers(-500, 500)), den)
    return PadicScalar(p, value, draw(st.none() | st.integers(-2, 6)))


@st.composite
def _representative(draw, x):
    """Any rational in the interval of x: value + t * p^absprec with t p-integral."""
    if x.absprec is None:
        return x.value
    t = Fraction(draw(st.integers(-40, 40)), draw(st.sampled_from((1, x.p + 1))))
    return x.value + t * Fraction(x.p) ** x.absprec


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scalar_arithmetic_is_sound(data):
    """Representatives of the operands land in the computed interval of add/sub/mul/div."""
    p = data.draw(st.sampled_from((2, 3, 5)))
    x, y = data.draw(_scalar(p)), data.draw(_scalar(p))
    op = data.draw(st.sampled_from(("add", "sub", "mul", "div")))
    assume(op != "div" or y.value != 0)
    z = padic_arith(op, x, y)
    rx, ry = data.draw(_representative(x)), data.draw(_representative(y))
    d = getattr(operator, {"div": "truediv"}.get(op, op))(rx, ry) - z.value
    assert d == 0 or (z.absprec is not None and rational_valuation(d, p) >= z.absprec), (
        op, x, y, rx, ry, z)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_congruent_answers_only_within_the_pair_precision(data):
    """congruent raises PrecisionExhausted exactly when k exceeds the least absprec of the
    pair (exact counts as infinite); otherwise its answer holds for any lifts of both."""
    p = data.draw(st.sampled_from((2, 3, 5)))
    zeros = (st.none() | st.integers(-2, 6)).map(lambda a: PadicScalar.zero(p, a))
    scalar = _scalar(p) | zeros  # exact or inexact, an exact zero or a zero at precision
    x, y = data.draw(scalar), data.draw(scalar)
    k = data.draw(st.integers(-2, 10))
    least = min((c.absprec for c in (x, y) if c.absprec is not None), default=math.inf)
    if k > least:
        with pytest.raises(PrecisionExhausted, match=f"^congruence mod {p}\\^{k} of a scalar "
                                                     f"known mod {p}\\^{least}$"):
            x.congruent(y, k)
        return
    d = data.draw(_representative(x)) - data.draw(_representative(y))
    assert x.congruent(y, k) == (d == 0 or rational_valuation(d, p) >= k), (x, y, k, d)


# -- quadratic extension -------------------------------------------------------


def test_alpha_square_reduction():
    a = QuadExtScalar.alpha(2, 2)
    sq = quadext_arith("mul", a, a)
    assert sq == QuadExtScalar.from_rationals(2, 2, -2, 2)


def test_alpha_norm_is_p():
    for (p, ap) in [(2, 2), (3, -3)]:
        a = QuadExtScalar.alpha(p, ap)
        assert a * quadext_conj(a) == QuadExtScalar.from_rationals(p, ap, p, 0)


def test_conj_examples():
    a = QuadExtScalar.alpha(2, 2)
    assert quadext_conj(a) == QuadExtScalar.from_rationals(2, 2, 2, -1)
    one = QuadExtScalar.one(3, 3)
    assert quadext_conj(one) == one
    a3 = QuadExtScalar.alpha(3, 3)
    assert quadext_conj(a3) * a3 == QuadExtScalar.from_rationals(3, 3, 3, 0)


def test_mixed_extension_rejected():
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq):
        with pytest.raises(MixedExtension, match=r"\(p, a_p\) = \(2, 2\) vs \(2, -2\)"):
            op(QuadExtScalar.alpha(2, 2), QuadExtScalar.alpha(2, -2))
    with pytest.raises(MixedExtension):
        quadext_arith("add", QuadExtScalar.alpha(2, 2), QuadExtScalar.alpha(3, 0))


def test_conj_involution_and_multiplicative():
    rng = random.Random(13)
    for _ in range(100):
        p, ap = rng.choice([(2, 2), (2, -2), (3, 3), (3, -3), (3, 0)])
        x = QuadExtScalar.from_rationals(p, ap, rng.randint(-9, 9), rng.randint(-9, 9))
        y = QuadExtScalar.from_rationals(p, ap, rng.randint(-9, 9), rng.randint(-9, 9))
        assert quadext_conj(quadext_conj(x)) == x
        assert quadext_conj(x * y) == quadext_conj(x) * quadext_conj(y)


def test_alpha_trace_and_norm_all_pairs():
    for (p, ap) in SUPERSINGULAR_PAIRS:
        a = QuadExtScalar.alpha(p, ap)
        abar = QuadExtScalar.alpha_bar(p, ap)
        assert a + abar == QuadExtScalar.from_rationals(p, ap, ap, 0)
        assert a * abar == QuadExtScalar.from_rationals(p, ap, p, 0)


def test_alpha_negative_powers():
    a = QuadExtScalar.alpha(3, 3)
    assert a.pow_int(-1) * a == QuadExtScalar.one(3, 3)
    assert a.pow_int(-4) * a.pow_int(4) == QuadExtScalar.one(3, 3)


def test_alpha_two_tilde_power_identity():
    # alpha^two_tilde = -p^one_tilde, the scalar shadow of the matrix identity
    from padic_ladders.trace import period_constants

    for (p, ap) in SUPERSINGULAR_PAIRS:
        c = period_constants(p, ap)
        lhs = QuadExtScalar.alpha(p, ap).pow_int(c.two_tilde)
        assert lhs == QuadExtScalar.from_rationals(p, ap, -(Fraction(p) ** c.one_tilde), 0)


def test_quadext_scalars_are_exact_rationals():
    for (p, ap) in SUPERSINGULAR_PAIRS:
        x = QuadExtScalar.alpha(p, ap).pow_int(-3) + Fraction(1, 2)
        assert type(x.a) is type(x.b) is Fraction
        assert x.norm() == x.a * x.a + x.a * x.b * ap + x.b * x.b * p
        assert type(x.norm()) is Fraction
        assert x * x.inverse() == QuadExtScalar.one(p, ap)
    x = QuadExtScalar.from_rationals(3, 3, Fraction(-2, 3), 1)
    assert repr(x) == "(-2/3) + (1)*alpha[3,3]"
    with pytest.raises(TypeError):  # precision-carrying parts are not Z[alpha] data
        QuadExtScalar(3, 3, PadicScalar(3, 1, 4), 0)


def _rationals(p):
    """Rationals over p-power denominators and over any denominator up to 60."""
    den = st.one_of(st.integers(0, 5).map(lambda e: p ** e), st.integers(1, 60))
    return st.builds(Fraction, st.integers(-60, 60), den)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_quadext_matches_fraction_reference(data):
    """The integer-coordinate scalar against Fraction coordinates: every value, ==, repr,
    and one (na, nb, d) per value: ints in lowest terms with d > 0."""
    p, ap = data.draw(st.sampled_from(SUPERSINGULAR_PAIRS))
    xs = [data.draw(_rationals(p)) for _ in range(2)]
    ys = xs if data.draw(st.booleans()) else [data.draw(_rationals(p)) for _ in range(2)]
    x, y = QuadExtScalar(p, ap, *xs), QuadExtScalar(p, ap, *ys)
    rx, ry = FractionQuad(p, ap, *xs), FractionQuad(p, ap, *ys)
    k = data.draw(st.integers(-6, 6))
    if rx.norm() == 0:
        k = abs(k)
    pairs = [(x, rx), (-x, -rx), (x + y, rx + ry), (x - y, rx - ry),
             (x * y, rx * ry), (x.conj(), rx.conj()), (x.pow_int(k), rx.pow_int(k))]
    if rx.norm() != 0:
        pairs += [(x.inverse(), rx.inverse()), (y / x, ry * rx.inverse())]
    assert (x == y) == (rx == ry) and (x * y == y * x)
    assert x.norm() == rx.norm() and type(x.norm()) is Fraction
    for got, want in pairs:
        assert (got.a, got.b) == (want.a, want.b)
        assert repr(got) == repr(want)
        assert got == QuadExtScalar(p, ap, want.a, want.b)
        assert all(type(c) is int for c in (got.na, got.nb, got.d))
        assert math.gcd(got.na, got.nb, got.d) == 1 and got.d > 0
