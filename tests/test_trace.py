"""Integer ladder layer: period constants, delta coefficients, A_l, beta."""

import random
from fractions import Fraction

import pytest

from padic_ladders import trace
from padic_ladders.errors import IdentityViolation, NotSupersingular
from padic_ladders.ladders import kappa_identity_check
from padic_ladders.padics import QuadExtScalar
from padic_ladders.trace import (
    MAT_ID,
    a_matrix,
    beta,
    delta_coeffs,
    delta_table,
    mat,
    mat_mul,
    mat_pow,
    period_constants,
    render_delta,
    trace_matrix,
    y_beta_identity_check,
)

PAIRS_23 = [(2, 2), (2, -2), (3, 3), (3, -3), (2, 0), (3, 0)]
ALL_PAIRS = PAIRS_23 + [(5, 0), (7, 0)]


def test_period_constants_examples():
    c = period_constants(3, 0)
    assert (c.two_tilde, c.four_tilde, c.one_tilde) == (2, 4, 1)
    c = period_constants(2, 2)
    assert (c.two_tilde, c.four_tilde, c.one_tilde) == (4, 8, 2)
    c = period_constants(3, -3)
    assert (c.two_tilde, c.four_tilde, c.one_tilde) == (6, 12, 3)


def test_period_constants_matrix_identity():
    for (p, ap) in ALL_PAIRS:
        c = period_constants(p, ap)
        power = mat_pow(trace_matrix(p, ap), c.two_tilde)
        assert power == (
            (Fraction(-(p ** c.one_tilde)), Fraction(0)),
            (Fraction(0), Fraction(-(p ** c.one_tilde))),
        )


def test_not_supersingular_gate():
    with pytest.raises(NotSupersingular):
        period_constants(3, 1)  # p does not divide a_p
    with pytest.raises(NotSupersingular):
        period_constants(5, 5)  # Hasse bound fails
    with pytest.raises(NotSupersingular):
        period_constants(4, 0)  # not prime
    with pytest.raises(NotSupersingular):
        delta_coeffs(7, 7, 1)


def test_period_constants_cached_but_invalid_pairs_raise_every_call():
    period_constants.cache_clear()
    assert period_constants(3, 3) is period_constants(3, 3)
    for _ in range(3):
        with pytest.raises(NotSupersingular):
            period_constants(3, 1)
    info = period_constants.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 4, 1)


def test_delta_examples_from_table():
    assert (delta_coeffs(2, -2, 1).y, delta_coeffs(2, -2, 1).y_prime) == (-2, -1)
    assert (delta_coeffs(3, 3, 3).y, delta_coeffs(3, 3, 3).y_prime) == (3, -2)
    for p in (2, 3, 5):
        d = delta_coeffs(p, 0, 1728)
        assert (d.y, d.y_prime) == (1, 0)
    assert (delta_coeffs(2, 2, -2).y, delta_coeffs(2, 2, -2).y_prime) == (-1, 1)


def test_delta_far_indices_reduce():
    for p in (2, 3, 5):
        d = delta_coeffs(p, 0, 691)
        assert (d.y, d.y_prime) == (0, 1)  # delta^691 = delta^-1 = c_{n-1}


def test_delta_base_cases():
    for (p, ap) in ALL_PAIRS:
        assert (delta_coeffs(p, ap, 0).y, delta_coeffs(p, ap, 0).y_prime) == (1, 0)
        assert (delta_coeffs(p, ap, -1).y, delta_coeffs(p, ap, -1).y_prime) == (0, 1)


def test_integrality_and_antiperiodicity():
    for (p, ap) in ALL_PAIRS:
        tt = period_constants(p, ap).two_tilde
        for i in range(-8 * p, 8 * p + 1):
            d = delta_coeffs(p, ap, i)
            assert isinstance(d.y, int) and isinstance(d.y_prime, int)
            d2 = delta_coeffs(p, ap, i + tt)
            assert (d2.y, d2.y_prime) == (-d.y, -d.y_prime)


def test_parity_recursion_against_matrix_power():
    for (p, ap) in PAIRS_23:
        for i in range(-8 * p, 8 * p):
            a = Fraction(ap, p) if i % 2 else Fraction(ap)
            cur, prev, nxt = (delta_coeffs(p, ap, j) for j in (i, i - 1, i + 1))
            assert Fraction(nxt.y) == a * cur.y - prev.y
            assert Fraction(nxt.y_prime) == a * cur.y_prime - prev.y_prime
        for i in range(0, 4 * p + 1):
            power = mat_pow(trace_matrix(p, ap), i)
            d = delta_coeffs(p, ap, i)
            s = Fraction(p) ** (i // 2)
            assert (power[0][0], power[0][1]) == (d.y * s, d.y_prime * s)


def test_render_delta_conventions():
    assert render_delta(3, -2) == "3c_n - 2c_{n-1}"
    assert render_delta(0, -1) == "-c_{n-1}"
    assert render_delta(-1, 0) == "-c_n"
    assert render_delta(0, 1) == "c_{n-1}"
    assert render_delta(1, 1) == "c_n + c_{n-1}"
    assert render_delta(0, 0) == "0"


def test_delta_table_rows_examples():
    assert delta_table(3, -3, 3, 3)[0].rendered == "-3c_n - 2c_{n-1}"
    for p in (2, 3, 5):
        assert delta_table(p, 0, 2, 2)[0].rendered == "-c_n"
    assert delta_table(2, 2, 4, 4)[0].rendered == "-c_n"


def test_a_matrix_base_case():
    for (p, ap) in PAIRS_23:
        a1 = a_matrix(p, ap, 1)
        assert a1 == ((Fraction(ap), Fraction(-1)), (Fraction(1), Fraction(0)))


def test_a_matrix_example_l2():
    a2 = a_matrix(3, 3, 2)
    expected = mat_mul(
        ((Fraction(3), Fraction(-1)), (Fraction(1), Fraction(0))),
        ((Fraction(1), Fraction(-1)), (Fraction(1), Fraction(0))),
    )
    assert a2 == expected
    a_matrix(2, -2, 3)  # postcondition is verified internally


def test_a_matrix_identity_range():
    for (p, ap) in PAIRS_23:
        for l in range(1, 2 * p + 3):
            a_matrix(p, ap, l)  # IdentityViolation would propagate


def test_beta_base_values():
    for (p, ap) in PAIRS_23:
        assert beta(p, ap, 0) == QuadExtScalar.one(p, ap)
        assert beta(p, ap, -1) == QuadExtScalar.zero(p, ap)


def test_beta_recursion_example():
    # beta_2 - beta_0 (p/alpha^2)^2 = beta_1 = conj(alpha) at (2, 2)
    p, ap = 2, 2
    alpha = QuadExtScalar.alpha(p, ap)
    ratio = QuadExtScalar.from_rationals(p, ap, p) * alpha.pow_int(-2)
    lhs = beta(p, ap, 2) - beta(p, ap, 0) * ratio.pow_int(2)
    assert lhs == beta(p, ap, 1) == QuadExtScalar.alpha_bar(p, ap)
    # canonical reduced form: beta_2 = p y_2 alpha^-2 = conj(alpha)^2/2 = 1 - alpha
    assert beta(p, ap, 2) == QuadExtScalar.from_rationals(p, ap, 1, -1)


def test_beta_lemma_random():
    rng = random.Random(17)
    for _ in range(60):
        p, ap = rng.choice(PAIRS_23)
        alpha = QuadExtScalar.alpha(p, ap)
        ratio = QuadExtScalar.from_rationals(p, ap, p) * alpha.pow_int(-2)
        i = rng.randint(-8, 8)
        k = rng.randint(1, 5)
        lhs = beta(p, ap, i) - beta(p, ap, i - k) * ratio.pow_int(k)
        assert lhs == beta(p, ap, k - 1)


def test_beta_well_defined_mod_two_tilde():
    for (p, ap) in PAIRS_23:
        tt = period_constants(p, ap).two_tilde
        for m in range(-3 * tt, 3 * tt + 1):
            assert beta(p, ap, m) == beta(p, ap, m + tt)


def test_y_beta_identity_trivial_case():
    # i = 0, k = 1: 1 - 0 = beta_0 * 1
    for (p, ap) in PAIRS_23:
        assert y_beta_identity_check(p, ap, 0, 1).passed


def test_y_beta_identity_examples():
    assert y_beta_identity_check(2, 2, 2, 2).passed
    assert y_beta_identity_check(3, 0, 4, 2).passed


def test_y_beta_identity_sweep():
    for (p, ap) in PAIRS_23:
        tt = period_constants(p, ap).two_tilde
        for i in range(-2, tt + 1):
            for k in (1, 2, 3):
                assert y_beta_identity_check(p, ap, i, k).passed


def test_trace_matrices_hold_ints():
    """C, its powers, A_l and the identity behind A_l are integer matrices: int entries."""
    ints = lambda m: all(type(x) is int for row in m for x in row)
    assert ints(MAT_ID) and ints(mat(2, -1, 3, 0))
    for p, ap in ALL_PAIRS + [(11, 0), (13, 0)]:  # every a_p != 0 pair, and a_p = 0 up to 13
        tt = period_constants(p, ap).two_tilde
        assert all(ints(mat_pow(trace_matrix(p, ap), k)) for k in range(2 * tt + 1))
        assert all(ints(a_matrix(p, ap, l)) for l in range(1, 2 * p + 3))


def test_no_float_reaches_a_quadext_coordinate(monkeypatch):
    """p ** k is a float for k < 0, and the y-beta scaling p^[(i-k)/2] (at i = -2) and the
    kappa scaling p^[(-N-i)/2] have such exponents.  No float may be offered to a
    QuadExtScalar while the two checks run, and every scalar they build holds ints."""
    offered, stored = [], []
    real_init, real_new = QuadExtScalar.__init__, QuadExtScalar._new

    def init(self, p, ap, a, b):
        offered.extend((a, b))
        real_init(self, p, ap, a, b)
        stored.append((self.na, self.nb, self.d))

    def new(self, na, nb, d):
        out = real_new(self, na, nb, d)
        stored.append((out.na, out.nb, out.d))
        return out

    monkeypatch.setattr(QuadExtScalar, "__init__", init)
    monkeypatch.setattr(QuadExtScalar, "_new", new)
    trace._beta.cache_clear()  # rebuild the cached beta_m under the spies
    for p, ap in ALL_PAIRS:
        for i in range(-2, period_constants(p, ap).two_tilde + 1):
            for k in (1, 2, 3):
                y_beta_identity_check(p, ap, i, k)
        for n in (1, 2):
            for i in (1, 2, 3):
                kappa_identity_check(p, ap, n, i)
    assert offered and stored
    assert not [c for c in offered if isinstance(c, float)]
    assert all(type(c) is int for coords in stored for c in coords)
    monkeypatch.undo()
    with pytest.raises(TypeError):
        QuadExtScalar(2, 2, 2 ** -1, 0)
    with pytest.raises(TypeError):
        QuadExtScalar.one(2, 2) * 2 ** -1
