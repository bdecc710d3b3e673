"""Series layer: cyclotomic polynomials, quotient reduction, norms, log."""

import functools
import math
import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from padic_ladders import intcore
from padic_ladders.errors import (InexactDivision, MixedExtension, PrecisionExhausted,
                                  SerializationError)
from padic_ladders.intcore import (
    _KRONECKER_MIN_LEN,
    _RECIPROCAL_MIN_QUOT,
    _SHORT_MIN_LEN,
    _phi_split,
    append_factor,
    ladder_rows,
    omega_coeffs,
    phi_coeffs,
    phi_mul,
    poly_divmod,
    poly_mul,
    shift_matrix,
    shift_rows,
)
from padic_ladders.padics import PadicScalar, rational_valuation
from padic_ladders.series import (
    LambdaElement,
    PowerSeries,
    divmod_monic,
    eval_at_root,
    exact_divide,
    gauss_norm_log,
    log_series,
    omega,
    omega_congruent,
    phi,
    phi_truncated,
    reduce_mod,
    series_arith,
)
from padic_ladders.trace import ap_parity_value, period_constants

from divmod_reference import poly_divmod_reference


def poly(p, ints):
    return PowerSeries(p, ints)


def test_phi_examples():
    assert phi(2, 1) == poly(2, [2, 1])
    assert phi(3, 1) == poly(3, [3, 3, 1])
    assert phi(2, 2) == poly(2, [2, 2, 1])


def test_omega_examples():
    for p in (2, 3, 5):
        assert omega(p, 0) == poly(p, [0, 1])
    assert omega(2, 1) == poly(2, [0, 2, 1])
    assert omega(3, 2) == PowerSeries.x_power(3, 1).mul(phi(3, 1)).mul(phi(3, 2))


def test_omega_congruent_examples():
    assert omega_congruent(3, 0, 2, 0) == phi(3, 2)
    assert omega_congruent(3, 3, 2, 1) == phi(3, 1)
    assert omega_congruent(3, 0, 4, 0) == phi(3, 2).mul(phi(3, 4))
    assert omega_congruent(3, 0, 1, 0) == PowerSeries.one(3)  # empty product


def test_series_arith_examples():
    one_plus = poly(5, [1, 1])
    one_minus = poly(5, [1, -1])
    assert series_arith("mul", one_plus, one_minus, 10) == poly(5, [1, 0, -1])
    x9 = PowerSeries.x_power(5, 9)
    assert series_arith("mul", x9, x9, 10).is_zero()
    lhs = series_arith("mul", phi(3, 1).mul(phi(3, 2)), PowerSeries.x_power(3, 1), None)
    assert lhs == omega(3, 2)
    assert series_arith("scalar_mul", phi(3, 1), Fraction(1, 3), 2) == poly(3, [1, 1])
    assert series_arith("add", poly(2, [1, 1, 1]), poly(2, [1]), 2) == poly(2, [2, 1])


def test_reduce_mod_examples():
    assert reduce_mod(omega(3, 2), phi(3, 1)).is_zero()
    assert reduce_mod(PowerSeries.x_power(2, 1), phi(2, 1)) == poly(2, [-2])
    assert reduce_mod(phi(3, 2), phi(3, 1)) == poly(3, [3])


def test_eval_at_root_examples():
    assert eval_at_root(phi(3, 2), 1) == poly(3, [3])
    assert eval_at_root(omega(2, 2), 2).is_zero()
    assert eval_at_root(phi(2, 3), 1) == poly(2, [2])


def test_eval_at_root_all_pairs():
    # Phi_i at a lower root level j < i evaluates to the constant p
    for p in (2, 3, 5):
        for i in range(2, 5):
            for j in range(1, i):
                assert eval_at_root(phi(p, i), j) == poly(p, [p])


def test_exact_divide_examples():
    assert exact_divide(omega(3, 1), phi(3, 1)) == PowerSeries.x_power(3, 1)
    assert exact_divide(omega(3, 2), phi(3, 2)) == omega(3, 1)
    with pytest.raises(InexactDivision):
        exact_divide(poly(2, [1, 1]), phi(2, 1))


def test_exact_divide_round_trip_random():
    rng = random.Random(3)
    for _ in range(100):
        p = rng.choice([2, 3])
        g = rng.choice([phi(p, rng.randint(1, 3)), omega(p, rng.randint(1, 3))])
        f = poly(p, [rng.randint(-9, 9) for _ in range(rng.randint(1, 10))])
        assert exact_divide(f.mul(g), g) == f


def test_gauss_norm_examples():
    s = Fraction(1, 2)
    for k in (1, 3, 7):
        assert gauss_norm_log(PowerSeries.x_power(3, k), s) == -k * s
    assert gauss_norm_log(phi(3, 1).scale(Fraction(1, 3)) - 1, s) == 0
    assert gauss_norm_log(phi(3, 2).scale(Fraction(1, 3)) - 1, s) == Fraction(-3, 2)


def test_gauss_norm_multiplicative():
    rng = random.Random(5)
    s = Fraction(1, 2)
    for _ in range(50):
        p = rng.choice([2, 3])
        f = poly(p, [rng.randint(-20, 20) for _ in range(rng.randint(1, 8))])
        g = poly(p, [rng.randint(-20, 20) for _ in range(rng.randint(1, 8))])
        if f.is_zero() or g.is_zero():
            continue
        assert gauss_norm_log(f.mul(g), s) == gauss_norm_log(f, s) + gauss_norm_log(g, s)


def test_gauss_norm_contraction():
    # |Phi_n(1+X)/p - 1| at radius p^(-1/2) strictly decreases in n
    s = Fraction(1, 2)
    for p in (2, 3):
        vals = [
            gauss_norm_log(phi(p, n).scale(Fraction(1, p)) - 1, s) for n in range(2, 7)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_phi_monic_constant_term():
    for p in (2, 3, 5, 7):
        for j in range(1, 7):
            # constant term is p at every j; full expansion checked where cheap
            assert phi_truncated(p, j, 1).coefficient_raw(0) == PadicScalar.exact(p, p)
        top_j = {2: 6, 3: 6, 5: 4, 7: 3}[p]
        for j in range(1, top_j + 1):
            f = phi(p, j)
            d = f.degree()
            assert d == p ** (j - 1) * (p - 1)
            assert f.coefficient_raw(d).value == 1
            assert f.coefficient_raw(0).value == p


def test_omega_factorization():
    for p, n_top in ((2, 5), (3, 5), (5, 3)):
        for n in range(0, n_top + 1):
            prod = PowerSeries.x_power(p, 1)
            for j in range(1, n + 1):
                prod = prod.mul(phi(p, j))
            assert prod == omega(p, n)


def test_phi_truncated_matches_phi():
    for p in (2, 3, 5):
        for j in (1, 2, 3):
            full = phi(p, j)
            trunc = phi_truncated(p, j, 5)
            for k in range(5):
                assert trunc.coefficient_raw(k) == full.coefficient_raw(k)


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def test_int_core_matches_sympy():
    sympy = pytest.importorskip("sympy")
    X = sympy.symbols("X")

    def to_poly(coeffs):
        return sympy.Poly(list(reversed(coeffs)) or [0], X)

    def from_poly(f, cap=None, mod=None):
        coeffs = [int(c) for c in reversed(f.all_coeffs())][:cap]
        return _trim(c % mod if mod else c for c in coeffs)

    shift = sympy.Poly(X + 1, X)
    for p in (2, 3, 5, 7):
        for j in range(1, {2: 6, 3: 4, 5: 3, 7: 3}[p] + 1):
            ref = sympy.Poly(sympy.cyclotomic_poly(p ** j, X), X).compose(shift)
            assert phi_coeffs(p, j) == from_poly(ref)
            for cap, k in ((1, 1), (7, 2), (40, 5)):
                got = phi_coeffs(p, j, cap, p ** k)
                assert len(got) == cap
                assert _trim(got) == from_poly(ref, cap, p ** k)

    # the modded build against math.comb sums and against the exact build
    # reduced, far past where sympy can expand Phi_j
    for p in (2, 3, 5, 7):
        for j in range(1, 41):
            for cap, k in ((1, 3), (2, 1), (7, 2), (40, 5), (40, 30)):
                q = p ** (j - 1)
                ref = [sum(math.comb(q * t, c) for t in range(p)) % p ** k for c in range(cap)]
                assert phi_coeffs(p, j, cap, p ** k) == ref, (p, j, cap, k)
                assert ref == [c % p ** k for c in phi_coeffs(p, j, cap)]

    rng = random.Random(20090318)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7))
        a = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 30))]
        b = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 30))]
        cap, mod = rng.randint(1, 70), p ** rng.randint(1, 12)
        product = to_poly(a) * to_poly(b)
        assert _trim(poly_mul(a, b)) == from_poly(product)
        assert _trim([c % mod for c in poly_mul(a, b, cap)]) == from_poly(product, cap, mod)
        nu = rng.randint(0, {2: 5, 3: 3, 5: 2, 7: 2}[p])
        w = omega_coeffs(p, nu)
        assert to_poly(w) == to_poly([-1]) + shift ** (p ** nu)
        rem = sympy.rem(product, to_poly(w))
        assert _trim(poly_divmod(poly_mul(a, b), w, mod)[1]) == from_poly(rem, None, mod)
        g = [rng.randint(-10 ** 3, 10 ** 3) for _ in range(rng.randint(0, 12))] + [1]
        quot, rem = sympy.div(to_poly(a), to_poly(g))
        for reduce_by in (None, mod):
            q, r = poly_divmod(a, g, reduce_by)
            assert len(r) == min(len(a), len(g) - 1)
            assert (_trim(q), _trim(r)) == (from_poly(quot, None, reduce_by),
                                            from_poly(rem, None, reduce_by))

    # poly_mul from both sides of the Kronecker crossover: lengths 1-80 with
    # mixed-sign coefficients up to 2^200, all-zero operands, products that
    # reach the slot bound, and dense cap-200 pairs mod p^k like the limit
    # kernel's.
    cases = []
    for _ in range(60):
        bits = rng.choice((3, 20, 64, 200))
        draw = lambda: [rng.randint(-2 ** bits, 2 ** bits) for _ in range(rng.randint(1, 80))]
        cases.append((draw(), draw(), rng.choice((None, rng.randint(1, 160))),
                      rng.choice((None, rng.choice((2, 3, 5, 7)) ** rng.randint(1, 70)))))
    cases.append(([0] * 50, [rng.randint(-2 ** 200, 2 ** 200) for _ in range(60)], None, None))
    cases.append(([rng.randint(-2 ** 200, 2 ** 200) for _ in range(60)], [0] * 40, 70, 3 ** 40))
    top = 2 ** 197 - 1  # 64 * top^2 has exactly 400 bits, 50 bytes
    # non-negative operands fill their unsigned slots exactly; a signed product
    # needs the sign bit's byte
    cases += [([top] * 64, [top] * 64, None, None), ([top] * 64, [top] * 64, 100, None),
              ([top] * 64, [top] * 64, 126, None), ([top] * 64, [-top] * 64, 100, None)]
    for p, k in ((2, 66), (3, 40), (5, 30)):
        dense = lambda: [rng.randrange(p ** k) for _ in range(200)]
        cases.append((dense(), dense(), 200, p ** k))
    # one non-negative side against a mixed-sign one, in both orders
    for n, m, cap in ((64, 64, None), (40, 150, 120), (150, 150, _SHORT_MIN_LEN)):
        pos = [rng.randrange(2 ** 100) for _ in range(n)]
        mixed = [rng.randint(-2 ** 100, 2 ** 100) for _ in range(m)]
        cases += [(pos, mixed, cap, None), (mixed, pos, cap, None)]
    # truncated counts on both sides of the short-product threshold, products
    # truncated by one term, unbalanced lengths and count 1
    for la, lb, counts in ((200, 200, (1, _SHORT_MIN_LEN - 1, _SHORT_MIN_LEN, _SHORT_MIN_LEN + 1,
                                        200, 398)),
                           (32, 200, (_SHORT_MIN_LEN - 1, _SHORT_MIN_LEN + 1, 200, 231)),
                           (200, 32, (_SHORT_MIN_LEN, 230)), (100, 100, (198, 199))):
        for count in counts:
            for lo in (0, -2 ** 60):  # unsigned slots, then signed
                cases.append(([rng.randint(lo, 2 ** 60) for _ in range(la)],
                              [rng.randrange(2 ** 60) for _ in range(lb)], count, None))
    for a, b, cap, mod in cases:
        got = poly_mul(a, b, cap)
        got = got if mod is None else [c % mod for c in got]
        assert len(got) == min(len(a) + len(b) - 1, cap or len(a) + len(b))
        assert _trim(got) == from_poly(to_poly(a) * to_poly(b), cap, mod)


def _index_loop_mul(a, b, cap):
    """a*b below X^cap, one coefficient product at a time."""
    out = [0] * min(len(a) + len(b) - 1 if a and b else 0, cap or len(a) + len(b))
    for i, x in enumerate(a[: len(out)]):
        for k, y in enumerate(b[: len(out) - i], i):
            out[k] += x * y
    return out


def test_poly_mul_on_both_sides_of_the_kronecker_crossover(monkeypatch):
    """poly_mul keeping exactly _KRONECKER_MIN_LEN - 1 and _KRONECKER_MIN_LEN coefficients of
    its shorter operand, against the index loop, and the path each length takes: the
    suite's limit shapes (operands mod p^k, 24 coefficients at cap 24 or cut to the boundary
    by the cap), small signed operands in [-9, 9], and a non-negative side against a
    mixed-sign one in both orders."""
    real, packed = intcore._kronecker_mul, []
    monkeypatch.setattr(intcore, "_kronecker_mul",
                        lambda a, b, count: packed.append(count) or real(a, b, count))
    rng = random.Random(36)
    for n in (_KRONECKER_MIN_LEN - 1, _KRONECKER_MIN_LEN):
        cases = []
        for mod in (2 ** 40, 3 ** 25, 5 ** 17):
            dense = lambda m: [rng.randrange(mod) for _ in range(m)]
            cases += [(dense(n), dense(24), 24), (dense(24), dense(24), n)]
        small = lambda: [rng.randint(-9, 9) for _ in range(n)]
        cases += [(small(), small(), None), (small(), small(), n)]
        pos = [rng.randrange(2 ** 16) for _ in range(n)]
        mixed = [(-1) ** k * rng.randrange(1, 2 ** 16) for k in range(24)]
        cases += [(pos, mixed, None), (mixed, pos, 24)]
        for a, b, cap in cases:
            packed.clear()
            assert poly_mul(a, b, cap) == _index_loop_mul(a, b, cap), (n, a, b, cap)
            assert bool(packed) == (n >= _KRONECKER_MIN_LEN), (n, len(a), len(b), cap)


def test_poly_divmod_gate_counts_quotient_terms():
    """Division by Phi_3(1+X) at p = 5 (d = 100, the coleman-deep peel's divisor) with
    m = 26 or _RECIPROCAL_MIN_QUOT - 1 quotient terms runs the index loop and reads no
    reciprocal; from m = _RECIPROCAL_MIN_QUOT it takes the reciprocal.  Every quotient and
    remainder equals the reference's."""
    g, rng = phi_coeffs(5, 3), random.Random(26)
    for m in (26, _RECIPROCAL_MIN_QUOT - 1, _RECIPROCAL_MIN_QUOT):
        f = [rng.randint(-99, 99) for _ in range(len(g) - 1 + m)]
        before = intcore._reversed_inverse.cache_info()
        assert poly_divmod(f, g) == poly_divmod_reference(f, g)
        after = intcore._reversed_inverse.cache_info()
        assert (after.hits + after.misses > before.hits + before.misses) == \
            (m >= _RECIPROCAL_MIN_QUOT), m


@functools.lru_cache(maxsize=None)
def _exact_phi(p, j, cap):
    return tuple(phi_coeffs(p, j, cap))  # exact binomials


def _check_phi_step(p, j, xs, ys, ap, cap, mod):
    """phi_mul and append_factor against Phi_j(1+X) from the exact binomials."""
    red = (lambda cs: list(cs)) if mod is None else (lambda cs: [c % mod for c in cs])
    full = red(_exact_phi(p, j, cap))
    c, h, low = _phi_split(p, j, cap, mod)  # Phi_j = p + c H_j, H_j reduced mod low
    assert red([p] + [c * hk for hk in h[1:]])[:cap] == full and h[:1] in ([], [0])
    assert mod is None or (c * low in (mod, c) and all(0 <= hk < low for hk in h))
    prods = [red(poly_mul(full, y, cap)) for y in ys]
    assert [phi_mul(p, j, y, cap, mod) for y in ys] == prods, (p, j, cap, mod)
    top = [red([ap * xk - zk for xk, zk in zip_longest(x, z, fillvalue=0)])
           for x, z in zip(xs, prods)]
    rows = append_factor(p, ap, [xs, ys], j, cap, mod)
    assert rows == [top, xs], (p, j, ap, cap, mod)
    return rows


def test_phi_mul_split_matches_full_product():
    # Phi_j(1+X) = p + p^s G_j below X^cap with s = j-1-L, p^L <= cap-1 < p^(L+1):
    # j runs over s < 0, s = 0, 0 < s < w and s >= w; rows are empty, short,
    # full, longer than cap 0, signed and unreduced, and the identity rows of
    # unequal lengths
    rng = random.Random(8)
    identity = [[[1], []], [[], [1]]]
    for p in (2, 3, 5, 7):
        # at p = 5 and 7 also caps with levels s < w <= 2s, running products
        # and closed form on either side of 2s = w
        for cap in (0, 1, 2, 5, 20, 200) + ((3, 60, 250) if p >= 5 else ()):
            L = max(l for l in range(9) if l == 0 or p ** l <= cap - 1)
            for w in (1, 4, 9, None):
                bound = p ** (w or 9)
                ys = [[], [rng.randint(-bound * p ** 3, bound * p ** 3) for _ in range(cap)]]
                ys += [[rng.randrange(bound) for _ in range(rng.randint(1, max(cap, 1)))]
                       for _ in range(2)]
                for j in range(1, L + (w or 0) + 3):
                    mod = None if w is None else p ** w
                    ap = rng.choice((0, p, -p))
                    _check_phi_step(p, j, ys[:2], ys[2:], ap, cap, mod)
                    _check_phi_step(p, j, ys[2:], ys[:2], ap, cap, mod)
                    _check_phi_step(p, j, *identity, ap, cap, mod)
    # a modulus that is not a power of p takes (c, H_j) = (1, Phi_j - p)
    for p, j, cap, mod in ((3, 3, 2, 10), (2, 6, 5, 12), (5, 4, 20, 7 ** 9)):
        ys = [[rng.randrange(mod) for _ in range(cap)] for _ in range(2)]
        _check_phi_step(p, j, ys, ys[::-1], p, cap, mod)
        _check_phi_step(p, j, *identity, p, cap, mod)
    # consecutive levels at cap 200 as the limit loop runs them: mod = p^w with
    # w from 30 up by one every second level while s grows by one per level, so
    # G_j's tables are read at a falling p^(w-s), from 2s >= w on as the closed
    # form (p(p-1)/2) (-1)^(k-1) p^L/k, and the last levels reach s >= w
    for p, ap in ((2, 2), (3, 0), (5, 0)):
        L = max(l for l in range(9) if p ** l <= 199)
        rows, closed = identity, 0
        for j in range(1, L + 66):
            s, w = j - 1 - L, 30 + max(j - L, 0) // 2
            rows = _check_phi_step(p, j, *rows, ap, 200, p ** w)
            if s >= 1 and 2 * s >= w:
                c, h, low = _closed_form_split(p, j, 200, p ** w)
                assert (c, low) == (p ** s, p ** max(w - s, 0))
                g = [(-1) ** (k - 1) * Fraction(p * (p - 1) // 2 * p ** L, k) for k in range(1, 200)]
                assert h == [0] + [x.numerator * pow(x.denominator, -1, low) % low for x in g]
                closed += 1
        assert closed == 45, (p, closed)  # s = 20..64, where 2s >= 30 + (s+1)//2


def _closed_form_split(p, j, cap, mod):
    """_phi_split with the running products' tables withheld, so that only the
    closed-form branch can return."""
    tables = intcore._split_tables
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intcore, "_split_tables", lambda *key: (*tables(*key)[:1], None, None,
                                                          tables(*key)[3]))
        return _phi_split(p, j, cap, mod)


def _shift_step_by_step(p, ap, rows, i, mod, parity_flip):
    """shift_rows as |i-1| separate unimodular steps, each reduced mod mod."""
    off = 1 if parity_flip else 0

    def comb(a, x, y):  # a*x - y
        out = [a * xk - yk for xk, yk in zip_longest(x, y, fillvalue=0)]
        return out if mod is None else [c % mod for c in out]

    for idx in range(1, i):
        a = ap_parity_value(p, ap, idx + off)
        top, bot = rows
        rows = [[comb(a, x, y) for x, y in zip(top, bot)], top]
    for idx in range(1, i, -1):
        a = ap_parity_value(p, ap, idx - 1 + off)
        top, bot = rows
        rows = [bot, [comb(a, y, x) for x, y in zip(top, bot)]]
    return rows


SHIFT_PAIRS = ((2, 0), (2, 2), (2, -2), (3, 0), (3, 3), (3, -3), (5, 0), (7, 0), (11, 0))


def test_shift_rows_matches_step_by_step_composition():
    # shift_matrix takes (i - 1) mod two_tilde steps and a sign, the reference all |i - 1|
    # steps: every admissible pair up to p = 11 and both parities, on unreduced ragged rows
    # over many periods either way (i in [-80, 80]), and on every kind of rows near index 1
    rng = random.Random(7)
    for p, ap in SHIFT_PAIRS:
        for mod in (None, p ** 9):
            # built ladder rows, and rows of unequal lengths with unreduced entries
            built = ladder_rows(p, ap, 3, 1, 12, mod)
            ragged = [[[rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(0, 9))]
                       for _ in range(2)] for _ in range(2)]
            for rows in (built, ragged):
                for i in range(-80, 81) if rows is ragged and mod is None else range(-9, 10):
                    for flip in (False, True):
                        assert (shift_rows(p, ap, rows, i, mod, flip)
                                == _shift_step_by_step(p, ap, rows, i, mod, flip)), (p, ap, i)


def test_shift_matrix_at_a_far_index_takes_a_bounded_number_of_steps():
    # two_tilde consecutive steps multiply to -I, so a shift by m two_tilde is (-1)^m I at
    # any index: m = 10^9 (even) or 10^18 + 1 (odd) periods cost as little as none
    for p, ap in SHIFT_PAIRS:
        tt = period_constants(p, ap).two_tilde
        for m in (10 ** 9, 10 ** 18 + 1):
            for i in range(-tt, tt + 2):
                for flip in (False, True):
                    near = tuple((-1) ** m * c for c in shift_matrix(p, ap, i, flip))
                    assert shift_matrix(p, ap, i + m * tt, flip) == near, (p, ap, m, i, flip)
                    assert shift_matrix(p, ap, i - m * tt, flip) == near, (p, ap, m, i, flip)


def test_level_n_rows_lie_below_omega_n():
    # level-n entries have degree < p^n = deg omega_n: already reduced mod omega_n
    for p, ap in ((2, 2), (2, -2), (3, 3), (3, -3), (3, 0), (5, 0), (7, 0)):
        for n in range(1, 8):
            if p ** n > 400:
                break
            for i in range(-4, 6):
                for row in ladder_rows(p, ap, n, i):
                    assert all(len(s) <= p ** n for s in row), (p, ap, n, i)


def test_log_series_examples():
    f = log_series(3, 10)
    assert f.coefficient_raw(1) == PadicScalar.one(3)
    c3 = f.coefficient_raw(3)
    assert c3.value == Fraction(1, 3) and c3.valuation() == -1
    # formal derivative equals the truncation of 1/(1+X)
    p = 5
    g = log_series(p, 12)
    deriv = PowerSeries(p, [g.coefficient_raw(k + 1) * (k + 1) for k in range(11)], 11)
    geom = PowerSeries(p, [(-1) ** k for k in range(11)], 11)
    assert deriv == geom


def test_series_congruence_and_truncation():
    f = poly(3, [1, 9, 27])
    g = poly(3, [1, 0, 0])
    assert f.congruent(g, 2)
    assert not f.congruent(g, 3)
    assert f.truncate(2) == poly(3, [1, 9])


def test_series_json_round_trip():
    f = PowerSeries(3, [PadicScalar(3, Fraction(2, 3), 5), PadicScalar.exact(3, 7)], 8)
    data = f.to_json()
    assert data["p"] == 3 and data["cap"] == 8
    assert PowerSeries.from_json(data) == f


def test_series_from_json_requires_coeffs():
    # a missing (or misspelt) coeffs is an error naming the field, not a zero series
    for data in ({"p": 3, "cap": None}, {"p": 3, "cap": 4, "coefs": [{"num": "1"}]}):
        with pytest.raises(SerializationError, match="field 'coeffs'"):
            PowerSeries.from_json(data)


@pytest.mark.parametrize("data", [5, [], "x", None])
def test_series_and_scalar_from_json_reject_non_objects(data):
    with pytest.raises(SerializationError):
        PowerSeries.from_json(data)
    with pytest.raises(SerializationError):
        PadicScalar.from_json(3, data)


MIXED_SERIES_OPS = {
    "add": lambda f, g: f + g,
    "sub": lambda f, g: f - g,
    "eq": lambda f, g: f == g,
    "mul": lambda f, g: f.mul(g),
    "congruent": lambda f, g: f.congruent(g, 2),
    "congruent_to_zero": lambda f, g: f.congruent(PowerSeries.zero(g.p), 2),
    "series_arith": lambda f, g: series_arith("mul", f, g, 4),
    "divmod_monic": lambda f, g: divmod_monic(f, omega(g.p, 1)),
    "add_scalar": lambda f, g: f + PadicScalar.one(g.p),
    "mul_scalar": lambda f, g: f * PadicScalar.one(g.p),
    "scalar_coeff": lambda f, g: PowerSeries(f.p, [PadicScalar.one(g.p)]),
}


@pytest.mark.parametrize("op", sorted(MIXED_SERIES_OPS))
@pytest.mark.parametrize("backing", ["int", "padic"])
def test_series_mixed_primes_rejected(op, backing):
    """Series over 2 and 3 do not meet, whether int-backed or with a 1/p coefficient,
    nor does a series over 2 take a scalar over 3."""
    f = PowerSeries(2, [1, 2] if backing == "int" else [Fraction(1, 2), 1])
    g = PowerSeries(3, [1, 2] if backing == "int" else [Fraction(1, 3), 1])
    assert (f._ints is None) == (g._ints is None) == (backing == "padic")
    with pytest.raises(MixedExtension, match="mixed primes 2 and 3"):
        MIXED_SERIES_OPS[op](f, g)


def test_series_foreign_operand():
    f = PowerSeries(3, [1, 2])
    with pytest.raises(TypeError):
        f.mul("1")
    with pytest.raises(TypeError):
        f.congruent(None, 2)
    assert f.__eq__("1") is NotImplemented and f != "1"


def test_lambda_element_reduction():
    # X^3 = X - 3X - 3X^2 ... reduce against omega_1 at p=3: degree < 3
    e = LambdaElement(3, 1, PowerSeries.x_power(3, 3))
    assert e.poly.degree() < 3
    w = LambdaElement(3, 1, omega(3, 1))
    assert w.is_zero()
    prod = e * e
    assert prod.poly.degree() < 3
    data = e.to_json()
    assert LambdaElement.from_json(dict(data, p=3)) == e


def test_exact_integer_coefficients_share_one_form():
    # ints, unit-denominator Fractions and exact integral PadicScalars are one series,
    # and coeffs still reads as PadicScalars with value and absprec
    f = PowerSeries(5, [Fraction(-4), PadicScalar(5, 7), 0, 12, PadicScalar(5, 0)])
    g = PowerSeries(5, [-4, 7, 0, 12])
    assert f.to_json() == g.to_json() and f == g and f.degree() == 3
    assert [(c.value, c.absprec) for c in f.coeffs] == [(-4, None), (7, None), (0, None), (12, None)]
    assert PowerSeries.from_json(g.to_json()).to_json() == g.to_json()
    assert f.scale(3) == PowerSeries(5, [-12, 21, 0, 36])
    assert f.scale(Fraction(1, 5)).coefficient(0).value == Fraction(-4, 5)
    assert (f - g).is_zero() and (-f + g).degree() == -1



@st.composite
def _numerators(draw, p):
    """(xs, e, absprec): zero, negative x, and x with v_p(x) >= e + absprec among them."""
    e, absprec = draw(st.integers(0, 5)), draw(st.integers(-2, 8))
    zero_at_prec = st.integers(-40, 40).map(lambda u: u * p ** (e + max(absprec, 0)))
    x = st.one_of(st.integers(-p ** 10, p ** 10), st.just(0), zero_at_prec,
                  st.builds(lambda u, v: u * p ** v, st.integers(-40, 40), st.integers(0, 6)))
    return draw(st.lists(x, max_size=8)), e, absprec


def _congruence(f, g, k):
    """f.congruent(g, k), or the text of the PrecisionExhausted it raises."""
    try:
        return f.congruent(g, k)
    except PrecisionExhausted as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_numerator_form_matches_padic_scalar_series(data):
    # seeded fault: a den_pow one too large in padics._numerators_json fails the to_json line
    p = data.draw(st.sampled_from((2, 3, 5)))
    xs, e, absprec = data.draw(_numerators(p))
    cap = data.draw(st.none() | st.integers(0, 9))
    fresh = lambda: PowerSeries.from_numerators(p, xs, e, absprec, cap)
    ref = PowerSeries(p, [PadicScalar(p, Fraction(x, p ** e), absprec) for x in xs], cap)
    ys, f_e, f_a = data.draw(_numerators(p))
    other = data.draw(st.sampled_from((
        PowerSeries.from_numerators(p, ys, f_e, f_a), PowerSeries(p, ys),
        PowerSeries(p, [PadicScalar(p, Fraction(y, p ** f_e), f_a) for y in ys]))))
    k, n = data.draw(st.integers(-2, 10)), data.draw(st.none() | st.integers(0, 12))
    scalars = lambda s: [(c.value, c.absprec) for c in s.coeffs]

    assert fresh().to_json() == ref.to_json()
    assert scalars(fresh()) == scalars(ref)
    assert fresh() == ref and (fresh() == other) == (ref == other)
    assert fresh().mul(other, n).to_json() == ref.mul(other, n).to_json()
    assert other.mul(fresh(), n).to_json() == other.mul(ref, n).to_json()
    assert _congruence(fresh(), other, k) == _congruence(ref, other, k)
    assert (fresh().degree(), fresh().is_exact()) == (ref.degree(), ref.is_exact())
    assert fresh().truncate(n or 0).to_json() == ref.truncate(n or 0).to_json()
    assert fresh().coefficient_raw(0).to_json() == ref.coefficient_raw(0).to_json()

def _in_interval(rep, c):
    """The rational rep lies in the p-adic interval of the PadicScalar c."""
    d = rep - c.value
    if c.absprec is None:
        return d == 0
    return d == 0 or rational_valuation(d, c.p) >= c.absprec


@st.composite
def _operand(draw, p, exact_only):
    """(series, a representative of its coefficients): int-backed or mixed inexact."""
    size = draw(st.integers(0, 8))
    nums = draw(st.lists(st.integers(-60, 60), min_size=size, max_size=size))
    if exact_only:
        return PowerSeries(p, nums), [Fraction(x) for x in nums]
    coeffs, reps = [], []
    for x in nums:
        if draw(st.booleans()):
            coeffs.append(x)
            reps.append(Fraction(x))
            continue
        value = Fraction(x, p ** draw(st.integers(0, 2)))
        absprec = draw(st.integers(-1, 6))
        c = PadicScalar(p, value, absprec)
        coeffs.append(c)
        reps.append(c.value + draw(st.integers(-30, 30)) * Fraction(p) ** absprec)
    return PowerSeries(p, coeffs), reps


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mul_and_divmod_precision_is_sound(data):
    """Representatives of the operands land in the computed intervals, coefficientwise."""
    p = data.draw(st.sampled_from((2, 3, 5)))
    exact_first = data.draw(st.booleans())
    f, f_rep = data.draw(_operand(p, exact_first))
    g, g_rep = data.draw(_operand(p, not exact_first and data.draw(st.booleans())))
    cap = data.draw(st.one_of(st.none(), st.integers(0, 12)))
    prod = f.mul(g, cap)
    want = poly_mul(f_rep, g_rep, cap)
    assert all(_in_interval(Fraction(w), prod.coefficient_raw(k)) for k, w in enumerate(want))
    assert len(prod.coeffs) <= len(want)

    top = data.draw(st.lists(st.integers(-9, 9), max_size=4))
    monic = data.draw(st.sampled_from((phi(p, 1), omega(p, 1), PowerSeries(p, top + [1]))))
    quot, rem = divmod_monic(f, monic)
    want_q, want_r = poly_divmod(f_rep, [Fraction(c.value) for c in monic.coeffs])
    for got, want in ((quot, want_q), (rem, want_r)):
        assert all(_in_interval(Fraction(w), got.coefficient_raw(k)) for k, w in enumerate(want))
        assert len(got.coeffs) <= len(want)


def test_poly_divmod_matches_index_loop_across_crossover():
    """poly_divmod against the coefficient-at-a-time loop, below and above the
    reciprocal crossover: d = 0, every short and boundary length of f, with and
    without mod, mixed-sign coefficients up to 2^200, omega_n and Phi_j(1+X) at
    the coleman-deep degrees, and random monic divisors of degree 90-260."""
    rng = random.Random(16)
    divisors = [[1], phi_coeffs(2, 5), phi_coeffs(3, 4), phi_coeffs(2, 7), phi_coeffs(5, 3),
                phi_coeffs(3, 5), list(omega_coeffs(3, 5)), list(omega_coeffs(2, 7)),
                list(omega_coeffs(5, 3))]
    divisors += [[rng.randint(-9, 9) for _ in range(d)] + [1] for d in (90, 99, 100, 173, 260)]
    before = intcore._reversed_inverse.cache_info()
    for g in divisors:
        d = len(g) - 1
        lengths = {0, 1, d - 1, d, d + 1, d + _RECIPROCAL_MIN_QUOT - 1, d + _RECIPROCAL_MIN_QUOT,
                   d + _RECIPROCAL_MIN_QUOT + 1, 2 * d - 1}
        for n in sorted(k for k in lengths if k >= 0):
            bits = rng.choice((4, 64, 200))
            f = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)]
            want = poly_divmod_reference(f, g)
            assert poly_divmod(tuple(f), tuple(g)) == want, (d, n, bits)
            for mod in (3 ** 40, 2 ** 7):  # the reference reduces only at the end
                assert poly_divmod(f, g, mod) == tuple([c % mod for c in part] for part in want)
    after = intcore._reversed_inverse.cache_info()
    assert after.hits + after.misses > before.hits + before.misses  # the reciprocal path ran

    # PadicScalar coefficients above the crossover take the slice loop, whose
    # operations are the index loop's in the same order: values and precisions agree
    g = [PadicScalar(5, c) for c in phi_coeffs(5, 3)]
    f = [PadicScalar(5, Fraction(rng.randint(-99, 99), 5 ** rng.randint(0, 2)),
                     rng.choice((None, 5, 9))) for _ in range(100 + _RECIPROCAL_MIN_QUOT)]
    got, want = poly_divmod(f, g), poly_divmod_reference(f, g)
    assert [[c.to_json() for c in part] for part in got] == \
        [[c.to_json() for c in part] for part in want]
