"""Ladder matrices, scaled limits, half-logarithms, parity products."""

import json
import math
import os
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest

from padic_ladders import ladders
from padic_ladders.errors import (IdentityViolation, MixedExtension, NotConverged,
                                  PadicLaddersError, PrecisionExhausted, SerializationError)
from padic_ladders.intcore import _lincomb, ladder_rows, phi_coeffs, poly_mul, shift_rows
from padic_ladders.ladders import (
    ENV_MAX_LIMIT_STEPS,
    HalfLogPair,
    LadderMatrix,
    half_logs,
    kappa_identity_check,
    ladder,
    ladder_infinity,
    n_shift,
    _int_coords,
    _limit_matrix,
    _half_log_requests,
    _limits,
    _max_limit_steps,
    pollack_product,
)
from padic_ladders.padics import PadicScalar, QuadExtScalar
from padic_ladders.series import (
    PowerSeries,
    gauss_norm_log,
    log_series,
    omega,
    phi,
    phi_truncated,
    reduce_mod,
)
from padic_ladders.trace import ap_parity_value, delta_coeffs, period_constants
from zalpha_reference import combine_with_conjugate_root, intrinsic_variant
from zalpha_reference import scale as zalpha_scale

PAIRS_23 = [(2, 2), (2, -2), (3, 3), (3, -3), (3, 0)]
PAIRS_6 = PAIRS_23 + [(5, 0)]


def poly(p, ints):
    return PowerSeries(p, ints)


def test_ladder_single_factor():
    m = ladder(3, 3, 1, 1)
    assert m.theta_top == poly(3, [3])
    assert m.upsilon_top == -phi(3, 1)
    assert m.theta_bot == PowerSeries.one(3)
    assert m.upsilon_bot.is_zero()


def test_ladder_one_downward_shift():
    m = ladder(3, 3, 1, 0)
    assert m.theta_top == PowerSeries.one(3)
    assert m.upsilon_top.is_zero()
    assert m.theta_bot.is_zero()
    assert m.upsilon_bot == phi(3, 1)
    assert PowerSeries.x_power(3, 1).mul(m.det()) == omega(3, 1)


def test_ladder_det_level2():
    m = ladder(2, -2, 2, 1)
    assert PowerSeries.x_power(2, 1).mul(m.det()) == omega(2, 2)


def test_finite_determinant_sweep():
    x = lambda p: PowerSeries.x_power(p, 1)
    for (p, ap) in PAIRS_23:
        tt = period_constants(p, ap).two_tilde
        for n in (1, 2, 3):
            w = omega(p, n)
            for i in range(-2, tt + 1):
                assert x(p).mul(ladder(p, ap, n, i).det()) == w


def test_coefficient_matrix_factorization():
    for (p, ap) in PAIRS_23:
        tt = period_constants(p, ap).two_tilde
        for n in (1, 2, 3):
            base = ladder(p, ap, n, 0)
            for j in range(-tt, tt + 1):
                m = ladder(p, ap, n, j)
                d = delta_coeffs(p, ap, j)
                for col in range(2):
                    want = base.entries[0][col] * d.y + base.entries[1][col] * d.y_prime
                    assert m.entries[0][col] == want


def test_transformation_shifts_invert():
    for (p, ap) in PAIRS_23:
        for n in (1, 2):
            for i in (-2, -1, 0, 1, 2):
                low = ladder(p, ap, n, i)
                high = ladder(p, ap, n, i + 1)
                a = ap_parity_value(p, ap, i)
                for col in range(2):
                    assert high.entries[0][col] == low.entries[0][col] * a - low.entries[1][col]
                    assert high.entries[1][col] == low.entries[0][col]


def test_ladder_cap_truncates():
    m = ladder(3, 3, 2, 1, cap=4)
    full = ladder(3, 3, 2, 1)
    for col in range(2):
        for k in range(4):
            assert m.entries[0][col].coefficient_raw(k) == full.entries[0][col].coefficient_raw(k)
    assert m.cap == 4


@pytest.mark.parametrize("p, ap, n", [(3, 3, 2), (2, 2, 3)])
def test_ladder_cap_boundary(p, ap, n):
    # every level-n entry has degree below p^n, so cap = p^n truncates nothing
    # yet is kept; from p^n + 1 on the cap is dropped and the entries are polynomials
    full = ladder(p, ap, n, 1)
    assert max(s.degree() for row in full.entries for s in row) < p ** n
    kept, dropped = ladder(p, ap, n, 1, cap=p ** n), ladder(p, ap, n, 1, cap=p ** n + 1)
    assert kept.cap == p ** n and all(s.cap == p ** n for row in kept.entries for s in row)
    assert dropped.cap is None and all(s.cap is None for row in dropped.entries for s in row)
    ints = lambda m: [[s._ints for s in row] for row in m.entries]
    assert ints(kept) == ints(full) == ints(dropped)
    assert dropped.to_json() == full.to_json()


def test_ladder_json_round_trip():
    m = ladder(3, -3, 2, 1, cap=6)
    again = LadderMatrix.from_json(m.to_json())
    assert again.entries[0][0] == m.entries[0][0]
    assert (again.p, again.ap, again.level, again.index) == (3, -3, 2, 1)


def test_mod_omega_level_compatibility():
    # level n+1 rows reduced mod omega_n match the level-n rows at index i+1
    # after the diagonal scaling: diag(1/p, 1) for odd i, diag(1, 1/p) for even
    for (p, ap) in PAIRS_23:
        for n in (1, 2, 3):
            w = omega(p, n)
            for i in (-1, 0, 1, 2):
                up = ladder(p, ap, n + 1, i)
                down = ladder(p, ap, n, i + 1)
                scale_top = Fraction(1, p) if i % 2 != 0 else Fraction(1)
                scale_bot = Fraction(1) if i % 2 != 0 else Fraction(1, p)
                for col in range(2):
                    top = reduce_mod(up.entries[0][col], w).scale(scale_top)
                    bot = reduce_mod(up.entries[1][col], w).scale(scale_bot)
                    assert top == reduce_mod(down.entries[0][col], w), f"({p},{ap},{n},{i})"
                    assert bot == reduce_mod(down.entries[1][col], w), f"({p},{ap},{n},{i})"


# -- infinity level --------------------------------------------------------------


def test_infinity_determinant_normalized():
    # X * p^(N-n) * (theta_inf^1 ups_inf^0 - theta_inf^0 ups_inf^1) = log_p(1+X).
    # The raw determinant is log_p(1+X)/(pX) for odd p and log_2(1+X)/(4X) at
    # p = 2: the exact finite-level identity X*det = omega_n/p^N forces it.
    for (p, ap) in PAIRS_23 + [(5, 0)]:
        m = ladder_infinity(p, ap, 1, 24, 10)
        det = m.det(24)
        shift = 1 if p != 2 else 2
        lhs = PowerSeries.x_power(p, 1).mul(det, 24).scale(p ** shift)
        assert lhs.congruent(log_series(p, 24), 6)
        # and the unnormalized claim genuinely fails: det has constant term 1/p
        assert not det.congruent(log_series(p, 24), 6)


def test_infinity_row_recursion():
    for (p, ap) in [(3, 3), (2, -2), (5, 0)]:
        m1 = ladder_infinity(p, ap, 1, 16, 6)
        m0 = ladder_infinity(p, ap, 0, 16, 6)
        for col in range(2):
            top = m0.entries[0][col] * ap - m0.entries[1][col] * p
            assert m1.entries[0][col].congruent(top, 6)
            assert m1.entries[1][col].congruent(m0.entries[0][col], 6)


def test_infinity_stability_prec_plus_three():
    for (p, ap) in [(3, 3), (2, 2)]:
        lo = ladder_infinity(p, ap, 1, 12, 5)
        hi = ladder_infinity(p, ap, 1, 12, 8)
        for r in range(2):
            for c in range(2):
                assert lo.entries[r][c].congruent(hi.entries[r][c], 5)


def test_infinity_matches_exact_finite_scaling():
    # independent oracle for the integer limit engine: rebuild the stabilized
    # approximant from the exact Fraction-arithmetic finite ladder and the
    # p-power row scalings, and compare entrywise
    for (p, ap) in [(3, 3), (2, -2), (5, 0)]:
        cap, prec = 16, 6
        m = ladder_infinity(p, ap, 0, cap, prec)
        n = m.n_used
        N = n_shift(p, n)
        fin = ladder(p, ap, n, -N, cap=cap)
        for row, e in ((0, (0 - N) // 2), (1, (-1 - N) // 2)):
            for col in range(2):
                scaled = fin.entries[row][col].scale(Fraction(p) ** e)
                assert m.entries[row][col].congruent(scaled.truncate(cap), prec), \
                    f"(p={p}, ap={ap}, row={row}, col={col})"


def test_infinity_above_level_shift_matches_later_finite_levels():
    # indices above the level shift of the first levels start the limit at a
    # later level; the limit must still agree with every later scaled level
    for (p, ap) in [(2, 2), (2, -2), (3, 3), (3, -3), (3, 0), (5, 0)]:
        for i in (5, 10, 30):
            cap, prec = 6, 3
            m = ladder_infinity(p, ap, i, cap, prec)
            for n in range(m.n_used + 1, m.n_used + 4):
                N = n_shift(p, n)
                fin = ladder(p, ap, n, i - N, cap=cap)
                for row, idx in ((0, i), (1, i - 1)):
                    for col in range(2):
                        scaled = fin.entries[row][col].scale(Fraction(p) ** ((idx - N) // 2))
                        assert m.entries[row][col].congruent(scaled.truncate(cap), prec), \
                            f"(p={p}, ap={ap}, i={i}, n={n}, row={row}, col={col})"


def _n_start(p, i, cap):
    n = 1
    while p ** n < cap or n_shift(p, n) < i - 1:
        n += 1
    return n


def _fixed_modulus_chain(p, ap, cap, prec, idxs, phis):
    """The index-1 rows of levels 1 .. the last any i in idxs reads, every level
    kept mod one p^work: the largest of the fixed moduli sized for each i's step
    cap.  Each Phi_n(1+X) is built from exact binomials and reduced (memoised in
    phis)."""
    last = {i: _n_start(p, i, cap) + _max_limit_steps(p, cap, prec, i) for i in idxs}
    mod = max(p ** (prec + (last[i] + 3 + abs(i)) // 2 + 4) for i in idxs)
    rows, levels = [[[1], []], [[], [1]]], [None]
    for n in range(1, max(last.values()) + 1):
        if (p, n, cap) not in phis:
            phis[p, n, cap] = phi_coeffs(p, n, cap)
        if (p, n, cap, mod) not in phis:
            phis[p, n, cap, mod] = [c % mod for c in phis[p, n, cap]]
        phi_n = phis[p, n, cap, mod]
        top, bot = rows
        prods = [[c % mod for c in poly_mul(phi_n, y, cap)] for y in bot]
        rows = [[[(ap * a - b) % mod for a, b in zip_longest(x, prod, fillvalue=0)]
                 for x, prod in zip(top, prods)], top]
        levels.append(rows)
    return mod, levels


def _v(p, x):
    v = 0
    while x % p == 0:
        x, v = x // p, v + 1
    return v


def _congruent(p, a, b, prec):
    """Rows of (x, e) pairs, x / p^e, agree mod p^prec."""
    return all((x * sb - y * sa) % mod == 0
               for (xs, ea), (ys, eb) in zip(a, b)
               for sa, sb, mod in [(p ** ea, p ** eb, p ** (prec + ea + eb))]
               for x, y in zip_longest(xs, ys, fillvalue=0))


def _agreed_twice(p, prec, last, key, approx):
    """The package's former stopping rule, kept as the record of the values it
    accepted: approx (a list of (int poly, e) for poly / p^e) agrees mod p^prec
    with key's previous one, which agreed with the one before.  last keeps
    (approx, agreements) per key."""
    prev, agreements = last.get(key, (None, 0))
    agree = prev is not None and _congruent(p, prev, approx, prec)
    last[key] = approx, agreements + 1 if agree else 0
    return last[key][1] >= 2


def _numerators(p, xs, e, cap, prec):
    """The series of x / p^e mod p^prec below X^cap, for x in xs, each x read mod p^(prec + e)."""
    return PowerSeries.from_numerators(p, [x % p ** (prec + e) for x in xs], e, prec, cap)


def _fixed_modulus_limit(p, ap, i, cap, prec, corrupt, chain):
    """ladder_infinity read off a _fixed_modulus_chain: each level from n_start
    on shifted to index i, until two consecutive agreements mod p^prec."""
    mod, levels = chain
    n_start, max_steps = _n_start(p, i, cap), _max_limit_steps(p, cap, prec, i)
    last = {}
    for n in range(n_start, n_start + max_steps + 1):
        N = n_shift(p, n)
        shifted = shift_rows(p, ap, levels[n], i - N, mod, corrupt)
        exps = (-((i - N) // 2), -((i - 1 - N) // 2))
        approx = [(s, e) for row, e in zip(shifted, exps) for s in row]
        if _agreed_twice(p, prec, last, i, approx):
            entries = [[_numerators(p, s, e, cap, prec) for s, e in approx[r:r + 2]]
                       for r in (0, 2)]
            return LadderMatrix(p, ap, "infinity", i, entries, cap=cap, prec=prec, n_used=n)
    raise NotConverged(f"no stabilization mod {p}^{prec} within {max_steps} steps "
                       f"(p={p}, a_p={ap}, i={i}, cap={cap})")


def _outcome(fn):
    try:
        m = fn()
    except Exception as exc:  # the type and text must match too
        return type(exc).__name__, str(exc)
    return json.dumps(m.to_json()), getattr(m, "n_used", None)


def test_precision_schedule_matches_fixed_modulus():
    # the growing schedule and the computed stopping level against one fixed
    # p^work per (p, a_p, cap, prec), one chain read at every index under the
    # former rule: every value has the reference's bytes, at a level no later
    # than the reference's.  Under the parity fault the other outcomes are the
    # step guard's IdentityViolation, or a value where the reference found none,
    # which then has the fault-free limit's bytes (16 cases here, all at prec 1:
    # 10 at p = 2, and 6 at p = 3 read one level past the fault-free n_used)
    phis, idxs = {}, range(-3, 13)
    for p, ap in PAIRS_8:
        for cap in (1, 5, 20, 60):
            for prec in (1, 3, 5, 12):
                chain = _fixed_modulus_chain(p, ap, cap, prec, idxs, phis)
                for i in idxs:
                    for corrupt in (False, True):
                        where = (p, ap, i, cap, prec, corrupt)
                        got = _outcome(lambda: ladder_infinity(p, ap, i, cap, prec, corrupt))
                        ref = _outcome(lambda: _fixed_modulus_limit(p, ap, i, cap, prec,
                                                                    corrupt, chain))
                        if type(got[1]) is type(ref[1]) is int:
                            assert got[0] == ref[0] and got[1] <= ref[1], where
                        elif got[0] != "IdentityViolation":
                            clean = _outcome(lambda: ladder_infinity(p, ap, i, cap, prec))
                            assert corrupt and ref[0] == "NotConverged", where
                            assert got[0] == clean[0], where
                        else:
                            assert corrupt, where


def _log_floor(p, m):
    return max(k for k in range(m.bit_length()) if p ** k <= m)


def _scaled_rows(p, ap, n, i, cap):
    """Level n's exact rows (i, i-1) as (x, e) pairs for x / p^e, row j = i - N
    scaled by p^[j/2]."""
    j = i - n_shift(p, n)
    return [(s, -(idx // 2)) for row, idx in zip(ladder_rows(p, ap, n, j, cap), (j, j - 1))
            for s in row]


def _n_star(p, ap, i, cap):
    """prec -> the stopping level max(n_start + 2, prec + L + c + 1), with
    c = max(e - v_p(x)) over the exact scaled start-level rows x / p^e and
    p^L <= cap - 1 < p^(L+1); n_start + 2 at cap 1."""
    n = _n_start(p, i, cap)
    if cap == 1:
        return lambda prec: n + 2
    c = max(e - _v(p, x) for xs, e in _scaled_rows(p, ap, n, i, cap) for x in xs if x)
    return lambda prec: max(n + 2, prec + _log_floor(p, cap - 1) + c + 1)


def test_step_bound_holds_at_every_level():
    # the lemma behind n*: past n_start each level moves the scaled rows by a
    # valuation of at least s_n - c - 1, s_n = n - 1 - L, c read at n_start
    # (exact rows, no modulus).  It is attained at p = 2; at odd p every move
    # clears it by a digit or more (s_n - c, attained but not proved), the one
    # level that n* pays there for the proof
    slack, proved = [], {}
    for p, ap in PAIRS_8:
        for cap in (2, 3, 5, 20):
            L = _log_floor(p, cap - 1)
            for i in range(-3, 9):
                n0 = _n_start(p, i, cap)
                prev = _scaled_rows(p, ap, n0, i, cap)
                c = max(e - _v(p, x) for xs, e in prev for x in xs if x)
                for n in range(n0 + 1, n0 + 6):
                    rows = _scaled_rows(p, ap, n, i, cap)
                    moved = [_v(p, x * p ** f - y * p ** e) - e - f
                             for (xs, e), (ys, f) in zip(rows, prev)
                             for x, y in zip_longest(xs, ys, fillvalue=0) if x * p ** f != y * p ** e]
                    if moved:
                        slack.append(min(moved) - (n - 1 - L - c - (p == 2)))
                        least = proved.get((p, ap), math.inf)
                        proved[p, ap] = min(least, min(moved) - (n - 2 - L - c))
                    prev = rows
    assert min(slack) == 0
    assert proved == {(p, ap): int(p != 2) for p, ap in PAIRS_8}


def _limit_sweep_failures():
    """(where, what) for each request of the sweep whose limit differs mod p^prec
    from its limit at prec + 10 ("value"), whose n_used is not the test-local n*
    ("level"), or that raised (the error)."""
    failures, precs = [], (1, 3, 5, 12)
    for p, ap in PAIRS_8:
        for cap in (1, 2, 3, 5, 20, 60):
            requests = [(i, prec) for i in range(-3, 13) for prec in precs]
            found = _limits(p, ap, requests, cap)
            finer = _limits(p, ap, [(i, prec + 10) for i, prec in requests], cap)
            for i in range(-3, 13):
                n_star = _n_star(p, ap, i, cap)
                for prec in precs:
                    where = (p, ap, i, cap, prec)
                    try:
                        n, approx = ladders._read(found, (i, prec))
                        fine = ladders._read(finer, (i, prec + 10))[1]
                    except PadicLaddersError as exc:
                        failures.append((where, type(exc).__name__))
                        continue
                    if not _congruent(p, approx, fine, prec):
                        failures.append((where, "value"))
                    if n != n_star(prec):
                        failures.append((where, "level"))
    return failures


def _one_level_short(monkeypatch):
    real = ladders._stop_level

    def short(p, cap, prec, start, *args):
        n, t = real(p, cap, prec, start, *args)
        return max(n - 1, start + 2), t

    monkeypatch.setattr(ladders, "_stop_level", short)


def test_limits_stop_at_the_computed_level(monkeypatch):
    # every limit of the sweep is right mod p^prec (it agrees with the limit at
    # prec + 10) and stops at n*; with n* one level short the sweep finds
    # wrong limits, not only moved levels
    assert _limit_sweep_failures() == []
    _one_level_short(monkeypatch)
    failures = _limit_sweep_failures()
    assert {what for _, what in failures} >= {"value", "level"}


PARITY_SWEEP = [(p, parity, cap, prec) for p in (3, 5, 7) for parity in ("even", "odd")
                for cap in (1, 2, 5, 13, 20, 60) for prec in (1, 3, 5, 12)]


def _k_star(p, parity, cap, prec):
    """The parity product's stopping factor max(d + 2, ceil((prec + n0 + 1 + c -
    j_1) / 2)): d the factors j <= n0 (p^n0 >= cap, n0 >= 1 least), c = max(d -
    v_p(P_d)) over their exact product P_d; d + 2 at cap 1."""
    n0, j1 = _n_start(p, 1, cap), 2 if parity == "even" else 1
    js = range(j1, n0 + 1, 2)
    P = [1]
    for j in js:
        P = poly_mul(P, phi_coeffs(p, j, cap), cap)
    if cap == 1:
        return len(js) + 2
    c = max(len(js) - _v(p, x) for x in P if x)
    return max(len(js) + 2, -(-(prec + n0 + 1 + c - j1) // 2))


def _parity_sweep_failures(monkeypatch):
    """As _limit_sweep_failures, for the parity products: their factor count
    (phi_mul calls) against the test-local k*."""
    factors, real = [0], ladders.phi_mul

    def phi_mul(*args):
        factors[0] += 1
        return real(*args)

    monkeypatch.setattr(ladders, "phi_mul", phi_mul)
    failures = []
    for where in PARITY_SWEEP:
        p, parity, cap, prec = where
        factors[0] = 0
        try:
            got, count = pollack_product(*where), factors[0]
            fine = pollack_product(p, parity, cap, prec + 10)
        except PadicLaddersError as exc:
            failures.append((where, type(exc).__name__))
            continue
        if count != _k_star(*where):
            failures.append((where, "level"))
        if not got.congruent(fine, prec):
            failures.append((where, "value"))
    monkeypatch.setattr(ladders, "phi_mul", real)
    return failures


def test_parity_products_stop_at_the_computed_factor(monkeypatch):
    # as the limit sweep; one factor short, the guard (here a proved bound) or
    # the value catches it, not only the factor count
    assert _parity_sweep_failures(monkeypatch) == []
    _one_level_short(monkeypatch)
    failures = _parity_sweep_failures(monkeypatch)
    assert {what for _, what in failures} - {"level"}


PAIRS_8 = [(2, 0), (2, 2), (2, -2), (3, 0), (3, 3), (3, -3), (5, 0), (7, 0)]


def _request_sets(p, ap, prec):
    """Request lists (index, prec) for one level loop: several precisions per
    index in both orders, the check suite's five requests in its order and
    reversed, and indices below 0 and above the level shift."""
    tt = period_constants(p, ap).two_tilde
    suite = [(0, prec + 2), (1, prec + 4), (1, prec), (0, prec), (1 - tt, prec + 2)]
    return [[(1, prec), (1, prec + 4)], [(1, prec + 4), (1, prec)], suite, suite[::-1],
            [(0, prec), (1 - tt, prec)], [(-3, prec), (12, prec + 2), (5, prec), (-3, prec + 1)]]


def _read_limit(p, ap, request, cap, found):
    i, prec = request
    return _outcome(lambda: _limit_matrix(p, ap, i, cap, prec, ladders._read(found, request)))


def test_shared_level_loop_matches_separate_limits(monkeypatch):
    # one level loop for several (index, prec) requests gives each request the
    # bytes and n_used of its own single-request call; a request that does not
    # stabilize under a small step cap holds exactly its own NotConverged text,
    # and the others still converge
    mixed = 0
    for steps in (None, "3", "6"):
        if steps is not None:
            monkeypatch.setenv(ENV_MAX_LIMIT_STEPS, steps)
        for p, ap in PAIRS_8:
            for cap, prec in ((1, 1), (5, 3), (20, 5)):
                for corrupt in (False, True):
                    refs = {}
                    for requests in _request_sets(p, ap, prec):
                        where = (steps, p, ap, requests, cap, corrupt)
                        for r in requests:
                            if r not in refs:
                                refs[r] = _read_limit(p, ap, r, cap,
                                                      _limits(p, ap, [r], cap, corrupt))
                        found = _limits(p, ap, requests, cap, corrupt)
                        assert sorted(found) == sorted(set(requests)), where
                        got = [_read_limit(p, ap, r, cap, found) for r in requests]
                        assert got == [refs[r] for r in requests], where
                        failed = {ref[0] == "NotConverged" for ref in got}
                        mixed += failed == {True, False}
    assert mixed > 50  # step caps that stop some requests of a call and not others


def test_level_loop_shifts_three_levels_per_request(monkeypatch, fresh_rows):
    # a request shifts the full rows of its start level, n* - 1 and n* only: at
    # cap 200 at most 3 * 4 * 200 coefficients (the former head-first loop
    # shifted 5,984-9,968), and append_factor runs max(n*) times per call
    counts, real_shift, real_step = [0, 0], ladders.shift_rows, ladders.append_factor

    def shift(p, ap, rows, *args):
        counts[0] += sum(len(x) for row in rows for x in row)
        return real_shift(p, ap, rows, *args)

    def step(*args):
        counts[1] += 1
        return real_step(*args)

    monkeypatch.setattr(ladders, "shift_rows", shift)
    monkeypatch.setattr(ladders, "append_factor", step)
    for p, ap in [(2, 2), (2, -2), (3, 3), (3, -3), (3, 0), (5, 0)]:
        for i in (0, 1):
            counts[:] = [0, 0]
            m = ladder_infinity(p, ap, i, 200, 26)
            assert counts[0] <= 3 * 4 * 200 and counts[1] == m.n_used, (p, ap, i, counts)
    counts[:] = [0, 0]
    found = _limits(3, 3, _half_log_requests(3, 3, 20), 200)
    assert counts[1] == max(n for n, _ in found.values())
    counts[:] = [0, 0]
    half_logs(3, 3, 200, 20)
    assert counts == [4800, max(n for n, _ in found.values())]  # the former loop: 14,304


def test_pollack_schedule_matches_fixed_modulus():
    cases = [(p, parity, cap, prec) for p in (3, 5, 7) for parity in ("even", "odd")
             for cap in (1, 2, 5, 13, 20, 60) for prec in (1, 3, 5, 12)]
    # at cap 200 the heads of two products agree before their whole rows do, so a
    # stopping rule that compares heads only stops early
    for p, parity, cap, prec in cases + [(3, "even", 200, 22)]:
        max_steps = math.ceil(math.log(max(cap, 2), p)) + prec + 10
        mod = p ** (prec + max_steps)
        P, last = [1], {}
        for k, j in enumerate(range(2 if parity == "even" else 1, 2 * max_steps + 1, 2), 1):
            P = [c % mod for c in poly_mul(P, phi_coeffs(p, j, cap), cap)]
            if _agreed_twice(p, prec, last, 0, [(P, k)]):
                break
        want = _numerators(p, P, k, cap, prec).to_json()
        got = pollack_product(p, parity, cap, prec)
        assert got.to_json() == want, (p, parity, cap, prec)
        _assert_canonical(got)


def _assert_canonical(series):
    # each limit coefficient is built already reduced
    for c in series.coeffs:
        r = c.reduce()
        assert (c.value, c.absprec) == (r.value, r.absprec)


def test_step_cap_does_not_change_the_limit(monkeypatch):
    # a step cap that just reaches n_used leaves every byte as it is
    for p, ap in [(2, 2), (2, -2), (3, 3), (3, -3), (3, 0), (5, 0), (7, 0)]:
        for i, cap, prec in ((0, 20, 6), (1, 60, 9), (7, 5, 3)):
            m = ladder_infinity(p, ap, i, cap, prec)
            for row in m.entries:
                for s in row:
                    _assert_canonical(s)
            monkeypatch.setenv(ENV_MAX_LIMIT_STEPS, str(m.n_used - _n_start(p, i, cap) + 1))
            again = ladder_infinity(p, ap, i, cap, prec)
            monkeypatch.delenv(ENV_MAX_LIMIT_STEPS)
            assert (again.to_json(), again.n_used) == (m.to_json(), m.n_used)


def test_default_step_cap_reaches_low_indices(monkeypatch):
    # the level a limit needs grows by one per two steps below index 0; the
    # default cap follows it, so the limit is the one a generous cap gives
    for p, ap in [(2, 2), (3, 3), (5, 0)]:
        for i in (-16, -40, -60):
            m = ladder_infinity(p, ap, i, 5, 3)
            monkeypatch.setenv(ENV_MAX_LIMIT_STEPS, "400")
            again = ladder_infinity(p, ap, i, 5, 3)
            monkeypatch.delenv(ENV_MAX_LIMIT_STEPS)
            assert (m.to_json(), m.n_used) == (again.to_json(), again.n_used), (p, ap, i)


def test_step_caps_count_levels_in_integers(monkeypatch):
    # the least n with p^n >= cap, by the integer loop of n_start; the float
    # ceil(log(cap, p)) read 4, 7 and 6 at these three caps
    for p, cap, levels in ((5, 125, 3), (5, 15625, 6), (7, 16807, 5)):
        assert _max_limit_steps(p, cap, 1, 0) == levels + 2 * 1 + 8
    monkeypatch.setattr(ladders, "_stop_level", lambda *args: (10 ** 6, 1))  # past every cap
    with pytest.raises(NotConverged, match="within 13 steps"):
        ladder_infinity(5, 0, 0, 125, 1)
    with pytest.raises(NotConverged, match="within 14 factors"):
        pollack_product(5, "even", 125, 1)


def test_infinity_entries_carry_prec():
    m = ladder_infinity(3, 3, 1, 8, 5)
    assert m.level == "infinity" and m.prec == 5
    for row in m.entries:
        for s in row:
            for c in s.coeffs:
                assert c.absprec is None or c.absprec == 5


def test_env_var_overrides_step_cap():
    os.environ[ENV_MAX_LIMIT_STEPS] = "1"
    try:
        with pytest.raises(NotConverged):
            ladder_infinity(3, 3, 1, 12, 6)
    finally:
        del os.environ[ENV_MAX_LIMIT_STEPS]


def test_ap_zero_theta_limit_is_scaled_even_product():
    # at a_p = 0 the theta limit at index 0 is -(even parity product)/p
    p, cap, prec = 3, 30, 6
    m0 = ladder_infinity(p, 0, 0, cap, prec + 2)
    even = pollack_product(p, "even", cap, prec + 2)
    assert m0.theta_top.scale(p).congruent(-even, prec)


def test_ap_zero_vanishing_rows():
    # Resolved numerically: for a_p = 0 and odd p the limits theta_inf^{-1}
    # and ups_inf^0 vanish identically (their scaled approximants alternate
    # between 0-rows), so the half-logs collapse to single parity products.
    for p in (3, 5):
        m0 = ladder_infinity(p, 0, 0, 20, 8)
        zero = PowerSeries.zero(p)
        assert m0.theta_bot.congruent(zero, 8)      # theta_inf^{-1} = 0
        assert m0.upsilon_top.congruent(zero, 8)    # ups_inf^0 = 0


# -- half-logarithms ---------------------------------------------------------------


def test_half_logs_intrinsic_pairs_explicitly():
    # the (0,1)- and (two_tilde-1, two_tilde)-variants agree mod p^8, cap 50
    for (p, ap) in [(3, 3), (2, -2)]:
        tt = period_constants(p, ap).two_tilde
        hl = half_logs(p, ap, 50, 8)
        m = ladder_infinity(p, ap, 1 - tt, 50, 10)
        v_theta, v_ups = intrinsic_variant(p, ap, m, tt - 1, tt)
        assert v_theta.congruent(hl.log_theta, 8)
        assert v_ups.congruent(hl.log_upsilon, 8)


def _half_logs_from_two_limits(p, ap, cap, prec):
    """half_logs built from two ladder_infinity calls, checked on QuadExtSeries."""
    tt = period_constants(p, ap).two_tilde
    m0 = ladder_infinity(p, ap, 0, cap, prec + 2)
    log_theta = combine_with_conjugate_root(p, ap, m0.theta_top, m0.theta_bot)
    log_upsilon = combine_with_conjugate_root(p, ap, m0.upsilon_top, m0.upsilon_bot)
    variants = [intrinsic_variant(p, ap, m0, 0, 1)]
    m_shift = ladder_infinity(p, ap, 1 - tt, cap, prec + 2)
    variants.append(intrinsic_variant(p, ap, m_shift, tt - 1, tt))
    for v_theta, v_upsilon in variants:
        if not (v_theta.congruent(log_theta, prec) and v_upsilon.congruent(log_upsilon, prec)):
            raise IdentityViolation(f"intrinsicness cross-check failed for (p, a_p) = "
                                    f"({p}, {ap}) at precision {prec}")
    return HalfLogPair(p, ap, "alpha", log_theta, log_upsilon, cap, prec)


def test_half_logs_match_two_limit_construction(monkeypatch):
    # one loop and the integer check against two limits and the series check:
    # same bytes, same exception type and text, also under small step caps
    for steps in (None, "2", "5", "12"):
        if steps is not None:
            monkeypatch.setenv(ENV_MAX_LIMIT_STEPS, steps)
        for p, ap in PAIRS_8:
            for cap in (1, 5, 20, 60):
                for prec in (1, 3, 5, 12):
                    got = _outcome(lambda: half_logs(p, ap, cap, prec))
                    ref = _outcome(lambda: _half_logs_from_two_limits(p, ap, cap, prec))
                    assert got == ref, (steps, p, ap, cap, prec)


def test_half_logs_integer_check_catches_faults(monkeypatch):
    # a wrong beta, or a unit added to any one of the eight limit rows the
    # check reads, must fail the intrinsicness check
    pairs = [(2, 2), (2, -2), (3, 3), (3, 0), (5, 0)]
    real_beta, real_limits = ladders.beta, ladders._limits
    monkeypatch.setattr(ladders, "beta", lambda p, ap, m: -real_beta(p, ap, m))
    for p, ap in pairs:
        with pytest.raises(IdentityViolation):
            half_logs(p, ap, 20, 5)
    monkeypatch.setattr(ladders, "beta", real_beta)

    def corrupted(idx, row, k):  # adds p^k to the constant term of one row
        def limits(p, ap, requests, cap, *args):
            found = real_limits(p, ap, requests, cap, *args)
            key = next(r for r in requests if r[0] == idx(p, ap))  # the request at idx
            n, approx = found[key]
            x, e = approx[row]
            approx = list(approx)
            approx[row] = ([(x[0] if x else 0) + p ** (e + k)] + x[1:], e)
            found[key] = n, approx
            return found
        return limits

    at_0 = lambda p, ap: 0
    at_shift = lambda p, ap: 1 - period_constants(p, ap).two_tilde
    for p, ap in pairs:
        half_logs(p, ap, 20, 5)  # passes untouched
    for idx in (at_0, at_shift):
        for row in range(4):
            monkeypatch.setattr(ladders, "_limits", corrupted(idx, row, 0))
            for p, ap in pairs:
                with pytest.raises(IdentityViolation):
                    half_logs(p, ap, 20, 5)
        # at a_p = 0 a top-row theta error moves a coordinate by itself:
        # valuation prec - 1 is caught, valuation prec is below the check
        for p in (3, 5):
            monkeypatch.setattr(ladders, "_limits", corrupted(idx, 0, 4))
            with pytest.raises(IdentityViolation):
                half_logs(p, 0, 20, 5)
            monkeypatch.setattr(ladders, "_limits", corrupted(idx, 0, 5))
            half_logs(p, 0, 20, 5)


def test_half_logs_pollack_normalization():
    # a_p = 0, p odd: log_theta = -(even product)/p and
    # log_upsilon = -(odd product)/p * alpha, exactly the remark's pair
    # (-log^+, -log^- alpha) under log^pm = (parity product)/p.
    for p in (3, 5):
        hl = half_logs(p, 0, 24, 6)
        even = pollack_product(p, "even", 24, 8)
        odd = pollack_product(p, "odd", 24, 8)
        zero = PowerSeries.zero(p)
        assert hl.log_theta.b.congruent(zero, 6)
        assert hl.log_theta.a.scale(p).congruent(-even, 6)
        assert hl.log_upsilon.a.congruent(zero, 6)
        assert hl.log_upsilon.b.scale(p).congruent(-odd, 6)


def test_half_logs_growth_profile():
    # |log^theta|_r and |log^ups|_r track (1/2)|log_p(1+X)|_r within a
    # constant at r = p^(-1/2), p^(-1/4); observed deviations lie in
    # [3/4, 3/2], so 2 is a safe frozen bound.
    bound = Fraction(2)
    for (p, ap) in PAIRS_23:
        hl = half_logs(p, ap, 60, 8)
        for s in (Fraction(1, 2), Fraction(1, 4)):
            half_log_norm = gauss_norm_log(log_series(p, 60), s) / 2
            for comp in (hl.log_theta, hl.log_upsilon):
                dev = comp.gauss_norm_log(s) - half_log_norm
                assert abs(dev) <= bound


def test_half_log_json_round_trip():
    hl = half_logs(3, 3, 10, 4)
    again = HalfLogPair.from_json(hl.to_json())
    assert again.log_theta.congruent(hl.log_theta, 4)
    assert again.log_upsilon.congruent(hl.log_upsilon, 4)
    assert (again.p, again.ap, again.cap, again.prec) == (3, 3, 10, 4)


def test_half_log_congruence_stops_at_the_parts_precision():
    # every part of a half-log at prec is known mod p^(prec + 2), so QuadExtSeries.congruent
    # answers up to there (against the half-logs at prec + 1) and raises one digit past it
    for p, ap in ((3, 3), (2, -2), (5, 0)):
        hl, finer = half_logs(p, ap, 12, 4), half_logs(p, ap, 12, 5)
        for log, fine in ((hl.log_theta, finer.log_theta), (hl.log_upsilon, finer.log_upsilon)):
            assert {c.absprec for s in (log.a, log.b) for c in s.coeffs} == {6}
            assert log.congruent(fine, 6)
            with pytest.raises(PrecisionExhausted, match=f"^congruence mod {p}\\^7 of a scalar "
                                                         f"known mod {p}\\^6$"):
                log.congruent(fine, 7)


def test_half_log_json_round_trip_is_byte_exact():
    # from_json(to_json(x)) serializes to the same bytes, on fresh half-logs
    # and on the recorded golden artifact
    dump = lambda pair: json.dumps(pair.to_json(), indent=2)
    for p, ap in PAIRS_6:
        text = dump(half_logs(p, ap, 30, 6))
        assert dump(HalfLogPair.from_json(json.loads(text))) == text, (p, ap)
    golden = (Path(__file__).parent / "golden" / "halflog_3_0.stdout").read_text()
    assert dump(HalfLogPair.from_json(json.loads(golden))) + "\n" == golden


def test_quadext_gauss_norm_is_coefficientwise():
    # |a_k + b_k alpha| = p^-min(v(a_k), v(b_k) + 1/2), maximised over k
    hl = half_logs(3, 3, 30, 6)
    for comp in (hl.log_theta, hl.log_upsilon):
        for s in (Fraction(1, 2), Fraction(1, 6), 2):
            best = None
            for k in range(max(len(comp.a.coeffs), len(comp.b.coeffs))):
                vals = []
                for part, shift in ((comp.a, 0), (comp.b, Fraction(1, 2))):
                    c = part.coefficient_raw(k)
                    if not c.is_exact_zero():
                        vals.append((c.absprec if c.is_zero() else c.valuation()) + shift)
                if vals:
                    cand = -min(vals) - k * s
                    best = cand if best is None else max(best, cand)
            assert comp.gauss_norm_log(s) == best


@pytest.mark.parametrize("edit", [
    lambda d: d["log_theta"].update(cap="abc"),
    lambda d: d.update(cap="abc"),
    lambda d: d["log_upsilon"]["coeffs"][0].pop("b"),
    lambda d: d["log_theta"].update(coeffs=5),
    lambda d: d["log_upsilon"].pop("coeffs"),
    lambda d: d.update(p="abc"),
    lambda d: d.update(ap=None),
    lambda d: d.pop("ap"),
    lambda d: d.update(log_theta=5),
    lambda d: d["log_theta"].update(ap="q"),
    lambda d: d.pop("log_upsilon"),
    lambda d: d.update(root_tag=[1]),
], ids=["series-cap-not-int", "pair-cap-not-int", "coeff-without-b", "coeffs-not-list",
        "coeffs-missing", "p-not-int", "ap-null", "ap-missing", "series-not-object",
        "series-ap-not-int", "series-missing", "root-tag-not-string"])
def test_half_log_from_json_rejects_bad_fields(edit):
    data = half_logs(3, 3, 6, 3).to_json()
    edit(data)
    with pytest.raises(SerializationError):
        HalfLogPair.from_json(data)


@pytest.mark.parametrize("edit", [
    lambda d: d.update(entries=5),
    lambda d: d.update(entries=[5, 6]),
    lambda d: d.update(entries=[[5, 6], [7, 8]]),
    lambda d: d["entries"].pop(),
    lambda d: d.update(p="x"),
    lambda d: d.pop("ap"),
    lambda d: d.update(level="x"),
    lambda d: d.update(index=None),
    lambda d: d.update(cap="abc"),
    lambda d: d.update(prec=[1]),
    lambda d: d["entries"][0][0].pop("p"),
    lambda d: d.update(level="infinity", cap=6),
    lambda d: d.update(level="infinity", prec=5),
    5, [], "x", None,
], ids=["entries-not-list", "rows-not-lists", "entry-not-object", "one-row", "p-not-int",
        "ap-missing", "level-not-int", "index-not-int", "cap-not-int", "prec-not-int",
        "series-p-missing", "infinity-prec-null", "infinity-cap-null",
        "int", "list", "string", "null"])
def test_ladder_matrix_from_json_rejects_bad_fields(edit):
    data = ladder(3, 3, 1, 1).to_json()
    if callable(edit):
        edit(data)
    else:  # the whole document is not an object
        data = edit
    with pytest.raises(SerializationError):
        LadderMatrix.from_json(data)


def test_reference_scale_matches_integer_coordinates():
    # the tests' coefficient-by-coefficient product by a Z[alpha] scalar
    # against the integer coordinates the package uses:
    # (a + b alpha)(sa + sb alpha) = (a sa - p b sb) + (a sb + b sa + a_p b sb) alpha
    import random

    from padic_ladders.ladders import QuadExtSeries

    rng = random.Random(59)
    for _ in range(40):
        p, ap = rng.choice(PAIRS_23)
        n = rng.randint(1, 6)
        a = [rng.randint(-9, 9) for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        s = QuadExtScalar.from_rationals(p, ap, rng.randint(-9, 9), rng.randint(-9, 9))
        out = zalpha_scale(QuadExtSeries(p, ap, poly(p, a), poly(p, b)), s)
        den, (sa, sb) = _int_coords([s])
        assert den == 1
        bs = [sb * x for x in b]
        assert out.a == poly(p, _lincomb(sa, a, -p, bs, None))
        assert out.b == poly(p, _lincomb(1, _lincomb(sb, a, sa, b, None), ap, bs, None))


@pytest.mark.parametrize("op", ["eq", "congruent"])
def test_quadext_series_mixed_extension_rejected(op):
    from padic_ladders.ladders import QuadExtSeries

    def same_coeffs(p, ap):
        return QuadExtSeries(p, ap, poly(p, [1, 2]), poly(p, [0, 1]))

    compare = (lambda f, g: f == g) if op == "eq" else (lambda f, g: f.congruent(g, 4))
    with pytest.raises(MixedExtension, match=r"\(p, a_p\) = \(3, 3\) vs \(3, -3\)"):
        compare(same_coeffs(3, 3), same_coeffs(3, -3))
    with pytest.raises(MixedExtension):
        compare(same_coeffs(3, 3), same_coeffs(2, 2))
    assert compare(same_coeffs(3, -3), same_coeffs(3, -3))
    with pytest.raises(TypeError):
        same_coeffs(3, 3).congruent(poly(3, [1, 2]), 4)


def test_quadext_series_json_pads_the_shorter_part():
    # the artifact's (a, b) pairs are the parts' own encodings, the shorter part
    # padded with exact zeros; a zero known only mod 3^2 stays tracked
    from padic_ladders.ladders import QuadExtSeries

    ints = PowerSeries(3, [1, -2, 0, 4], 6)
    scalars = PowerSeries(3, [PadicScalar(3, Fraction(1, 3), 4), PadicScalar(3, 0, 2)], 6)
    for a, b in ((ints, scalars), (scalars, ints), (ints, PowerSeries.zero(3, 6))):
        f = QuadExtSeries(3, 0, a, b)
        n = max(len(a.coeffs), len(b.coeffs))
        assert f.to_json()["coeffs"] == [
            {"a": a.coefficient_raw(k).to_json(), "b": b.coefficient_raw(k).to_json()}
            for k in range(n)]
        assert QuadExtSeries.from_json(json.loads(json.dumps(f.to_json()))) == f


def test_mul_cap_equals_truncated_full_product():
    import random

    rng = random.Random(61)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        f = poly(p, [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))])
        g = poly(p, [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))])
        cap = rng.randint(1, 10)
        assert f.mul(g, cap) == f.mul(g).truncate(cap)


# -- parity products -----------------------------------------------------------------


def test_pollack_product_contains_even_factor():
    # untruncated partial product: the Phi_2 factor is exact, remainder 0
    partial = phi(3, 2).mul(phi(3, 4)).scale(Fraction(1, 9))
    assert reduce_mod(partial, phi(3, 2)).is_zero()
    # X-truncation wraps high-degree coefficients into the remainder, so the
    # stabilized product vanishes at the even-level root only to a valuation
    # that grows with cap (about cap/6 here): 4 at cap 30, uniform zero-at-
    # precision by cap 90.
    rem30 = reduce_mod(pollack_product(3, "even", 30, 14), phi(3, 2))
    assert rem30.congruent(PowerSeries.zero(3), 4)
    rem90 = reduce_mod(pollack_product(3, "even", 90, 14), phi(3, 2))
    assert rem90.is_zero()


def test_pollack_product_constant_term_one():
    for parity in ("even", "odd"):
        prod = pollack_product(3, parity, 12, 8)
        assert prod.coefficient_raw(0) == PadicScalar.one(3)


def _fraction_parity_product(p, parity, cap, factors):
    """prod of Phi_j(1+X)/p over the first `factors` j of the parity, mod X^cap.

    Plain Fraction lists from math.comb, independent of the package's core.
    """
    import math

    out = [Fraction(1)] + [Fraction(0)] * (cap - 1)
    for j in range(2 if parity == "even" else 1, 2 * factors + 1, 2):
        q = p ** (j - 1)
        factor = [Fraction(sum(math.comb(q * t, k) for t in range(p)), p) for k in range(cap)]
        out = [sum(out[i] * factor[k - i] for i in range(k + 1)) for k in range(cap)]
    return out


def test_pollack_partial_product_oracle():
    # two-factor partial product by direct expansion; the stabilized product
    # agrees with it modulo 3^3 on cap 10 (the Phi_6 tail enters at 3^3)
    direct = phi(3, 2).mul(phi(3, 4)).truncate(10).scale(Fraction(1, 9))
    trunc = phi_truncated(3, 2, 10).mul(phi_truncated(3, 4, 10), 10).scale(Fraction(1, 9))
    assert trunc == direct
    full = pollack_product(3, "even", 10, 12)
    assert full.congruent(direct, 3)
    assert not full.congruent(direct, 6)
    # 60 factors, well past where the tail factors Phi_j/p are 1 mod p^prec
    # below X^20
    for p in (3, 5, 7):
        for parity in ("even", "odd"):
            ref = _fraction_parity_product(p, parity, 20, 60)
            for cap in (1, 2, 7, 13, 20):
                for prec in (1, 3, 5):
                    got = pollack_product(p, parity, cap, prec)
                    assert got.cap == cap
                    for k in range(cap):
                        c = got.coefficient_raw(k)
                        assert c.absprec == prec
                        assert c.congruent(PadicScalar.exact(p, ref[k]), prec), (p, parity, cap, prec, k)


def test_pollack_product_rejects_p2():
    with pytest.raises(ValueError):
        pollack_product(2, "even", 10)


# -- kappa identity ---------------------------------------------------------------


def test_kappa_identity_examples():
    assert kappa_identity_check(3, 3, 1, 1).passed
    assert kappa_identity_check(2, 2, 2, 3).passed
    assert kappa_identity_check(3, 0, 2, 1).passed


def test_kappa_identity_sweep():
    for (p, ap) in PAIRS_23:
        for n in (1, 2):
            for i in (1, 2):
                assert kappa_identity_check(p, ap, n, i).passed
