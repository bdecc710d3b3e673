"""Acceptance battery: one test per numbered criterion, at the stated
tolerance and time budget, printing one PASS/FAIL line per criterion
(run with `pytest -s tests/test_acceptance.py -v` to see the lines).

Criterion 8 is asserted literally as stated and is expected to fail: the
scaled-limit determinant provably equals log_p(1+X) / (p^(N-n) X), not
log_p(1+X) itself (the exact finite-level identity X*det = omega_n/p^N
survives the limit).  Criterion 8a alongside verifies that corrected
identity to the same tolerance; the decisions ledger has the analysis.
"""

import random
import time
from fractions import Fraction

import pytest

from padic_ladders.coleman import (
    decompose,
    kernel_basis,
    kernel_member,
    limit_lemma_check,
    phi_apply,
    LambdaPair,
)
from padic_ladders.curves import CurveData, ap as curve_ap
from padic_ladders.ladders import (
    half_logs,
    kappa_identity_check,
    ladder,
    ladder_infinity,
    pollack_product,
)
from padic_ladders.series import (
    PowerSeries,
    eval_at_root,
    gauss_norm_log,
    log_series,
    omega,
    phi,
)
from padic_ladders.trace import (
    PRINTED_TABLE,
    a_matrix,
    delta_coeffs,
    delta_table,
    mat_pow,
    period_constants,
    trace_matrix,
)
from zalpha_reference import intrinsic_variant

PAIRS_P23 = [(2, 0), (2, 2), (2, -2), (3, 0), (3, 3), (3, -3)]
PAIRS_ALL = PAIRS_P23 + [(5, 0), (7, 0)]
INFINITY_CONFIGS = [(2, 2), (2, -2), (3, 3), (3, -3), (3, 0), (5, 0)]
INFINITY_CAP = 200
INFINITY_PREC = 20
INFINITY_WORK = 26  # internal precision so det products stay determined mod p^20


def finish(num, name, t0, budget):
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {num} took {dt:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {num} {name}: PASS ({dt:.2f}s)")


def determined_mod(series, k):
    return all(c.absprec is None or c.absprec >= k for c in series.coeffs)


@pytest.fixture(scope="module")
def infinity_cache():
    cache = {}
    for (p, ap) in INFINITY_CONFIGS:
        t0 = time.perf_counter()
        m1 = ladder_infinity(p, ap, 1, INFINITY_CAP, INFINITY_WORK)
        m0 = ladder_infinity(p, ap, 0, INFINITY_CAP, INFINITY_WORK)
        dt = time.perf_counter() - t0
        assert dt < 60, f"infinity ladders for (p={p}, ap={ap}) took {dt:.1f}s"
        cache[(p, ap)] = (m1, m0)
    return cache


def test_criterion_01_delta_table_verbatim():
    t0 = time.perf_counter()
    for (p, ap) in [(2, 2), (2, -2), (3, 3), (3, -3), (3, 0)]:
        rows = delta_table(p, ap, -2, 7)
        assert [r.rendered for r in rows] == PRINTED_TABLE[ap], f"(p, ap)=({p},{ap})"
    finish(1, "delta_table_verbatim", t0, 1)


def test_criterion_02_coefficient_lemma():
    t0 = time.perf_counter()
    for (p, ap) in PAIRS_ALL:
        tt = period_constants(p, ap).two_tilde
        for i in range(-8 * p, 8 * p + 1):
            d = delta_coeffs(p, ap, i)  # integrality enforced on construction
            d2 = delta_coeffs(p, ap, i + tt)
            assert (d2.y, d2.y_prime) == (-d.y, -d.y_prime)
    finish(2, "coefficient_lemma", t0, 1)


def test_criterion_03_matrix_identities():
    t0 = time.perf_counter()
    for (p, ap) in PAIRS_P23:
        c = period_constants(p, ap)
        power = mat_pow(trace_matrix(p, ap), c.two_tilde)
        scalar = -(Fraction(p) ** c.one_tilde)
        assert power == ((scalar, Fraction(0)), (Fraction(0), scalar))
        for l in range(1, 2 * p + 3):
            a_matrix(p, ap, l)  # postcondition identity checked exactly inside
    finish(3, "matrix_identities", t0, 1)


def test_criterion_04_finite_determinant():
    t0 = time.perf_counter()
    for (p, ap) in PAIRS_P23:
        tt = period_constants(p, ap).two_tilde
        x = PowerSeries.x_power(p, 1)
        for n in range(1, 5):
            w = omega(p, n)
            for i in range(-2, tt + 1):
                assert x.mul(ladder(p, ap, n, i).det()) == w, f"({p},{ap},{n},{i})"
    finish(4, "finite_determinant", t0, 10)


def test_criterion_05_coefficient_factorization():
    t0 = time.perf_counter()
    for (p, ap) in PAIRS_P23:
        tt = period_constants(p, ap).two_tilde
        for n in range(1, 4):
            base = ladder(p, ap, n, 0)
            for j in range(-tt, tt + 1):
                m = ladder(p, ap, n, j)
                d = delta_coeffs(p, ap, j)
                for col in range(2):
                    want = base.entries[0][col] * d.y + base.entries[1][col] * d.y_prime
                    assert m.entries[0][col] == want, f"({p},{ap},{n},{j})"
    finish(5, "coefficient_factorization", t0, 10)


def test_criterion_06_kernel_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    for (p, ap) in [(2, 2), (2, -2), (3, 3), (3, -3), (3, 0)]:
        for n in (1, 2, 3):
            for g in kernel_basis(p, ap, n, 1).generators:
                assert phi_apply(p, ap, n, 1, g).is_zero()
        for trial in range(100):
            n = trial % 3 + 1
            deg = p ** n
            mk = lambda: [rng.randint(-9, 9) for _ in range(rng.randint(1, deg))]
            v = LambdaPair.from_ints(p, n, mk(), mk())
            image = phi_apply(p, ap, n, 1, v)
            back = decompose(p, ap, n, image.first, image.second)
            assert kernel_member(p, ap, n, back - v), f"({p},{ap},{n})"
    finish(6, "kernel_round_trip", t0, 30)


def test_criterion_07_limit_lemma():
    t0 = time.perf_counter()
    for (p, ap) in PAIRS_P23:
        for m in (1, 2, 3):
            for nu in (0, 1, 2):
                assert limit_lemma_check(p, ap, m, nu).passed
    finish(7, "limit_lemma", t0, 30)


def test_criterion_08_infinity_determinant_as_stated(infinity_cache):
    # Faithful to the stated criterion; mathematically unattainable (see the
    # module docstring and criterion 8a).  Expected outcome: FAIL.
    t0 = time.perf_counter()
    for (p, ap) in INFINITY_CONFIGS:
        m1 = infinity_cache[(p, ap)][0]
        det = m1.det(INFINITY_CAP)
        log = log_series(p, INFINITY_CAP)
        if not det.congruent(log, INFINITY_PREC):
            print(
                f"ACCEPTANCE 8 infinity_determinant_as_stated: FAIL (p={p}, ap={ap}): "
                f"det has constant term {det.coefficient_raw(0)!r} (log_p(1+X) has 0); "
                f"the limit equals log_p(1+X)/(p^(N-n) X) -- see criterion 8a"
            )
        assert det.congruent(log, INFINITY_PREC), (
            f"(p={p}, ap={ap}): scaled-limit determinant is log_p(1+X)/(p^(N-n)X), "
            f"not log_p(1+X); the stated identity cannot hold"
        )
    finish(8, "infinity_determinant_as_stated", t0, 6 * 60)


def test_criterion_08a_infinity_determinant_normalized(infinity_cache):
    # Corrected identity at the same tolerance: p^(N-n) * X * det = log_p(1+X).
    t0 = time.perf_counter()
    for (p, ap) in INFINITY_CONFIGS:
        m1 = infinity_cache[(p, ap)][0]
        det = m1.det(INFINITY_CAP)
        shift = 1 if p != 2 else 2
        lhs = PowerSeries.x_power(p, 1).mul(det, INFINITY_CAP).scale(p ** shift)
        assert determined_mod(lhs, INFINITY_PREC), f"(p={p}, ap={ap}): precision short"
        assert lhs.congruent(log_series(p, INFINITY_CAP), INFINITY_PREC), \
            f"(p={p}, ap={ap})"
    finish("8a", "infinity_determinant_normalized", t0, 6 * 60)


def test_criterion_09_row_recursion_and_kappa(infinity_cache):
    t0 = time.perf_counter()
    for (p, ap) in INFINITY_CONFIGS:
        m1, m0 = infinity_cache[(p, ap)]
        for col in range(2):
            top = m0.entries[0][col] * ap - m0.entries[1][col] * p
            assert m1.entries[0][col].congruent(top, INFINITY_PREC)
            assert m1.entries[1][col].congruent(m0.entries[0][col], INFINITY_PREC)
        for n in (1, 2):
            for i in (1, 2):
                assert kappa_identity_check(p, ap, n, i).passed
    finish(9, "row_recursion_and_kappa", t0, 30)


def test_criterion_10_pollack_recovery():
    t0 = time.perf_counter()
    cap, prec = 100, 10
    for p in (3, 5):
        hl = half_logs(p, 0, cap, prec)
        even = pollack_product(p, "even", cap, prec + 2)
        odd = pollack_product(p, "odd", cap, prec + 2)
        zero = PowerSeries.zero(p)
        # resolved normalization: (log_theta, log_upsilon) =
        # (-(even)/p, -(odd)/p * alpha); the constant -1/p is the same
        # closed form at every odd p -- that stability is the assertion.
        assert hl.log_theta.b.congruent(zero, prec), f"p={p}"
        assert hl.log_upsilon.a.congruent(zero, prec), f"p={p}"
        assert hl.log_theta.a.scale(p).congruent(-even, prec), f"p={p}"
        assert hl.log_upsilon.b.scale(p).congruent(-odd, prec), f"p={p}"
    finish(10, "pollack_recovery", t0, 30)


def test_criterion_11_intrinsicness():
    t0 = time.perf_counter()
    cap, prec = 50, 8
    for (p, ap) in [(3, 3), (2, -2)]:
        tt = period_constants(p, ap).two_tilde
        hl = half_logs(p, ap, cap, prec)  # runs the (0,1) variant internally
        m = ladder_infinity(p, ap, 1 - tt, cap, prec + 2)
        v_theta, v_ups = intrinsic_variant(p, ap, m, tt - 1, tt)
        assert v_theta.congruent(hl.log_theta, prec), f"(p={p}, ap={ap})"
        assert v_ups.congruent(hl.log_upsilon, prec), f"(p={p}, ap={ap})"
    finish(11, "intrinsicness", t0, 30)


def test_criterion_12_curve_fixtures():
    t0 = time.perf_counter()
    mordell = CurveData(a3=1, a4=-1)
    curve_755e = CurveData(a3=1, a4=-7, a6=7)
    assert (curve_ap(mordell, 2), curve_ap(mordell, 3)) == (-2, -3)
    assert (curve_ap(curve_755e, 2), curve_ap(curve_755e, 3)) == (2, 3)
    finish(12, "curve_fixtures", t0, 1)


def test_criterion_13_root_of_unity_evaluations():
    t0 = time.perf_counter()
    for p in (2, 3, 5):
        for i in range(2, 5):
            for j in range(1, i):
                assert eval_at_root(phi(p, i), j) == PowerSeries(p, [p])
    finish(13, "root_of_unity_evaluations", t0, 1)


def test_criterion_14_gauss_norm_contraction():
    t0 = time.perf_counter()
    s = Fraction(1, 2)
    for p in (2, 3):
        vals = [
            gauss_norm_log(phi(p, n).scale(Fraction(1, p)) - 1, s)
            for n in range(2, 7)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:])), f"p={p}: {vals}"
    finish(14, "gauss_norm_contraction", t0, 1)
