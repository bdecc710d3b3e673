"""The integer infinity-determinant check against its PadicScalar reference.

``checks.check_infinity_determinant`` forms the determinant of the scaled
index-1 limit on integer numerators and builds PadicScalars only for the
witness of a failure.  These tests hold it to the PadicScalar path of
``tests/determinant_reference.py``: the same witness or None on passing,
faulted and non-converging configurations, and the precision margin on which
the equal verdicts rest, which the check bounds from below and guards with
PrecisionExhausted.  On random limit-shaped rows, the reference det never
overclaims: the exact det of any lift of the entries lies inside each of its
coefficients' intervals; and it is ``LadderMatrix.det``, in every value and
precision, though it does not call it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padic_ladders import checks, ladders
from padic_ladders.checks import CheckConfig, default_configs
from padic_ladders.ladders import LadderMatrix, n_shift
from padic_ladders.padics import PadicScalar, rational_valuation
from padic_ladders.series import PowerSeries

from determinant_reference import (check_infinity_determinant_reference, outcome, padic_det,
                                   reference_det, series_det)

CAP200_PAIRS = [(2, 2), (2, -2), (3, 3), (3, -3), (3, 0), (5, 0)]
PINNED_CFGS = default_configs() + [CheckConfig(p, ap, cap=200, prec=20) for p, ap in CAP200_PAIRS]
# the least absprec of the reference det over the compared coefficients, per (p, a_p, cap)
LEAST_ABSPREC = {(2, 2, 24): 5, (2, -2, 24): 5, (3, 3, 24): 7, (3, -3, 24): 7, (3, 0, 24): 7,
                 (2, 2, 200): 19, (2, -2, 200): 19, (3, 3, 200): 21, (3, -3, 200): 21,
                 (3, 0, 200): 21, (5, 0, 200): 22}


def check_infinity_determinant(cfg):
    """The check on its one limit request, read as run_suite serves it."""
    return checks.check_infinity_determinant(
        cfg, checks._suite_limits(cfg, ["infinity_determinant"]))


def same_outcomes(cfgs):
    got = [outcome(check_infinity_determinant, cfg) for cfg in cfgs]
    assert got == [outcome(check_infinity_determinant_reference, cfg) for cfg in cfgs]
    return got


def test_matches_reference_on_default_configs():
    assert same_outcomes(default_configs()) == [None] * 5


def test_matches_reference_under_parity_fault():
    cfgs = [CheckConfig(c.p, c.ap, corrupt_ap_parity=True) for c in default_configs()]
    got = same_outcomes(cfgs)
    assert [w is None for w in got] == [False, False, False, False, True]  # (3, 0) passes
    assert all(w.startswith("IdentityViolation: ") for w in got[:4])


def test_matches_reference_under_shifted_log(monkeypatch):
    real_log = checks.log_series
    monkeypatch.setattr(checks, "log_series",
                        lambda p, cap: real_log(p, cap) + PowerSeries.x_power(p, 1))
    got = same_outcomes(default_configs())
    assert all(w.startswith(f"p^{n_shift(c.p, 0)} * X * det differs")
               for w, c in zip(got, default_configs()))


@pytest.mark.parametrize("j, fails", [
    (1, [False] * 5),  # p^(prec + 4 + e - 1): one digit inside the working precision
    (4, [True, True, False, False, False]),
    (5, [True, True, True, True, False]),
])
def test_matches_reference_under_a_limit_numerator_fault(monkeypatch, j, fails):
    # p^(prec + 4 + e - j) added to the constant term of the bottom row's upsilon
    real_limits = ladders._limits

    def limits(p, ap, requests, cap, *args):
        found = real_limits(p, ap, requests, cap, *args)
        prec = next(pr for i, pr in requests if i == 1)  # the index-1 request
        n, approx = found[1, prec]
        x, e = approx[3]
        x = list(x) or [0]
        x[0] += p ** (prec + e - j)
        found[1, prec] = n, approx[:3] + [(x, e)]
        return found

    monkeypatch.setattr(ladders, "_limits", limits)
    monkeypatch.setattr(checks, "_limits", limits)
    got = same_outcomes(default_configs())
    assert [w is not None for w in got] == fails


def test_matches_reference_at_cap_200():
    assert same_outcomes([CheckConfig(2, 2, cap=200, prec=20)]) == [None]


def test_reference_det_keeps_the_precision_the_verdict_needs():
    # The check's verdict equals the reference's while every compared coefficient
    # of the PadicScalar det has absprec >= prec - shift; pin the margin.
    got = {}
    for cfg in PINNED_CFGS:
        det, shift = reference_det(cfg)
        least = min(c.absprec for c in det.coeffs[:cfg.cap - 1])
        assert least >= cfg.prec - shift, cfg
        got[cfg.p, cfg.ap, cfg.cap] = least
    assert got == LEAST_ABSPREC


def test_precision_guard_bound_equals_the_reference_absprec(monkeypatch):
    # The check's lower bound L on that absprec is exact on the pinned configs: a
    # shift one below prec - L makes the guard trip and name L; at prec - L it holds.
    real_shift = checks.n_shift
    for cfg in PINNED_CFGS:
        least = LEAST_ABSPREC[cfg.p, cfg.ap, cfg.cap]
        monkeypatch.setattr(checks, "n_shift", lambda p, n: cfg.prec - least - 1)
        assert outcome(check_infinity_determinant, cfg) == (
            f"PrecisionExhausted: limit det known mod {cfg.p}^{least}, "
            f"below {cfg.p}^{least + 1}"), cfg
        if cfg.cap == 24:  # a failing verdict at cap 200 builds the witness det, 0.5 s each
            monkeypatch.setattr(checks, "n_shift", lambda p, n: cfg.prec - least)
            assert not outcome(check_infinity_determinant, cfg).startswith("PrecisionExhausted")
        monkeypatch.setattr(checks, "n_shift", real_shift)


def test_precision_guard_trips_on_a_unit_numerator(monkeypatch):
    # A unit numerator at X^1 of the theta_0 row (e the larger row exponent) leaves the
    # reference det known only mod p^(prec + 4 - e): the check raises rather than
    # compare below prec - shift, and its bound is the reference's least absprec.
    real_limits = ladders._limits

    def limits(p, ap, requests, cap, *args):
        found = real_limits(p, ap, requests, cap, *args)
        prec = next(pr for i, pr in requests if i == 1)  # the index-1 request
        n, approx = found[1, prec]
        x, e = approx[2]
        x = list(x) + [0] * (2 - len(x))
        x[1] = 1
        found[1, prec] = n, approx[:2] + [(x, e)] + approx[3:]
        return found

    monkeypatch.setattr(ladders, "_limits", limits)
    monkeypatch.setattr(checks, "_limits", limits)
    for cfg in default_configs():
        det, shift = reference_det(cfg)
        least = min(c.absprec for c in det.coeffs[:cfg.cap - 1])
        assert least < cfg.prec - shift
        assert outcome(check_infinity_determinant, cfg) == (
            f"PrecisionExhausted: limit det known mod {cfg.p}^{least}, "
            f"below {cfg.p}^{cfg.prec - shift}"), cfg
        # the reference's congruent refuses the same digits, where it once built a witness
        assert outcome(check_infinity_determinant_reference, cfg).startswith(
            "PrecisionExhausted: "), cfg


@st.composite
def limit_rows(draw):
    """(p, cap, prec, rows, lifts): four int rows x, each read as x / p^e mod p^prec, and
    for each coefficient a k that lifts it to another rational of that class."""
    p = draw(st.sampled_from([2, 3, 5]))
    cap, prec = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows, lifts = [], []
    for _ in range(4):
        e = draw(st.integers(0, 5))
        bound = p ** (prec + e + 1)
        xs = draw(st.lists(st.integers(-bound, bound), max_size=cap))
        rows.append((xs, e))
        lifts.append(draw(st.lists(st.integers(-p, p), min_size=len(xs), max_size=len(xs))))
    return p, cap, prec, rows, lifts


def check_never_overclaims(det_of):
    @settings(max_examples=150, deadline=None)
    @given(limit_rows())
    def lifted_det_inside(case):
        # the exact det of any lift of the entries lies inside every coefficient's interval
        p, cap, prec, rows, lifts = case
        det = det_of(p, rows, cap, prec)
        entry = [[Fraction(x % p ** (prec + e) + k * p ** (prec + e), p ** e)
                  for x, k in zip(xs, ks)] for (xs, e), ks in zip(rows, lifts)]
        for k, c in enumerate(det.coeffs):
            d = _exact_coefficient(entry, k) - c.value
            assert d == 0 or c.absprec is not None and rational_valuation(d, p) >= c.absprec

    lifted_det_inside()


def _exact_coefficient(entry, k):
    """Coefficient k of t0 * u1 - u0 * t1 on the exact rational entries."""
    def prod(a, b):
        return sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
    return prod(entry[0], entry[3]) - prod(entry[1], entry[2])


def test_padic_det_never_overclaims():
    check_never_overclaims(padic_det)


def test_never_overclaims_property_catches_a_one_digit_overclaim():
    def overclaim(p, rows, cap, prec):
        det = padic_det(p, rows, cap, prec)
        head = det.coefficient_raw(0)
        absprec = None if head.absprec is None else head.absprec + 1
        return PowerSeries(p, (PadicScalar(p, head.value, absprec),) + det.coeffs[1:], det.cap)

    with pytest.raises(AssertionError):
        check_never_overclaims(overclaim)


@settings(max_examples=150, deadline=None)
@given(limit_rows())
def test_series_det_is_ladder_matrix_det(case):
    # the reference det, written out on PadicScalars, equals LadderMatrix.det in every
    # coefficient's value and precision and in its cap, so it can stand in for it
    p, cap, prec, rows, _ = case
    entries = [[PowerSeries.from_numerators(p, [c % p ** (prec + e) for c in x], e, prec, cap)
                for x, e in rows[r:r + 2]] for r in (0, 2)]
    want = LadderMatrix(p, 0, "infinity", 1, entries, cap=cap, prec=prec).det(cap)
    got = series_det(p, entries, cap)
    assert (got.cap, [(c.value, c.absprec) for c in got.coeffs]) == \
        (want.cap, [(c.value, c.absprec) for c in want.coeffs])
