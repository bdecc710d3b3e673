"""The infinity-determinant check on PadicScalar series, a reference for the tests.

``checks.check_infinity_determinant`` runs on the limit's integer numerators.
``check_infinity_determinant_reference`` is the same check the plain way:
the index-1 limit matrix of ``ladder_infinity``, its determinant, the product
by X and p^shift, and ``PowerSeries.congruent`` against log_p(1+X), which
raises PrecisionExhausted rather than compare digits past the det's precision.
``padic_det`` is that determinant for any limit-shaped rows.  The determinant
is ``series_det``, written out here coefficient by coefficient on the
entries' ``PadicScalar``s, not ``LadderMatrix.det``, so a numerator form of
that det can be checked against something other than itself.  Program
functions are read through their modules, so a test's monkeypatched fault
(``checks.log_series``, ``ladders._limits``) reaches the reference too.
"""

from padic_ladders import checks, ladders
from padic_ladders.errors import PadicLaddersError
from padic_ladders.ladders import n_shift
from padic_ladders.series import PowerSeries


def series_det(p, entries, cap=None):
    """theta_top upsilon_bot - upsilon_top theta_bot below X^cap (and the entries' caps):
    each coefficient sum_i a_i b_(k-i) summed from 0 in order of i, on PadicScalars, which
    keep the value and precision of every partial sum and product."""
    (t0, u0), (t1, u1) = ([s.coeffs for s in row] for row in entries)
    caps = [c for c in (cap, *(s.cap for row in entries for s in row)) if c is not None]
    size = max(len(t0) + len(u1), len(u0) + len(t1)) - 1
    count = min([size, *caps])

    def coefficient(a, b, k):
        return sum((a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b)), 0)

    return PowerSeries(p, [coefficient(t0, u1, k) - coefficient(u0, t1, k) for k in range(count)],
                       min(caps, default=None))


def padic_det(p, approx, cap, prec):
    """The det of the rows approx, each (x, e) read as x / p^e mod p^prec."""
    entries = [[PowerSeries.from_numerators(p, [c % p ** (prec + e) for c in x], e, prec, cap)
                for x, e in approx[r:r + 2]] for r in (0, 2)]
    return series_det(p, entries, cap)


def reference_det(cfg):
    """The PadicScalar determinant that the check at cfg compares, with its shift."""
    m = ladders.ladder_infinity(cfg.p, cfg.ap, 1, cfg.cap, cfg.prec + 4,
                                _corrupt_parity=cfg.corrupt_ap_parity)
    return series_det(cfg.p, m.entries, cfg.cap), n_shift(cfg.p, 0)


def check_infinity_determinant_reference(cfg):
    det, shift = reference_det(cfg)
    lhs = PowerSeries.x_power(cfg.p, 1).mul(det, cfg.cap).scale(cfg.p ** shift)
    if not lhs.congruent(checks.log_series(cfg.p, cfg.cap), cfg.prec):
        return (
            f"p^{shift} * X * det differs from log_p(1+X) mod {cfg.p}^{cfg.prec}; "
            f"det head = {det.coefficient_raw(0)!r}, {det.coefficient_raw(1)!r}"
        )
    return None


def outcome(check, cfg):
    """The check's witness or None, or a raised package error as run_suite words it."""
    try:
        return check(cfg)
    except PadicLaddersError as exc:
        return f"{type(exc).__name__}: {exc}"
