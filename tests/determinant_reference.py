"""The infinity-determinant check on PadicScalar series, a reference for the tests.

``checks.check_infinity_determinant`` runs on the limit's integer numerators.
``check_infinity_determinant_reference`` is the same check the plain way:
the index-1 limit matrix of ``ladder_infinity``, its ``LadderMatrix.det``,
the product by X and p^shift, and ``PowerSeries.congruent`` against
log_p(1+X).  ``padic_det`` is that determinant for any limit-shaped rows.
Program functions are read through their modules, so a test's monkeypatched
fault (``checks.log_series``, ``ladders._limits``) reaches the reference too.
"""

from padic_ladders import checks, ladders
from padic_ladders.errors import PadicLaddersError
from padic_ladders.ladders import LadderMatrix, n_shift
from padic_ladders.series import PowerSeries


def padic_det(p, approx, cap, prec):
    """LadderMatrix.det of the rows approx, each (x, e) read as x / p^e mod p^prec."""
    entries = [[PowerSeries.from_numerators(p, [c % p ** (prec + e) for c in x], e, prec, cap)
                for x, e in approx[r:r + 2]] for r in (0, 2)]
    return LadderMatrix(p, 0, "infinity", 1, entries, cap=cap, prec=prec).det(cap)


def reference_det(cfg):
    """The PadicScalar determinant that the check at cfg compares, with its shift."""
    m = ladders.ladder_infinity(cfg.p, cfg.ap, 1, cfg.cap, cfg.prec + 4,
                                _corrupt_parity=cfg.corrupt_ap_parity)
    return m.det(cfg.cap), n_shift(cfg.p, 0)


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
