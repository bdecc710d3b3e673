"""Coefficient-by-coefficient Z[alpha] series references for the tests.

The package checks its Z[alpha] identities on integer rows with the scalars'
integer coordinates (``ladders._int_coords``).  The references here compute
the same identities the plain way, on the ``QuadExtSeries`` artifact type:
sums, products by a plain series and remainders part by part on the a and b
``PowerSeries``, and products by a Z[alpha] scalar coefficient by
coefficient, written out on the ``PadicScalar`` parts.
``factorization_check_reference`` and ``kappa_identity_check_reference`` are
the series-level forms of ``checks.factorization_check`` and
``ladders.kappa_identity_check``; ``intrinsic_variant`` is the series form
of the variants ``half_logs`` checks.  ``y_beta_identity_check_reference``
is ``trace.y_beta_identity_check`` on ``Fraction`` p-powers and
``QuadExtScalar`` powers, where the package compares integer pairs.
Program functions are read through their modules, so a test's monkeypatched
fault reaches the references too.
"""

from fractions import Fraction
from itertools import count

from padic_ladders import ladders, trace
from padic_ladders.errors import IdentityViolation, PadicLaddersError
from padic_ladders.ladders import QuadExtSeries, n_shift
from padic_ladders.padics import PadicScalar, QuadExtScalar
from padic_ladders.report import CheckReport
from padic_ladders.series import PowerSeries, phi
from padic_ladders.series import reduce_mod as series_reduce_mod
from padic_ladders.trace import period_constants


def combine_with_conjugate_root(p: int, ap: int, f0: PowerSeries, f1: PowerSeries):
    """f0 - conj(alpha) * f1 = (f0 - a_p f1) + f1 * alpha, as a QuadExtSeries."""
    return QuadExtSeries(p, ap, f0 - f1 * ap, f1)


def from_plain(p: int, ap: int, f: PowerSeries) -> QuadExtSeries:
    return QuadExtSeries(p, ap, f, PowerSeries.zero(p, f.cap))


def scale(f: QuadExtSeries, s: QuadExtScalar) -> QuadExtSeries:
    """f * s, coefficient by coefficient on the PadicScalar parts, which keep
    their precisions: (a + b alpha)(c + d alpha) = (ac - p bd) + (ad + bc + a_p bd) alpha."""
    c, d = s.a, s.b
    xs = []
    for k in range(max(len(f.a.coeffs), len(f.b.coeffs))):
        a, b = f.a.coefficient_raw(k), f.b.coefficient_raw(k)
        bd = b * d
        xs.append((a * c - bd * f.p, a * d + b * c + bd * f.ap))
    part = lambda j: PowerSeries(f.p, [x[j] for x in xs], f.cap)
    return QuadExtSeries(f.p, f.ap, part(0), part(1))


def add(f: QuadExtSeries, g: QuadExtSeries) -> QuadExtSeries:
    return QuadExtSeries(f.p, f.ap, f.a + g.a, f.b + g.b)


def sub(f: QuadExtSeries, g: QuadExtSeries) -> QuadExtSeries:
    return QuadExtSeries(f.p, f.ap, f.a - g.a, f.b - g.b)


def mul_series(f: QuadExtSeries, g: PowerSeries, cap=None) -> QuadExtSeries:
    return QuadExtSeries(f.p, f.ap, f.a.mul(g, cap), f.b.mul(g, cap))


def reduce_mod(f: QuadExtSeries, modulus: PowerSeries) -> QuadExtSeries:
    return QuadExtSeries(f.p, f.ap, series_reduce_mod(f.a, modulus),
                         series_reduce_mod(f.b, modulus))


def intrinsic_variant(p: int, ap: int, inf_rows, i: int, j: int):
    """(row_{-i} abar^i - row_{-j} abar^j) / (beta_{j-1} - beta_{i-1}) for j = i+1.

    ``inf_rows`` must be the infinity matrix at index -i (rows -i and -i-1).
    """
    assert j == i + 1 and inf_rows.index == -i
    abar = QuadExtScalar.alpha_bar(p, ap)
    inv = (ladders.beta(p, ap, j - 1) - ladders.beta(p, ap, i - 1)).inverse()
    u, w = abar.pow_int(i) * inv, abar.pow_int(j) * inv
    out = []
    for col in range(2):
        top = scale(from_plain(p, ap, inf_rows.entries[0][col]), u)
        bot = scale(from_plain(p, ap, inf_rows.entries[1][col]), w)
        out.append(sub(top, bot))
    return out[0], out[1]


def factorization_check_reference(p, ap, ltheta, lupsilon, cap, prec):
    """``checks.factorization_check`` for one input pair, on PadicScalar series and QuadExtSeries.

    It keeps the root-of-unity stage that the package leaves out, at every
    level j whose Phi_j(1+X) has degree <= cap: the remainder by a monic
    integer polynomial is Z-linear, so the stage can never fail after the
    coefficientwise comparison passed, and the tests that compare the two
    reports check that it does not.
    """
    config = {"p": p, "ap": ap, "cap": cap, "prec": prec}
    fail = lambda witness: CheckReport("factorization", config, "fail", witness)
    try:
        m0 = ladders.ladder_infinity(p, ap, 0, cap, prec + 2)
        hl_theta = combine_with_conjugate_root(p, ap, m0.theta_top, m0.theta_bot)
        hl_upsilon = combine_with_conjugate_root(p, ap, m0.upsilon_top, m0.upsilon_bot)
        s = add(mul_series(hl_theta, ltheta, cap), mul_series(hl_upsilon, lupsilon, cap))
        for n in (m0.n_used + 1, m0.n_used + 2):
            N = n_shift(p, n)
            rows = ladders.ladder(p, ap, n, -N, cap=cap)
            f0 = (rows.entries[0][0].mul(ltheta, cap) + rows.entries[0][1].mul(lupsilon, cap)
                  ).scale(Fraction(p) ** ((-N) // 2))
            f1 = (rows.entries[1][0].mul(ltheta, cap) + rows.entries[1][1].mul(lupsilon, cap)
                  ).scale(Fraction(p) ** ((-N - 1) // 2))
            d_n = combine_with_conjugate_root(p, ap, f0, f1)
            if not d_n.congruent(s, prec):
                return fail(f"finite level n={n} disagrees with the limit mod {p}^{prec}")
            for j in count(1):
                modulus = phi(p, j)
                if modulus.degree() > cap:
                    break
                if not reduce_mod(d_n, modulus).congruent(reduce_mod(s, modulus), prec):
                    return fail(f"evaluation at root level j={j} disagrees at n={n}")
    except PadicLaddersError as exc:
        return fail(f"{type(exc).__name__}: {exc}")
    return CheckReport("factorization", config)


def kappa_identity_check_reference(p, ap, n, i):
    """``ladders.kappa_identity_check`` on QuadExtSeries, scalar by scalar."""
    period_constants(p, ap)
    if n < 1:
        raise ValueError("level n must be >= 1")
    N = n_shift(p, n)
    alpha = QuadExtScalar.alpha(p, ap)
    beta_ref = ladders.beta(p, ap, i - 1)
    kappas = {m: alpha.pow_int(m) * (ladders.beta(p, ap, m) - beta_ref) for m in (-N, -N - 1)}
    m0 = ladders.ladder(p, ap, n, 0)
    m_shift = ladders.ladder(p, ap, n, -N - i)
    p_scale = PadicScalar.exact(p, Fraction(p) ** ((-N - i) // 2))
    abar_i = QuadExtScalar.alpha_bar(p, ap).pow_int(i)
    for col, label in ((0, "theta"), (1, "upsilon")):
        lhs = sub(scale(from_plain(p, ap, m0.entries[0][col]), kappas[-N]),
                  scale(from_plain(p, ap, m0.entries[1][col]), kappas[-N - 1]))
        rhs = scale(from_plain(p, ap, m_shift.entries[0][col].scale(p_scale)), abar_i)
        if lhs != rhs:
            raise IdentityViolation(
                f"kappa identity failed for {label} at (p, a_p, n, i) = ({p}, {ap}, {n}, {i})")
    return CheckReport(name="kappa_identity", config={"p": p, "ap": ap, "n": n, "i": i})


def y_beta_identity_check_reference(p, ap, i, k):
    """``trace.y_beta_identity_check`` on QuadExtScalars: the p-power exponents go negative
    (i < 0, i < k), so they are Fraction powers, and alpha^i is ``pow_int``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    abar = QuadExtScalar.alpha_bar(p, ap)  # p / alpha
    lhs = (trace.delta_coeffs(p, ap, i).y * Fraction(p) ** (i // 2)
           - abar.pow_int(k) * (trace.delta_coeffs(p, ap, i - k).y * Fraction(p) ** ((i - k) // 2)))
    rhs = trace.beta(p, ap, k - 1) * QuadExtScalar.alpha(p, ap).pow_int(i)
    if lhs != rhs:
        raise IdentityViolation(
            f"y-beta identity failed at (p, a_p, i, k) = ({p}, {ap}, {i}, {k}): "
            f"{lhs!r} != {rhs!r}"
        )
    return CheckReport(name="y_beta_identity", config={"p": p, "ap": ap, "i": i, "k": k})
