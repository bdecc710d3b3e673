"""Named executable checks binding every ladder identity to a report.

run_suite executes the whole battery for each configuration and returns the
reports in deterministic name order; failures are data (reports with a
witness), never exceptions.  factorization_check exercises the finite-level
decomposition against the half-logarithm limit on synthetic integral inputs,
on integer rows built mod the p-power that the comparison reads, compared
coefficientwise.  The limit-level checks read the integer level loop
``ladders._limits``: the row recursion takes indices 1 and 0 from one loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .coleman import (
    LambdaPair,
    decompose,
    kernel_basis,
    kernel_member,
    limit_lemma_check,
    phi_apply,
    projection_compatibility_check,
)
from .errors import PadicLaddersError
from .ladders import (
    _int_approx_congruent,
    _limits,
    _row_exps,
    half_logs,
    kappa_identity_check,
    ladder,
    ladder_infinity,
    n_shift,
    pollack_product,
)
from .report import CheckReport
from .series import PowerSeries, _lincomb, ladder_rows, log_series, omega, poly_mul
from .trace import (
    a_matrix,
    beta,
    delta_coeffs,
    delta_table,
    mat_pow,
    period_constants,
    trace_matrix,
    y_beta_identity_check,
)

# The printed delta-table: rows i = -2..7, one column per a_p value.
# The a_p = 0 column is p-independent.
PRINTED_TABLE = {
    2: ["-c_n + c_{n-1}", "c_{n-1}", "c_n", "2c_n - c_{n-1}", "c_n - c_{n-1}",
        "-c_{n-1}", "-c_n", "-2c_n + c_{n-1}", "-c_n + c_{n-1}", "c_{n-1}"],
    -2: ["-c_n - c_{n-1}", "c_{n-1}", "c_n", "-2c_n - c_{n-1}", "c_n + c_{n-1}",
         "-c_{n-1}", "-c_n", "2c_n + c_{n-1}", "-c_n - c_{n-1}", "c_{n-1}"],
    3: ["-c_n + c_{n-1}", "c_{n-1}", "c_n", "3c_n - c_{n-1}", "2c_n - c_{n-1}",
        "3c_n - 2c_{n-1}", "c_n - c_{n-1}", "-c_{n-1}", "-c_n", "-3c_n + c_{n-1}"],
    -3: ["-c_n - c_{n-1}", "c_{n-1}", "c_n", "-3c_n - c_{n-1}", "2c_n + c_{n-1}",
         "-3c_n - 2c_{n-1}", "c_n + c_{n-1}", "-c_{n-1}", "-c_n", "3c_n + c_{n-1}"],
    0: ["-c_n", "c_{n-1}", "c_n", "-c_{n-1}", "-c_n", "c_{n-1}", "c_n",
        "-c_{n-1}", "-c_n", "c_{n-1}"],
}

TABLE_COLUMN_PAIRS = [(2, 2), (2, -2), (3, 3), (3, -3), (3, 0)]


@dataclass(frozen=True)
class CheckConfig:
    """One suite configuration: the pair plus depth/precision knobs."""

    p: int
    ap: int
    n_max: int = 3
    cap: int = 24
    prec: int = 5
    trials: int = 10
    seed: int = 0
    corrupt_ap_parity: bool = False
    include: Optional[Tuple[str, ...]] = None

    def base(self) -> dict:
        return {"p": self.p, "ap": self.ap}


def _report(name: str, cfg_dict: dict, failure: Optional[str]) -> CheckReport:
    if failure is None:
        return CheckReport(name=name, config=cfg_dict)
    return CheckReport(name=name, config=cfg_dict, status="fail", witness=failure)


def _random_pair(rng: random.Random, p: int, n: int) -> LambdaPair:
    deg = p ** n
    mk = lambda: [rng.randint(-9, 9) for _ in range(rng.randint(1, deg))]
    return LambdaPair.from_ints(p, n, mk(), mk())


# -- individual checks ---------------------------------------------------------


def check_delta_table(cfg: CheckConfig) -> Optional[str]:
    rows = delta_table(cfg.p, cfg.ap, -2, 7)  # validates the pair; admissible a_p are keys
    expected = PRINTED_TABLE[cfg.ap]
    for row, want in zip(rows, expected):
        if row.rendered != want:
            return f"row i={row.i}: got {row.rendered!r}, expected {want!r}"
    return None


def check_integrality_antiperiodicity(cfg: CheckConfig) -> Optional[str]:
    consts = period_constants(cfg.p, cfg.ap)
    for i in range(-8 * cfg.p, 8 * cfg.p + 1):
        d = delta_coeffs(cfg.p, cfg.ap, i)  # NonIntegralCoefficient on failure
        d2 = delta_coeffs(cfg.p, cfg.ap, i + consts.two_tilde)
        if (d2.y, d2.y_prime) != (-d.y, -d.y_prime):
            return f"anti-periodicity broken at i={i}"
    return None


def check_parity_recursion(cfg: CheckConfig) -> Optional[str]:
    p, ap = cfg.p, cfg.ap
    for i in range(-8 * p, 8 * p):
        a = Fraction(ap, p) if i % 2 != 0 else Fraction(ap)
        cur = delta_coeffs(p, ap, i)
        prev = delta_coeffs(p, ap, i - 1)
        nxt = delta_coeffs(p, ap, i + 1)
        if Fraction(nxt.y) != a * cur.y - prev.y or Fraction(nxt.y_prime) != a * cur.y_prime - prev.y_prime:
            return f"parity recursion broken at i={i}"
    # direct scaled-power cross-check on the C^i formula
    for i in range(0, 4 * p + 1):
        power = mat_pow(trace_matrix(p, ap), i)
        d = delta_coeffs(p, ap, i)
        scale = Fraction(p) ** (i // 2)
        if power[0][0] != d.y * scale or power[0][1] != d.y_prime * scale:
            return f"C^i top row mismatch at i={i}"
    return None


def check_a_matrix(cfg: CheckConfig) -> Optional[str]:
    for l in range(1, 2 * cfg.p + 3):
        a_matrix(cfg.p, cfg.ap, l)  # IdentityViolation on failure
    return None


def check_y_beta(cfg: CheckConfig) -> Optional[str]:
    consts = period_constants(cfg.p, cfg.ap)
    for i in range(-2, consts.two_tilde + 1):
        for k in (1, 2, 3):
            y_beta_identity_check(cfg.p, cfg.ap, i, k)
    return None


def check_beta_periodicity(cfg: CheckConfig) -> Optional[str]:
    consts = period_constants(cfg.p, cfg.ap)
    tt = consts.two_tilde
    for m in range(-3 * tt, 3 * tt + 1):
        if beta(cfg.p, cfg.ap, m) != beta(cfg.p, cfg.ap, m + tt):
            return f"beta not two_tilde-periodic at m={m}"
    return None


def check_finite_determinant(cfg: CheckConfig) -> Optional[str]:
    consts = period_constants(cfg.p, cfg.ap)
    x = PowerSeries.x_power(cfg.p, 1)
    for n in range(1, min(cfg.n_max, 4) + 1):
        w = omega(cfg.p, n)
        for i in range(-2, consts.two_tilde + 1):
            m = ladder(cfg.p, cfg.ap, n, i)
            if not (x.mul(m.det()) == w):
                return f"X*det != omega_{n} at index i={i}"
    return None


def check_coefficient_factorization(cfg: CheckConfig) -> Optional[str]:
    consts = period_constants(cfg.p, cfg.ap)
    for n in range(1, min(cfg.n_max, 3) + 1):
        base = ladder(cfg.p, cfg.ap, n, 0)
        for j in range(-consts.two_tilde, consts.two_tilde + 1):
            m = ladder(cfg.p, cfg.ap, n, j)
            y = delta_coeffs(cfg.p, cfg.ap, j)
            for col in range(2):
                want = base.entries[0][col] * y.y + base.entries[1][col] * y.y_prime
                if not (m.entries[0][col] == want):
                    return f"row factorization failed at n={n}, j={j}, col={col}"
    return None


def check_kernel_membership(cfg: CheckConfig) -> Optional[str]:
    for n in range(1, min(cfg.n_max, 3) + 1):
        for i in (0, 1, 2):
            kb = kernel_basis(cfg.p, cfg.ap, n, i)
            for g in kb.generators:
                for i2 in (1, 2):
                    if not phi_apply(cfg.p, cfg.ap, n, i2, g).is_zero():
                        return f"kernel generator at (n={n}, i={i}) not killed by index {i2}"
    probe = LambdaPair.from_ints(cfg.p, 1, [1], [0])
    if kernel_member(cfg.p, cfg.ap, 1, probe):
        return "(1, 0) wrongly reported inside the kernel at n=1"
    return None


def check_decompose_round_trip(cfg: CheckConfig) -> Optional[str]:
    rng = random.Random(cfg.seed + 1)
    for n in range(1, min(cfg.n_max, 3) + 1):
        for _ in range(cfg.trials):
            v = _random_pair(rng, cfg.p, n)
            image = phi_apply(cfg.p, cfg.ap, n, 1, v)
            back = decompose(cfg.p, cfg.ap, n, image.first, image.second)
            if not kernel_member(cfg.p, cfg.ap, n, back - v):
                return f"round trip left the kernel coset at n={n}"
    return None


def check_limit_lemma(cfg: CheckConfig) -> Optional[str]:
    for m in (1, 2):
        for nu in (0, 1):
            limit_lemma_check(cfg.p, cfg.ap, m, nu)
    return None


def check_projection_compatibility(cfg: CheckConfig) -> Optional[str]:
    rng = random.Random(cfg.seed + 2)
    for n in range(1, min(cfg.n_max, 2) + 1):
        for i in (0, 1, 2):
            v = _random_pair(rng, cfg.p, n + 1)
            projection_compatibility_check(cfg.p, cfg.ap, n, i, v)
    return None


def check_infinity_determinant(cfg: CheckConfig) -> Optional[str]:
    m = ladder_infinity(
        cfg.p, cfg.ap, 1, cfg.cap, cfg.prec + 4, _corrupt_parity=cfg.corrupt_ap_parity
    )
    det = m.det(cfg.cap)
    shift = n_shift(cfg.p, 0)
    lhs = PowerSeries.x_power(cfg.p, 1).mul(det, cfg.cap).scale(cfg.p ** shift)
    if not lhs.congruent(log_series(cfg.p, cfg.cap), cfg.prec):
        return (
            f"p^{shift} * X * det differs from log_p(1+X) mod {cfg.p}^{cfg.prec}; "
            f"det head = {det.coefficient_raw(0)!r}, {det.coefficient_raw(1)!r}"
        )
    return None


def check_infinity_row_recursion(cfg: CheckConfig) -> Optional[str]:
    p, prec = cfg.p, cfg.prec
    limits = _limits(p, cfg.ap, [1, 0], cfg.cap, prec)
    rows1, rows0 = limits[1][1], limits[0][1]  # (x, e) for x / p^e: top, top, bottom, bottom
    for col in range(2):
        (x0, e0), (x1, e1) = rows0[col], rows0[2 + col]
        # a_p row_0 - p row_-1 over p^e0, as e1 - 1 <= e0
        top = _lincomb(cfg.ap, x0, -p ** (e0 - e1 + 1), x1, None), e0
        if not _int_approx_congruent(p, [rows1[col]], [top], prec):
            return f"top-row recursion fails in column {col}"
        if not _int_approx_congruent(p, [rows1[2 + col]], [rows0[col]], prec):
            return f"bottom row should repeat the index-0 top row (column {col})"
    return None


def check_kappa_identity(cfg: CheckConfig) -> Optional[str]:
    for n in (1, 2):
        for i in (1, 2, 3):
            kappa_identity_check(cfg.p, cfg.ap, n, i)
    return None


def check_intrinsicness(cfg: CheckConfig) -> Optional[str]:
    half_logs(cfg.p, cfg.ap, cfg.cap, cfg.prec)  # IdentityViolation on failure
    return None


def check_pollack_comparison(cfg: CheckConfig) -> Optional[str]:
    p, prec, cap = cfg.p, cfg.prec, cfg.cap
    hl = half_logs(p, 0, cap, prec)
    even = pollack_product(p, "even", cap, prec + 2)
    odd = pollack_product(p, "odd", cap, prec + 2)
    zero = PowerSeries.zero(p)
    if not hl.log_theta.b.congruent(zero, prec):
        return "alpha-part of log_theta does not vanish for a_p = 0"
    if not hl.log_upsilon.a.congruent(zero, prec):
        return "scalar part of log_upsilon does not vanish for a_p = 0"
    if not hl.log_theta.a.scale(p).congruent(-even, prec):
        return "p * log_theta != -(even parity product)"
    if not hl.log_upsilon.b.scale(p).congruent(-odd, prec):
        return "p * (alpha-part of log_upsilon) != -(odd parity product)"
    return None


def check_factorization_synthetic(cfg: CheckConfig) -> Optional[str]:
    rng = random.Random(cfg.seed + 3)
    basis = [
        (PowerSeries.one(cfg.p), PowerSeries.zero(cfg.p)),
        (PowerSeries.zero(cfg.p), PowerSeries.one(cfg.p)),
    ]
    rand = (
        PowerSeries(cfg.p, [rng.randint(-5, 5) for _ in range(4)]),
        PowerSeries(cfg.p, [rng.randint(-5, 5) for _ in range(4)]),
    )
    for lt, lu in basis + [rand]:
        rep = factorization_check(cfg.p, cfg.ap, lt, lu, cfg.cap, cfg.prec)
        if not rep.passed:
            return rep.witness
    return None


# -- the suite -----------------------------------------------------------------

CHECKS: Sequence[Tuple[str, Callable[[CheckConfig], Optional[str]]]] = (
    ("a_matrix_identity", check_a_matrix),
    ("beta_periodicity", check_beta_periodicity),
    ("coefficient_factorization", check_coefficient_factorization),
    ("decompose_round_trip", check_decompose_round_trip),
    ("delta_table", check_delta_table),
    ("factorization_synthetic", check_factorization_synthetic),
    ("finite_determinant", check_finite_determinant),
    ("infinity_determinant", check_infinity_determinant),
    ("infinity_row_recursion", check_infinity_row_recursion),
    ("integrality_antiperiodicity", check_integrality_antiperiodicity),
    ("intrinsicness", check_intrinsicness),
    ("kappa_identity", check_kappa_identity),
    ("kernel_membership", check_kernel_membership),
    ("limit_lemma", check_limit_lemma),
    ("parity_recursion", check_parity_recursion),
    ("pollack_comparison", check_pollack_comparison),
    ("projection_compatibility", check_projection_compatibility),
    ("y_beta_identity", check_y_beta),
)

CHECK_NAMES = tuple(name for name, _ in CHECKS)


def run_suite(configs: Iterable[CheckConfig]) -> List[CheckReport]:
    """Run every applicable check per configuration; failures become reports."""
    reports: List[CheckReport] = []
    for cfg in configs:
        for name, fn in CHECKS:
            if cfg.include is not None and name not in cfg.include:
                continue
            if name == "pollack_comparison" and (cfg.ap != 0 or cfg.p == 2):
                continue  # parity products need a_p = 0 and odd p; no hollow pass
            cfg_dict = dict(cfg.base(), check=name)
            try:
                failure = fn(cfg)
            except PadicLaddersError as exc:
                failure = f"{type(exc).__name__}: {exc}"
            reports.append(_report(name, cfg_dict, failure))
    reports.sort(key=lambda r: (r.name, r.config.get("p", 0), r.config.get("ap", 0)))
    return reports


def default_configs() -> List[CheckConfig]:
    return [CheckConfig(p, ap) for (p, ap) in TABLE_COLUMN_PAIRS]


def factorization_check(
    p: int,
    ap: int,
    ltheta: PowerSeries,
    lupsilon: PowerSeries,
    cap: int,
    prec: int,
) -> CheckReport:
    """Finite levels against the half-log limit on synthetic integral inputs.

    With S := log_theta * ltheta + log_upsilon * lupsilon, the k = 1 scaled
    difference of consecutive ladder rows,
        D_n := p^[-N/2] (theta_n^{-N} ltheta + upsilon_n^{-N} lupsilon)
               - conj(alpha) p^[(-N-1)/2] (theta_n^{-N-1} ltheta
                                           + upsilon_n^{-N-1} lupsilon),
    converges to S (the first beta scalar is 1); this is asserted modulo
    p^prec coefficientwise at the two levels past stabilization, below the
    least of cap and the inputs' caps.  As a_p is an integer, D_n and S agree
    exactly when their two rows x/p^e do; level n's rows are built mod
    p^(prec + e), the residues that comparison reads (a ring map).  A root-
    of-unity stage could never fail: the remainder by the monic integer
    Phi_j(1+X) is Z-linear, so congruent rows stay congruent after it.
    """
    for name, f in (("ltheta", ltheta), ("lupsilon", lupsilon)):
        if getattr(f, "_ints", None) is None:
            raise ValueError(f"{name} must be a PowerSeries with exact integer coefficients")
    config = {"p": p, "ap": ap, "cap": cap, "prec": prec}
    c = min(x for x in (cap, ltheta.cap, lupsilon.cap) if x is not None)

    def applied(rows, exps, mod=None):  # (theta*ltheta + upsilon*lupsilon, e) per row
        return [(_lincomb(1, poly_mul(t, ltheta._ints, c), 1, poly_mul(u, lupsilon._ints, c),
                          mod), e) for (t, u), e in zip(rows, exps)]

    try:
        n_used, [(t0, e0), (u0, _), (t1, e1), (u1, _)] = _limits(p, ap, [0], cap, prec + 2)[0]
        s = applied([[t0, u0], [t1, u1]], (e0, e1))
        for n in (n_used + 1, n_used + 2):
            exps = _row_exps(p, 0, n)
            mod = p ** (prec + max(exps))
            d_n = applied(ladder_rows(p, ap, n, -n_shift(p, n), cap, mod), exps, mod)
            if not _int_approx_congruent(p, d_n, s, prec):
                return _report(
                    "factorization", config,
                    f"finite level n={n} disagrees with the limit mod {p}^{prec}",
                )
    except PadicLaddersError as exc:
        return _report("factorization", config, f"{type(exc).__name__}: {exc}")
    return _report("factorization", config, None)
