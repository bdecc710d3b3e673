"""Named executable checks binding every ladder identity to a report.

run_suite executes the whole battery for each configuration and returns the reports in
deterministic name order; failures are data (reports with a witness), never exceptions.
The finite-level checks compare the int rows of the Coleman layer's one exact row cache
(each level's index-1 rows built once, shifted to every index) and build no series; the
three Coleman checks call its int-list kernel (``coleman._image`` and its peers) directly.
The five limit checks read the (index, prec) requests of LIMIT_REQUESTS from one call of
the integer level loop ``ladders._limits`` per configuration.  factorization_check tests
the finite-level decomposition against the half-logarithm limit on a list of inputs (the
suite passes the two basis inputs, which span every integral one).  The six checks of the
trace side are functions of (p, a_p) in ``trace``; CHECKS binds each with one lambda.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .coleman import (_generators, _image, _killed, _peel, _projection, _rows_mod_omega,
                      limit_lemma_check)
from .errors import PadicLaddersError, PrecisionExhausted
from .intcore import (_int_approx_congruent, _lincomb, append_factor, ladder_rows, omega_coeffs,
                      poly_mul, rows_det, shift_rows)
from .ladders import (_half_log_requests, _half_logs_at, _limit_matrix, _limits, _read, _row_exps,
                      kappa_identity_check, n_shift, pollack_product)
from .padics import rational_valuation, require_prime
from .report import CheckReport
from .series import PowerSeries, log_series
from .trace import (check_a_matrix, check_beta_periodicity, check_delta_table,
                    check_integrality_antiperiodicity, check_parity_recursion, check_y_beta,
                    delta_coeffs, period_constants)

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

    def __post_init__(self):
        if min(self.n_max, self.cap, self.prec, self.trials) < 1:
            raise ValueError("n_max, cap, prec and trials must be >= 1")


def _report(name: str, cfg_dict: dict, failure: Optional[str]) -> CheckReport:
    return CheckReport(name, cfg_dict, "pass" if failure is None else "fail", failure)


def _random_pair(rng: random.Random, p: int, n: int) -> tuple:
    deg = require_prime(p) ** n  # a non-prime p reports NonPrimeModulus, not the level guard's
    mk = lambda: [rng.randint(-9, 9) for _ in range(rng.randint(1, deg))]
    return mk(), mk()


# -- individual checks ---------------------------------------------------------


def check_finite_determinant(cfg: CheckConfig) -> Optional[str]:
    consts = period_constants(cfg.p, cfg.ap)
    for n in range(1, min(cfg.n_max, 4) + 1):
        w = omega_coeffs(cfg.p, n)
        for i in range(-2, consts.two_tilde + 1):
            if any(_lincomb(1, [0, *rows_det(_rows_mod_omega(cfg.p, cfg.ap, n, i))], -1, w, None)):
                return f"X*det != omega_{n} at index i={i}"
    return None


def check_coefficient_factorization(cfg: CheckConfig) -> Optional[str]:
    tt = period_constants(cfg.p, cfg.ap).two_tilde
    for n in range(1, min(cfg.n_max, 3) + 1):
        base = _rows_mod_omega(cfg.p, cfg.ap, n, 0)
        for j in range(-tt, tt + 1):
            top = _rows_mod_omega(cfg.p, cfg.ap, n, j)[0]
            y = delta_coeffs(cfg.p, cfg.ap, j)
            for col, (x, b0, b1) in enumerate(zip(top, *base)):
                if any(_lincomb(1, x, -1, _lincomb(y.y, b0, y.y_prime, b1, None), None)):
                    return f"row factorization failed at n={n}, j={j}, col={col}"
    return None


def check_kernel_membership(cfg: CheckConfig) -> Optional[str]:
    for n in range(1, min(cfg.n_max, 3) + 1):
        for i in (0, 1, 2):
            for g in _generators(cfg.p, cfg.ap, n, i):
                for i2 in (1, 2):
                    if not _killed(cfg.p, cfg.ap, n, i2, *g):
                        return f"kernel generator at (n={n}, i={i}) not killed by index {i2}"
    if _killed(cfg.p, cfg.ap, 1, 1, [1], [0]):
        return "(1, 0) wrongly reported inside the kernel at n=1"
    return None


def check_decompose_round_trip(cfg: CheckConfig) -> Optional[str]:
    p, ap, rng = cfg.p, cfg.ap, random.Random(cfg.seed + 1)
    for n in range(1, min(cfg.n_max, 3) + 1):
        for _ in range(cfg.trials):
            a, b = _random_pair(rng, p, n)
            x, y = _peel(p, ap, n, *_image(p, ap, n, 1, a, b))
            if not _killed(p, ap, n, 1, _lincomb(1, x, -1, a, None), _lincomb(1, y, -1, b, None)):
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
            _projection(cfg.p, cfg.ap, n, i, *_random_pair(rng, cfg.p, n + 1))
    return None


def check_infinity_determinant(cfg: CheckConfig, limits: dict) -> Optional[str]:
    """p^shift X det = log_p(1+X) mod p^prec, on the index-1 limit rows x / p^e with x read
    mod p^(prec + 4 + e): det = (t0 u1 - u0 t1) / p^E exactly.  LadderMatrix.det of the same
    rows never overclaims, so each coefficient is this one mod p^absprec, absprec >= L =
    prec + 4 + min v_p(x / p^e) (zero residues count prec + 4); the verdicts agree while
    L >= prec - shift, else PrecisionExhausted.  A failure's witness prints that det's head."""
    p, cap, work, shift = cfg.p, cfg.cap, cfg.prec + 4, n_shift(cfg.p, 0)
    found = _read(limits, (1, work))
    rows = [([c % p ** (work + e) for c in x], e) for x, e in found[1]]
    least = work + min((rational_valuation(c, p) - e if c else work
                        for x, e in rows for c in x[:cap - 1]), default=work)
    if least < cfg.prec - shift:
        raise PrecisionExhausted(f"limit det known mod {p}^{least}, below {p}^{cfg.prec - shift}")
    (t0, e0), (u0, _), (t1, e1), (u1, _) = rows
    det = rows_det([[t0, u0], [t1, u1]], cap - 1)
    log = [c.value for c in log_series(p, cap).coeffs[:cap]]
    den = math.lcm(*(c.denominator for c in log))  # den * log is integral
    lhs = [0] + [c * den * p ** shift for c in det]  # den * p^shift * X * det * p^(e0 + e1)
    y = [c.numerator * den // c.denominator for c in log]
    if not _int_approx_congruent(p, [(lhs, e0 + e1)], [(y, 0)],
                                 cfg.prec + rational_valuation(den, p)):
        det = _limit_matrix(p, cfg.ap, 1, cap, work, found).det(cap)
        return (f"p^{shift} * X * det differs from log_p(1+X) mod {p}^{cfg.prec}; "
                f"det head = {det.coefficient_raw(0)!r}, {det.coefficient_raw(1)!r}")
    return None


def check_infinity_row_recursion(cfg: CheckConfig, limits: dict) -> Optional[str]:
    p, prec = cfg.p, cfg.prec
    rows1, rows0 = (_read(limits, (i, prec))[1] for i in (1, 0))  # (x, e): top, top, bot, bot
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


def check_intrinsicness(cfg: CheckConfig, limits: dict) -> Optional[str]:
    _half_logs_at(cfg.p, cfg.ap, cfg.cap, cfg.prec, limits)  # IdentityViolation on failure
    return None


def check_pollack_comparison(cfg: CheckConfig, limits: dict) -> Optional[str]:
    """PrecisionExhausted if a series is known below p^prec: congruent reads representatives."""
    p, prec, cap = cfg.p, cfg.prec, cfg.cap
    hl, zero = _half_logs_at(p, 0, cap, prec, limits), PowerSeries.zero(p)
    even, odd = (pollack_product(p, parity, cap, prec + 2) for parity in ("even", "odd"))
    sides = [(hl.log_theta.b, zero, "alpha-part of log_theta does not vanish for a_p = 0"),
             (hl.log_upsilon.a, zero, "scalar part of log_upsilon does not vanish for a_p = 0"),
             (hl.log_theta.a.scale(p), -even, "p * log_theta != -(even parity product)"),
             (hl.log_upsilon.b.scale(p), -odd,
              "p * (alpha-part of log_upsilon) != -(odd parity product)")]
    least = min([c.absprec for f, g, _ in sides for c in f.coeffs + g.coeffs
                 if c.absprec is not None], default=prec)
    if least < prec:
        raise PrecisionExhausted(f"a compared series is known mod {p}^{least}, below {p}^{prec}")
    return next((why for f, g, why in sides if not f.congruent(g, prec)), None)


def check_factorization_synthetic(cfg: CheckConfig, limits: dict) -> Optional[str]:
    # Two basis inputs suffice: an integral (lt, lu) compares lt*dtheta + lu*dupsilon,
    # zero mod p^prec when both basis differences are; every raise comes from one limit.
    one, zero = PowerSeries.one(cfg.p), PowerSeries.zero(cfg.p)
    return _factorization_witness(cfg.p, cfg.ap, [(one, zero), (zero, one)], cfg.cap,
                                  cfg.prec, limits)


# -- the suite -----------------------------------------------------------------

CHECKS = (
    ("a_matrix_identity", lambda cfg: check_a_matrix(cfg.p, cfg.ap)),
    ("beta_periodicity", lambda cfg: check_beta_periodicity(cfg.p, cfg.ap)),
    ("coefficient_factorization", check_coefficient_factorization),
    ("decompose_round_trip", check_decompose_round_trip),
    ("delta_table", lambda cfg: check_delta_table(cfg.p, cfg.ap)),
    ("factorization_synthetic", check_factorization_synthetic),
    ("finite_determinant", check_finite_determinant),
    ("infinity_determinant", check_infinity_determinant),
    ("infinity_row_recursion", check_infinity_row_recursion),
    ("integrality_antiperiodicity", lambda cfg: check_integrality_antiperiodicity(cfg.p, cfg.ap)),
    ("intrinsicness", check_intrinsicness),
    ("kappa_identity", check_kappa_identity),
    ("kernel_membership", check_kernel_membership),
    ("limit_lemma", check_limit_lemma),
    ("parity_recursion", lambda cfg: check_parity_recursion(cfg.p, cfg.ap)),
    ("pollack_comparison", check_pollack_comparison),
    ("projection_compatibility", check_projection_compatibility),
    ("y_beta_identity", lambda cfg: check_y_beta(cfg.p, cfg.ap)),
)

CHECK_NAMES = tuple(name for name, _ in CHECKS)

# The limit checks and the limit requests (index, prec) each reads; run_suite passes each
# check (cfg, limits), limits the rows of one _suite_limits call per configuration.
LIMIT_REQUESTS = {
    "factorization_synthetic": lambda cfg: [(0, cfg.prec + 2)],
    "infinity_determinant": lambda cfg: [(1, cfg.prec + 4)],
    "infinity_row_recursion": lambda cfg: [(1, cfg.prec), (0, cfg.prec)],
    "intrinsicness": lambda cfg: _half_log_requests(cfg.p, cfg.ap, cfg.prec),
    "pollack_comparison": lambda cfg: _half_log_requests(cfg.p, 0, cfg.prec),
}


def _suite_limits(cfg: CheckConfig, names: Sequence[str]) -> dict:
    """{(i, prec): rows} for the named limit checks from one ``_limits`` call (the parity
    fault, which only the determinant reads, gives its request a call of its own).  If a
    call raises a PadicLaddersError (an inadmissible pair), every read raises it instead."""
    found: dict = {}
    try:
        for corrupt in (False, True):
            requests = [r for name in names if name in LIMIT_REQUESTS
                        and corrupt == (cfg.corrupt_ap_parity and name == "infinity_determinant")
                        for r in LIMIT_REQUESTS[name](cfg)]
            if requests:
                found.update(_limits(cfg.p, cfg.ap, requests, cfg.cap, corrupt))
    except PadicLaddersError as exc:
        return defaultdict(lambda error=exc: error)
    return found


def run_suite(configs: Iterable[CheckConfig]) -> List[CheckReport]:
    """Run every applicable check per configuration; failures become reports.  The
    included limit checks of a configuration share the rows of one _suite_limits call."""
    reports: List[CheckReport] = []
    for cfg in configs:
        # parity products need a_p = 0 and odd p; no hollow pass
        skip = () if cfg.ap == 0 and cfg.p != 2 else ("pollack_comparison",)
        todo = [(name, fn) for name, fn in CHECKS
                if (cfg.include is None or name in cfg.include) and name not in skip]
        limits = _suite_limits(cfg, [name for name, _ in todo])
        for name, fn in todo:
            cfg_dict = {"p": cfg.p, "ap": cfg.ap, "check": name}
            try:
                failure = fn(cfg, limits) if name in LIMIT_REQUESTS else fn(cfg)
            except PadicLaddersError as exc:
                failure = f"{type(exc).__name__}: {exc}"
            reports.append(_report(name, cfg_dict, failure))
    reports.sort(key=lambda r: (r.name, r.config.get("p", 0), r.config.get("ap", 0)))
    return reports


def default_configs() -> List[CheckConfig]:
    return [CheckConfig(p, ap) for (p, ap) in TABLE_COLUMN_PAIRS]


def factorization_check(p: int, ap: int, inputs: Sequence[Tuple[PowerSeries, PowerSeries]],
                        cap: int, prec: int) -> CheckReport:
    """Finite levels against the half-log limit on synthetic integral inputs.

    For each input (ltheta, lupsilon), with S := log_theta * ltheta +
    log_upsilon * lupsilon, the k = 1 scaled difference of consecutive ladder rows,
        D_n := p^[-N/2] (theta_n^{-N} ltheta + upsilon_n^{-N} lupsilon)
               - conj(alpha) p^[(-N-1)/2] (theta_n^{-N-1} ltheta
                                           + upsilon_n^{-N-1} lupsilon),
    converges to S (the first beta scalar is 1); this is asserted modulo
    p^prec coefficientwise at the two levels past the limit's n_used, below the
    least of cap and the input's caps, input by input and then level by level.
    As a_p is an integer, D_n and S agree exactly when their two rows x/p^e
    do.  One limit and one chain of rows serve every input, the chain all mod
    p^(prec + e) for the largest e at level n_used + 2: it holds the residues
    each comparison reads (a ring map), and one modulus keeps the finite rows
    independent of the limit's precision schedule.  A root-of-unity stage
    could never fail: the remainder by the monic integer Phi_j(1+X) is
    Z-linear, so congruent rows stay congruent after it.
    """
    for pair in inputs:
        for name, f in zip(("ltheta", "lupsilon"), pair):
            if getattr(f, "_ints", None) is None:
                raise ValueError(f"{name} must be a PowerSeries with exact integer coefficients")
    try:
        found = _limits(p, ap, [(0, prec + 2)], cap)
        failure = _factorization_witness(p, ap, inputs, cap, prec, found)
    except PadicLaddersError as exc:
        failure = f"{type(exc).__name__}: {exc}"
    return _report("factorization", {"p": p, "ap": ap, "cap": cap, "prec": prec}, failure)


def _factorization_witness(p: int, ap: int, inputs, cap: int, prec: int,
                           found: dict) -> Optional[str]:
    """factorization_check's comparisons on the (0, prec + 2) limit in found."""

    def applied(lt, lu, rows, exps, mod=None):  # (theta*lt + upsilon*lu, e) per row
        c = min(x for x in (cap, lt.cap, lu.cap) if x is not None)
        return [(_lincomb(1, poly_mul(t, lt._ints, c), 1, poly_mul(u, lu._ints, c), mod), e)
                for (t, u), e in zip(rows, exps)]

    n_used, [(t0, e0), (u0, _), (t1, e1), (u1, _)] = _read(found, (0, prec + 2))
    mod = p ** (prec + max(_row_exps(p, 0, n_used + 2)))
    rows, levels = ladder_rows(p, ap, n_used, 1, cap, mod), []
    for n in (n_used + 1, n_used + 2):
        rows = append_factor(p, ap, rows, n, cap, mod)
        levels.append((n, shift_rows(p, ap, rows, -n_shift(p, n), mod), _row_exps(p, 0, n)))
    for lt, lu in inputs:
        s = applied(lt, lu, [[t0, u0], [t1, u1]], (e0, e1))
        for n, shifted, exps in levels:
            if not _int_approx_congruent(p, applied(lt, lu, shifted, exps, mod), s, prec):
                return f"finite level n={n} disagrees with the limit mod {p}^{prec}"
    return None
