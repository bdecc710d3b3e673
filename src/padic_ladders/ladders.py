"""Matrix ladders of cyclotomic factors, their scaled limits, and half-logarithms.

The finite-level object at index 1 is the 2x2 product
[[a_p, -Phi_n(1+X)], [1, 0]] ... [[a_p, -Phi_1(1+X)], [1, 0]]; other indices
are reached by the unimodular shift [[a_p(i), -1], [1, 0]] and its inverse,
so every finite-level entry is an exact integer polynomial.

The infinity-level object scales row i-N of the level-n ladder by
p^[(i-N)/2] (N = n+1 for odd p, n+2 for p = 2) and stops at the level n*
that ``_stop_level`` computes from the start level's rows (derived in
``ladder_infinity``), as the factor loop of ``pollack_product`` does; past
the step cap a limit is NotConverged.  Half-logarithms combine the index-0
limit rows with the conjugate root (row_0 - conj(alpha) * row_{-1}) into
Z[alpha]-coordinate coefficients, built from the integer rows on which their
Z[alpha] identities are checked.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import List, Optional, Union

from .coleman import _check_level, _rows_mod_omega
from .errors import IdentityViolation, NotConverged, SerializationError, UsageError
from .intcore import (_int_approx_congruent, _lincomb, append_factor, ladder_rows, phi_mul,
                      shift_rows)
from .padics import PadicScalar, QuadExtScalar, _json_int, _operand, rational_valuation
from .report import CheckReport
from .series import PowerSeries, gauss_norm_log
from .trace import beta, period_constants

Rows = List[List[PowerSeries]]  # [[theta_top, upsilon_top], [theta_bot, upsilon_bot]]

ENV_MAX_LIMIT_STEPS = "SPRUNG_MAX_LIMIT_STEPS"


def n_shift(p: int, n: int) -> int:
    """The level-to-conductor shift N: n+1 for odd p, n+2 for p = 2."""
    return n + 1 if p != 2 else n + 2


@dataclass
class LadderMatrix:
    """2x2 block (rows i and i-1) of the theta/upsilon ladder.

    ``level`` is an integer for finite levels or the string "infinity" for the
    scaled limit; ``prec`` is only meaningful at infinity.
    """

    p: int
    ap: int
    level: Union[int, str]
    index: int
    entries: Rows
    cap: Optional[int] = None
    prec: Optional[int] = None
    n_used: Optional[int] = None

    theta_top = property(lambda self: self.entries[0][0])
    upsilon_top = property(lambda self: self.entries[0][1])
    theta_bot = property(lambda self: self.entries[1][0])
    upsilon_bot = property(lambda self: self.entries[1][1])

    def det(self, cap: Optional[int] = None) -> PowerSeries:
        """theta_i * upsilon_{i-1} - upsilon_i * theta_{i-1}."""
        return self.theta_top.mul(self.upsilon_bot, cap) - self.upsilon_top.mul(
            self.theta_bot, cap
        )

    def to_json(self) -> dict:
        return {"p": self.p, "ap": self.ap, "level": self.level, "index": self.index,
                "cap": self.cap, "prec": self.prec,
                "entries": [[s.to_json() for s in row] for row in self.entries]}

    @classmethod
    def from_json(cls, data: dict) -> "LadderMatrix":
        p, ap = _json_int(data, "p"), _json_int(data, "ap")
        rows = data.get("entries")
        if not (isinstance(rows, list) and len(rows) == 2
                and all(isinstance(row, list) and len(row) == 2 for row in rows)):
            raise SerializationError(f"entries must be two rows of two series, got {rows!r}")
        limit = data.get("level") == "infinity"  # a limit needs its cap and prec
        opt = lambda key: None if data.get(key) is None and not limit else _json_int(data, key)
        level, index = "infinity" if limit else _json_int(data, "level"), _json_int(data, "index")
        entries = [[PowerSeries.from_json(s) for s in row] for row in rows]
        return cls(p, ap, level, index, entries, opt("cap"), opt("prec"))


def ladder(p: int, ap: int, n: int, i: int, cap: Optional[int] = None) -> LadderMatrix:
    """Finite-level ladder at level n and index i, exact integer polynomials.

    A cap >= p^n + 1 is dropped and the entries are complete polynomials, the
    rows of the shared cache ``coleman._rows_mod_omega``; a cap <= p^n is kept
    and truncates at X^cap (at p^n nothing: degrees < p^n).
    """
    _check_level(p, ap, n)
    if cap is not None and cap >= p ** n + 1:
        cap = None  # full polynomials fit, no truncation needed
    rows = (_rows_mod_omega(p, ap, n, i) if cap is None
            else shift_rows(p, ap, ladder_rows(p, ap, n, 1, cap), i))
    # Row 0 at level 1 is the identity row (1, 0), untouched by any factor,
    # so it stays an exact polynomial; every other row went through X^cap.
    caps = [None if n == 1 and idx == 0 else cap for idx in (i, i - 1)]
    entries = [[PowerSeries(p, s, c) for s in row] for row, c in zip(rows, caps)]
    return LadderMatrix(p, ap, n, i, entries, cap)


def _row_exps(p: int, i: int, n: int):
    """The exponents e of rows (i, i-1) at level n, each row read as x / p^e."""
    return tuple(-((j - n_shift(p, n)) // 2) for j in (i, i - 1))


def _first_level(p: int, cap: int, i: int = 1) -> int:
    """The least n >= 1 with p^n >= cap and n_shift(p, n) >= i - 1."""
    n = 1
    while p ** n < cap or n_shift(p, n) < i - 1:
        n += 1
    return n


def _max_limit_steps(p: int, cap: int, prec: int, i: int) -> int:
    env = os.environ.get(ENV_MAX_LIMIT_STEPS)
    if env is None:  # below index 0 the level needed grows by one per two steps
        return _first_level(p, cap) + 2 * prec + 8 + (max(0, -i) + 1) // 2
    try:
        steps = int(env)
    except ValueError:
        steps = 0
    if steps < 1:
        raise UsageError(f"{ENV_MAX_LIMIT_STEPS} must be a positive integer, got {env!r}")
    return steps


def ladder_infinity(p: int, ap: int, i: int, cap: int, prec: int,
                    _corrupt_parity: bool = False) -> LadderMatrix:
    """Scaled limit rows (i, i-1) mod X^cap, right modulo p^prec.

    The level loop ``_limits`` for the one request (i, prec): levels n_start
    (the least n with p^n >= cap and n_shift(p, n) >= i - 1) to n*.  Raises
    NotConverged when n* lies past the step cap, which grows by one per two
    steps of the index below 0 and which SPRUNG_MAX_LIMIT_STEPS sets exactly.

    Stopping level (Pollack's a_p = 0 limits, Duke Math. J. 118 (2003), in
    Sprung's scaling).  S_n is level n's rows j = i - N and j - 1, row j
    scaled by p^[j/2]; Phi_n(1+X) = p + p^(s_n) G_n mod X^cap, G_n integral,
    s_n = n - 1 - L, p^L <= cap - 1 < p^(L+1) (``_phi_split``).
    - Rows obey row_(j+1) = a_p(j) row_j - row_(j-1), so scaled pairs move by
      C = [[a_p, -p], [1, 0]].  Were Phi_n = p, row j of level n would be
      p^[j odd] row j+1 of level n-1; as [j/2] + [j odd] = [(j+1)/2],
      S_n = S_(n-1).
    - The shift is linear, so S_n - S_(n-1) is the scaled image of the index
      (1, 0) pair (-p^(s_n) G_n r_0^(n-1), 0).  C raises the norm min(v(top),
      v(bottom) + 1/2) of a scaled pair by exactly 1/2 (C^two_tilde =
      -p^one_tilde I), so the move's norm is >= S_(n-1)'s + s_n - 1/2 and its
      valuation >= S_(n-1)'s norm + s_n - 1.  With c = max(e - v_p(x)) over the
      rows x / p^e of S_(n_start), whose norm is >= -c, no move past n_start
      (s_n >= 1) lowers the norm: level n moves S by at least s_n - c - 1.
    So no level past n* = max(n_start + 2, prec + L + c + 1) moves S mod p^prec
    (n_start + 2 at cap 1, where Phi_j(1+X) = p mod X).  The loop asserts the
    bound at n*, the last of the three levels it shifts (n_start, n* - 1, n*):
    IdentityViolation if v(S_(n*) - S_(n*-1)) < min(prec, s_(n*) - c - 1).

    Precision schedule (exact, as in Caruso, arXiv:1701.06794).  Level n reads
    both rows shifted to index i (an integer matrix keeps the smaller precision of
    its inputs) and scaled by p^-e, e <= e_n = max(``_row_exps(p, i, n)``), which
    grows by one every second level.  Its top row is computed mod p^T_n, T_n =
    prec + e_n + 1: for n > n_start, p^(n-1) >= cap and p | a_p, so the step gives
    it mod p^(min(T_(n-1), T_(n-2)) + 1) = p^T_n; the levels before n_start gain
    nothing and are kept mod p^T_(n_start).  A numerator read as 0 mod p^T_n has
    e - v_p(x) < -prec, below c's floor, and the guard reads residues mod
    p^(prec + e) only: any larger precision, whatever the step cap, gives the
    same result.
    """
    found = _limits(p, ap, [(i, prec)], cap, _corrupt_parity)
    return _limit_matrix(p, ap, i, cap, prec, _read(found, (i, prec)))


def _limits(p: int, ap: int, requests: list, cap: int, _corrupt_parity: bool = False) -> dict:
    """``ladder_infinity``'s (n_used, approx) for each request (i, prec), keyed by it.

    One level loop: level n is built once, mod the largest p^T_n(i) a pending
    request needs (p^T_(n_start)(i) before its n_start), so each request sees
    every level at least as precisely as its own schedule would.  An index shifts
    its rows at the levels its requests read: n_start, which fixes their n*, then
    n* - 1 and n*.  A request whose n* lies past its step cap, or whose guard
    fails, maps to the error its own call would raise, which ``_read`` raises.
    """
    period_constants(p, ap)
    if cap < 1 or any(prec < 1 for _, prec in requests):
        raise ValueError("cap and prec must be >= 1")
    start = {i: _first_level(p, cap, i) for i, _ in requests}
    stop = {(i, prec): start[i] + _max_limit_steps(p, cap, prec, i) for i, prec in requests}
    found, guard, prev = {}, {}, {}
    rows1 = [[[1], []], [[], [1]]]
    for n in range(1, max(stop.values()) + 1):
        pending = [r for r in stop if r not in found and n <= stop[r]]
        if not pending:
            break
        mod = max(p ** (prec + max(_row_exps(p, i, max(n, start[i]))) + 1) for i, prec in pending)
        rows1 = append_factor(p, ap, rows1, n, cap, mod)
        approx = {}  # rows (i, i-1) of level n, once per index
        for r in pending:
            i, prec = r
            if n != start[i] and n < stop[r] - 1:
                continue
            if i not in approx:
                shifted = shift_rows(p, ap, rows1, i - n_shift(p, n), mod, _corrupt_parity)
                approx[i] = [(s, e) for row, e in zip(shifted, _row_exps(p, i, n)) for s in row]
            if n == start[i]:
                n_star, guard[r] = _stop_level(p, cap, prec, n, approx[i], lambda m: m)
                if n_star > stop[r]:
                    found[r] = NotConverged(f"no stabilization mod {p}^{prec} within {stop[r] - n}"
                                            f" steps (p={p}, a_p={ap}, i={i}, cap={cap})")
                stop[r] = n_star
            elif n < stop[r]:
                prev[r] = approx[i]
            elif _int_approx_congruent(p, prev[r], approx[i], guard[r]):
                found[r] = n, approx[i]
            else:
                found[r] = IdentityViolation(f"level {n} moved the limit mod {p}^{guard[r]}, "
                                             f"past its bound (p={p}, a_p={ap}, i={i}, cap={cap})")
    return found


def _stop_level(p: int, cap: int, prec: int, start: int, approx, phi_j) -> tuple:
    """(n*, t) for a limit whose step n multiplies by Phi_j(1+X) = p + p^s G mod X^cap,
    j = phi_j(n) and s = j - n0 (``_first_level``), and so moves it by a valuation of
    at least s - c - 1 (``ladder_infinity``), c = max(e - v_p(x)) >= -prec over the
    numerators x of approx, rows x / p^e.  n* is the first n >= start + 2 past which
    no step moves it mod p^prec; t, the guard's precision at n*, is min(prec, its bound)."""
    c = max([e - rational_valuation(g, p) for xs, e in approx if (g := math.gcd(*xs))] + [-prec])
    bound = lambda n: prec if cap == 1 else phi_j(n) - _first_level(p, cap) - c - 1
    n = start + 2
    while bound(n + 1) < prec:
        n += 1
    return n, min(prec, bound(n))


def _read(found: dict, request):
    """found[request], raising the error it holds in its place."""
    value = found[request]
    if isinstance(value, Exception):
        raise value
    return value


def _limit_matrix(p: int, ap: int, i: int, cap: int, prec: int, found) -> LadderMatrix:
    n, approx = found
    # x / p^e mod p^prec reads x mod p^(prec + e)
    entries = [[PowerSeries.from_numerators(p, [x % p ** (prec + e) for x in s], e, prec, cap)
                for s, e in approx[r:r + 2]] for r in (0, 2)]
    return LadderMatrix(p, ap, "infinity", i, entries, cap=cap, prec=prec, n_used=n)


class QuadExtSeries:
    """The half-log artifact: a series with Z[alpha] coefficients, as (a, b) parts."""

    __slots__ = ("p", "ap", "a", "b")

    def __init__(self, p: int, ap: int, a: PowerSeries, b: PowerSeries):
        self.p = p
        self.ap = ap
        self.a = a
        self.b = b

    @property
    def cap(self) -> Optional[int]:
        return self.a._cap_min(self.b)

    _check_same = QuadExtScalar._check_same  # the same (p, a_p) check

    def _coerce(self, other):
        return other if isinstance(other, QuadExtSeries) else NotImplemented

    @_operand
    def congruent(self, other: "QuadExtSeries", k: int) -> bool:
        return self.a.congruent(other.a, k) and self.b.congruent(other.b, k)

    @_operand
    def __eq__(self, other):
        return self.a == other.a and self.b == other.b

    __hash__ = None

    def gauss_norm_log(self, s) -> Optional[Fraction]:
        """The larger of the parts' norms, b's lowered by v(alpha) = 1/2; None for zero."""
        na, nb = gauss_norm_log(self.a, s), gauss_norm_log(self.b, s)
        norms = [na, None if nb is None else nb - Fraction(1, 2)]
        return max((v for v in norms if v is not None), default=None)

    def to_json(self) -> dict:
        a, b = self.a.to_json()["coeffs"], self.b.to_json()["coeffs"]
        zero = PadicScalar.zero(self.p).to_json()  # pads the shorter part
        return {
            "p": self.p,
            "ap": self.ap,
            "cap": self.cap,
            "coeffs": [{"a": x, "b": y} for x, y in zip_longest(a, b, fillvalue=zero)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "QuadExtSeries":
        p, ap = _json_int(data, "p"), _json_int(data, "ap")
        coeffs = data.get("coeffs")

        def part(key: str) -> PowerSeries:
            # PowerSeries.from_json rejects a missing or non-list coeffs and a missing key
            cs = coeffs
            if isinstance(coeffs, list):
                cs = [c.get(key) if isinstance(c, dict) else c for c in coeffs]
            return PowerSeries.from_json({"p": p, "cap": data.get("cap"), "coeffs": cs})

        return cls(p, ap, part("a"), part("b"))


@dataclass
class HalfLogPair:
    """The pair (row_0 - conj(alpha) row_{-1}) built from theta and upsilon limits."""

    p: int
    ap: int
    root_tag: str
    log_theta: QuadExtSeries
    log_upsilon: QuadExtSeries
    cap: int
    prec: int

    def to_json(self) -> dict:
        return {"p": self.p, "ap": self.ap, "root_tag": self.root_tag, "cap": self.cap,
                "prec": self.prec, "log_theta": self.log_theta.to_json(),
                "log_upsilon": self.log_upsilon.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "HalfLogPair":
        p, ap, cap, prec = (_json_int(data, key) for key in ("p", "ap", "cap", "prec"))
        root_tag = data.get("root_tag", "alpha")
        if not isinstance(root_tag, str):
            raise SerializationError(f"root_tag must be a string, got {root_tag!r}")
        return cls(p, ap, root_tag, QuadExtSeries.from_json(data.get("log_theta")),
                   QuadExtSeries.from_json(data.get("log_upsilon")), cap, prec)


def _int_coords(scalars: List[QuadExtScalar]):
    """(d, [a*d, b*d for each a + b*alpha]) as ints, d the least common denominator."""
    d = math.lcm(*(s.d for s in scalars))
    return d, [c * (d // s.d) for s in scalars for c in (s.na, s.nb)]


def _half_log_requests(p: int, ap: int, prec: int) -> list:
    """The limit requests (index, prec) that half_logs reads."""
    return [(0, prec + 2), (1 - period_constants(p, ap).two_tilde, prec + 2)]


def half_logs(p: int, ap: int, cap: int, prec: int) -> HalfLogPair:
    """Half-logarithm pair from the index-0 limit rows, intrinsicness-checked.

    One level loop gives the rows at indices 0 and 1 - two_tilde at prec + 2,
    read mod p^(prec + 2) over one denominator p^E.  The artifact is row_0 -
    abar row_{-1} = (row_0 - a_p row_{-1}) + row_{-1} alpha on those
    numerators, and the variants (row_{-i} abar^i - row_{-i-1} abar^(i+1)) /
    (beta_i - beta_(i-1)) for i = 0 and two_tilde - 1 must agree with it mod
    p^prec, else IdentityViolation.  The scalars have integer coordinates (the
    beta difference has norm 1 on every admissible pair), so series precisions
    would stay >= prec + 2: the same congruence.  The i = 0 variant reads the
    artifact's own rows with scalars 1 and abar, so it checks beta and abar
    only; a wrong limit row is caught by the i = two_tilde - 1 variant.
    """
    requests = _half_log_requests(p, ap, prec)  # the pair's guard first, as in _limits
    if cap < 1 or prec < 1:
        raise ValueError("cap and prec must be >= 1")
    return _half_logs_at(p, ap, cap, prec, _limits(p, ap, requests, cap))


def _half_logs_at(p: int, ap: int, cap: int, prec: int, found: dict) -> HalfLogPair:
    """half_logs on the rows of its requests in found, read in order."""
    tt = period_constants(p, ap).two_tilde
    limits = {i: _read(found, (i, pr))[1] for i, pr in _half_log_requests(p, ap, prec)}
    E = max(e for approx in limits.values() for _, e in approx)
    # rows (theta, upsilon) at index -i, then -i-1: (x mod p^(prec+2+e)) * p^(E-e)
    M = p ** (prec + 2 + E)
    rows = {i: [[c * s % M for c in x] for x, s in [(x, p ** (E - e)) for x, e in approx]]
            for i, approx in limits.items()}
    logs = [(_lincomb(1, f0, -ap, f1, None), f1) for f0, f1 in zip(rows[0][:2], rows[0][2:])]
    abar = QuadExtScalar.alpha_bar(p, ap)
    failed = IdentityViolation(
        f"intrinsicness cross-check failed for (p, a_p) = ({p}, {ap}) at precision {prec}")
    for i in (0, tt - 1):
        inv = (beta(p, ap, i) - beta(p, ap, i - 1)).inverse()
        den, (ua, ub, wa, wb) = _int_coords([abar.pow_int(i) * inv, abar.pow_int(i + 1) * inv])
        if den != 1:
            raise failed
        for top, bot, (la, lb) in zip(rows[-i][:2], rows[-i][2:], logs):
            for u, w, log in ((ua, wa, la), (ub, wb, lb)):
                if any(_lincomb(1, _lincomb(u, top, -w, bot, None), -1, log, p ** (prec + E))):
                    raise failed
    part = lambda xs: PowerSeries.from_numerators(p, xs, E, prec + 2, cap)
    log_theta, log_upsilon = (QuadExtSeries(p, ap, part(la), part(lb)) for la, lb in logs)
    return HalfLogPair(p, ap, "alpha", log_theta, log_upsilon, cap, prec)


def pollack_product(p: int, parity: str, cap: int, prec: int = 24) -> PowerSeries:
    """prod over j = parity of Phi_j(1+X)/p, truncated at X^cap, right mod p^prec.

    Only odd p is meaningful (the construction needs p - 1 > 1 parity classes).
    After k factors the value is Q_k = P_k/p^k, P_k an integer polynomial kept
    mod p^(prec+max(k, d)): the d factors j <= n0 (p^(n0-1) < cap <= p^n0) gain
    no p-adic digit, each later one gains one (``phi_mul``).  Past them Phi_j/p
    = 1 + p^(s_j - 1) G_j, s_j = j - n0 >= 1, and the Gauss norm is
    multiplicative, so factor k moves Q by a valuation of at least s_j - c - 1
    (c = max(d - v_p(P_d), -prec), read once, never grows), the bound of every
    limit (``ladder_infinity``).  It stops at ``_stop_level``'s k*: IdentityViolation if
    factor k* moved Q mod p^min(prec, its bound), NotConverged past the cap.
    """
    if p == 2:
        raise ValueError("parity products need an odd prime")
    period_constants(p, 0)
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if cap < 1 or prec < 1:
        raise ValueError("cap and prec must be >= 1")
    n0 = _first_level(p, cap)
    max_steps, j1 = n0 + prec + 10, 2 if parity == "even" else 1
    d = len(range(j1, n0 + 1, 2))  # the factors j <= n0: p^(j-1) < cap but at cap 1
    P = [1]
    for k in range(d):
        P = phi_mul(p, j1 + 2 * k, P, cap, p ** (prec + d))
    k_star, t = _stop_level(p, cap, prec, d, [(P, d)], lambda k: j1 + 2 * k - 2)
    if k_star > max_steps:
        raise NotConverged(f"parity product did not stabilize mod {p}^{prec} within {max_steps}"
                           " factors")
    for k in range(d, k_star):
        prev, P = P, phi_mul(p, j1 + 2 * k, P, cap, p ** (prec + k + 1))
    if not _int_approx_congruent(p, [(prev, k_star - 1)], [(P, k_star)], t):
        raise IdentityViolation(f"factor {k_star} moved the parity product mod {p}^{t}, "
                                "past its bound")
    return PowerSeries.from_numerators(p, P, k_star, prec, cap)  # P is reduced mod p^(prec+k*)


def kappa_identity_check(p: int, ap: int, n: int, i: int) -> CheckReport:
    """Exact finite-level check of the scaled-row recombination identity.

    With N the level shift and kappa_m = alpha^m (beta_m - beta_{i-1}),
    asserts kappa_{-N} row_0 - kappa_{-N-1} row_{-1}
    = p^[(-N-i)/2] row_{-N-i} * conj(alpha)^i, entrywise for theta and
    upsilon, exactly: in each Z[alpha] coordinate over one common denominator.
    The identity relates row shifts and holds for any index-1 rows, so it checks
    beta, alpha and the shift parities only; it cannot see a wrong ladder row.
    """
    _check_level(p, ap, n)
    N = n_shift(p, n)
    alpha = QuadExtScalar.alpha(p, ap)
    beta_ref = beta(p, ap, i - 1)
    kappas = [alpha.pow_int(m) * (beta(p, ap, m) - beta_ref) for m in (-N, -N - 1)]
    # (-N - i) // 2 < 0: the p-power is a rational, never an int power (a float)
    scale = QuadExtScalar.alpha_bar(p, ap).pow_int(i) * Fraction(p) ** ((-N - i) // 2)
    _, (k0a, k0b, k1a, k1b, sa, sb) = _int_coords(kappas + [scale])
    rows0, shifted = (_rows_mod_omega(p, ap, n, j) for j in (0, -N - i))
    for col, label in ((0, "theta"), (1, "upsilon")):
        for k0, k1, sc in ((k0a, k1a, sa), (k0b, k1b, sb)):
            lhs = _lincomb(k0, rows0[0][col], -k1, rows0[1][col], None)
            if any(_lincomb(1, lhs, -sc, shifted[0][col], None)):
                raise IdentityViolation(
                    f"kappa identity failed for {label} at "
                    f"(p, a_p, n, i) = ({p}, {ap}, {n}, {i})"
                )
    return CheckReport(
        name="kappa_identity", config={"p": p, "ap": ap, "n": n, "i": i}
    )
