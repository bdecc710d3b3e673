"""Independent reference arithmetic for the benchmark's output checks.

Standard library only, written from the definitions rather than from the
package: integer polynomials are plain lists of ints (index = degree),
p-adic rationals are ``fractions.Fraction``.  Nothing here imports
``padic_ladders``, so a check never compares the program with a copy of its
own output.

Definitions used:

* omega_n(X) = (1+X)^(p^n) - 1, from binomial coefficients;
* Phi_j(1+X) = omega_j / omega_(j-1), by exact division of monic integer
  polynomials;
* the index-1 ladder at level n is the row pair of
  [[a_p, -Phi_n], [1, 0]] ... [[a_p, -Phi_1], [1, 0]];
* log_p(1+X) = sum_(k>=1) (-1)^(k+1) X^k / k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Poly = List[int]


# -- integer polynomials -------------------------------------------------------


def trim(f: Sequence[int]) -> Poly:
    out = list(f)
    while out and out[-1] == 0:
        out.pop()
    return out


def add(f: Sequence[int], g: Sequence[int]) -> Poly:
    n = max(len(f), len(g))
    return trim(
        [(f[k] if k < len(f) else 0) + (g[k] if k < len(g) else 0) for k in range(n)]
    )


def scale(f: Sequence[int], c: int) -> Poly:
    return trim([c * x for x in f])


def mul(f: Sequence[int], g: Sequence[int]) -> Poly:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def divmod_monic(f: Sequence[int], g: Sequence[int]) -> Tuple[Poly, Poly]:
    """Quotient and remainder of f by the monic integer polynomial g."""
    g = trim(g)
    d = len(g) - 1
    if d < 0 or g[d] != 1:
        raise ValueError("divisor must be monic")
    rem = list(f)
    if len(rem) <= d:
        return [], trim(rem)
    quot = [0] * (len(rem) - d)
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k]
        if c:
            quot[k - d] = c
            for t in range(d + 1):
                rem[k - d + t] -= c * g[t]
    return trim(quot), trim(rem[:d])


def omega(p: int, n: int) -> Poly:
    """(1+X)^(p^n) - 1."""
    q = p ** n
    return [0] + [math.comb(q, k) for k in range(1, q + 1)]


def cyclotomic(p: int, j: int) -> Poly:
    """Phi_j(1+X) = omega_j / omega_(j-1); the division must be exact."""
    quot, rem = divmod_monic(omega(p, j), omega(p, j - 1))
    if rem:
        raise ArithmeticError(f"omega_{j - 1} does not divide omega_{j} at p={p}")
    return quot


def ladder_rows(p: int, ap: int, n: int) -> List[List[Poly]]:
    """Index-1 rows [[theta_1, upsilon_1], [theta_0, upsilon_0]] at level n."""
    top: List[Poly] = [[1], []]
    bot: List[Poly] = [[], [1]]
    for k in range(1, n + 1):
        phik = cyclotomic(p, k)
        top, bot = [add(scale(top[c], ap), scale(mul(phik, bot[c]), -1)) for c in (0, 1)], top
    return [top, bot]


def rows_mod_omega(p: int, ap: int, n: int) -> List[List[Poly]]:
    w = omega(p, n)
    return [[divmod_monic(s, w)[1] for s in row] for row in ladder_rows(p, ap, n)]


def apply_rows(rows: List[List[Poly]], w: Poly, a: Poly, b: Poly) -> Tuple[Poly, Poly]:
    """(row0 . (a, b), row1 . (a, b)) reduced mod w: the level-n ladder map."""
    out = []
    for r0, r1 in rows:
        out.append(divmod_monic(add(mul(r0, a), mul(r1, b)), w)[1])
    return out[0], out[1]


# -- the constant term at X = 0 --------------------------------------------------


def m0_matrix(p: int, ap: int, n: int) -> List[List[int]]:
    """[[a_p, -p], [1, 0]]^n: the level-n ladder at X = 0 (Phi_j(1) = p)."""
    m = [[1, 0], [0, 1]]
    for _ in range(n):
        m = [[ap * m[0][0] - p * m[1][0], ap * m[0][1] - p * m[1][1]], m[0]]
    return m


def m0_witness(p: int, ap: int, n: int) -> Optional[Tuple[Fraction, Fraction]]:
    """M0^-1 (1, 0) when it is not p-integral, else None.

    omega_n(0) = 0, so evaluation at X = 0 is a ring map from the level-n
    quotient to Z_p.  If (a, b) maps onto (P1, P0), a pair differing from it
    by (1, 0) can only be an image when M0 (x, y) = (1, 0) has a p-integral
    solution; a non-integral M0^-1 (1, 0) therefore proves non-membership.
    """
    (a, b), (c, d) = m0_matrix(p, ap, n)
    det = a * d - b * c
    sol = (Fraction(d, det), Fraction(-c, det))
    if all(valuation(x, p) >= 0 for x in sol):
        return None
    return sol


# -- p-adic rationals and truncated series -------------------------------------------


def valuation(x: Fraction, p: int) -> float:
    if x == 0:
        return math.inf
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def log_coeffs(cap: int) -> List[Fraction]:
    """Coefficients of log_p(1+X) below X^cap."""
    return [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, cap)]


def series_mul(f: Sequence[Fraction], g: Sequence[Fraction], cap: int) -> List[Fraction]:
    """Truncated product, computed on integers over a common denominator."""
    df = math.lcm(*(x.denominator for x in f)) if f else 1
    dg = math.lcm(*(x.denominator for x in g)) if g else 1
    fi = [int(x * df) for x in f]
    gi = [int(x * dg) for x in g]
    out = [0] * cap
    for i, a in enumerate(fi[:cap]):
        if a:
            for j in range(min(len(gi), cap - i)):
                out[i + j] += a * gi[j]
    return [Fraction(x, df * dg) for x in out]


def series_sub(f: Sequence[Fraction], g: Sequence[Fraction]) -> List[Fraction]:
    n = max(len(f), len(g))
    return [(f[k] if k < len(f) else 0) - (g[k] if k < len(g) else 0) for k in range(n)]


def first_incongruence(
    f: Sequence[Fraction], g: Sequence[Fraction], p: int, k: int, cap: int
) -> Optional[int]:
    """Least degree below cap where f and g differ mod p^k, or None."""
    for i in range(cap):
        a = f[i] if i < len(f) else 0
        b = g[i] if i < len(g) else 0
        if valuation(Fraction(a) - b, p) < k:
            return i
    return None


def series_from_json(data: dict) -> List[Fraction]:
    """Coefficient values of an artifact series ({"p", "coeffs": [{num, den_pow}]})."""
    p = int(data["p"])
    return [Fraction(int(c["num"]), p ** int(c["den_pow"])) for c in data["coeffs"]]


# -- self-test ------------------------------------------------------------------


def self_test() -> List[str]:
    """Hand-computed small cases; returns the list of mismatches (empty = pass)."""
    bad = []

    def expect(label, got, want):
        if got != want:
            bad.append(f"{label}: got {got}, want {want}")

    expect("omega_1 at p=3", omega(3, 1), [0, 3, 3, 1])
    expect("Phi_1(1+X) at p=3", cyclotomic(3, 1), [3, 3, 1])
    expect("Phi_1(1+X) at p=2", cyclotomic(2, 1), [2, 1])
    expect("Phi_2(1+X) at p=2", cyclotomic(2, 2), [2, 2, 1])
    # Phi_j(1+X) = sum_(t<p) (1+X)^(p^(j-1) t): the binomial form
    for p, j in ((2, 3), (3, 2), (5, 2)):
        e = p ** (j - 1)
        want = trim([sum(math.comb(e * t, k) for t in range(p)) for k in range(e * (p - 1) + 1)])
        expect(f"Phi_{j}(1+X) at p={p}", cyclotomic(p, j), want)
    expect("level-1 rows at (3, 3)", ladder_rows(3, 3, 1), [[[3], [-3, -3, -1]], [[1], []]])
    expect("level-1 rows at (3, 0)", ladder_rows(3, 0, 1), [[[], [-3, -3, -1]], [[1], []]])
    # X * det = omega_n at every level
    for p, ap, n in ((2, 2, 3), (3, -3, 2), (5, 0, 2)):
        (t0, u0), (t1, u1) = ladder_rows(p, ap, n)
        det = add(mul(t0, u1), scale(mul(u0, t1), -1))
        expect(f"X*det = omega_{n} at ({p}, {ap})", [0] + det, omega(p, n))
    # [[3, -3], [1, 0]]^5 = [[0, -27], [9, -27]], determinant 3^5
    expect("M0 at (3, 3, 5)", m0_matrix(3, 3, 5), [[0, -27], [9, -27]])
    expect("M0^-1 (1,0) at (3, 3, 5)", m0_witness(3, 3, 5), (Fraction(-1, 9), Fraction(-1, 27)))
    expect("M0^-1 (1,0) at (2, 2, 1)", m0_witness(2, 2, 1), (Fraction(0), Fraction(-1, 2)))
    expect("log_p(1+X) head", log_coeffs(5), [0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)])
    expect("series_mul", series_mul([Fraction(1, 3), 1], [3, Fraction(1, 2)], 2), [1, Fraction(19, 6)])
    return bad
