"""Integer coefficient lists: the exact core under every ladder row and limit approximant.

Phi_j(1+X), omega_n and every finite-level ladder row are integer
polynomials: lists of ints, index = degree.  Truncation at X^cap, reduction of
the coefficients mod an integer and reduction mod a monic polynomial are ring
maps, so applying them after every step is sound.

The schoolbook loops of poly_divmod and poly_mul use only +, - and * on the
coefficients, so PowerSeries (series.py) also runs them on its PadicScalar
tuples; their ``if c:`` skips int zeros only (a PadicScalar is always truthy,
and an exact zero term leaves the value and absprec of a sum as they are).  Int
operands with _KRONECKER_MIN_LEN or more kept coefficients are packed into one
int each for one big-int product (Kronecker substitution, arXiv:0712.4046; a
slot has a sign bit only if an operand is negative, and from _SHORT_MIN_LEN a
truncated product is Mulders' short product); int division by a monic g of
degree >= _RECIPROCAL_MIN_DEG takes two, with 1/rev(g).  A ladder step reads
Phi_j(1+X) as p + c*H_j (_phi_split, G_j a fixed table once 2s >= w): one
product H_j*y and one pass a_p*x - p*y - c*(H_j*y) mod the step's modulus per row.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache
from itertools import repeat, zip_longest
from typing import List, Optional, Tuple

from .padics import rational_valuation, require_prime
from .trace import ap_parity_value

Poly = List[int]
IntRows = List[List[Poly]]  # [[theta_top, upsilon_top], [theta_bot, upsilon_bot]]
_KRONECKER_MIN_LEN = 14  # poly_mul's crossover by length, sign and width (BENCH_36.json)
_SHORT_MIN_LEN = 100  # Mulders' short product's crossover, measured in BENCH_32.json
_RECIPROCAL_MIN_DEG = 100  # poly_divmod's crossover, measured in BENCH_16.json
_RECIPROCAL_MIN_QUOT = 32  # and its quotient terms, measured with it in BENCH_16.json


def _reduced(coeffs: Poly, mod: Optional[int]) -> Poly:
    return coeffs if mod is None else [c % mod for c in coeffs]


def _binomials(e: int, count: int) -> Poly:
    """C(e, k) for 0 <= k < min(count, e+1), by C(e, k+1) = C(e, k)(e-k)/(k+1)."""
    out, c = [], 1
    for k in range(min(count, e + 1)):
        out.append(c)
        c = c * (e - k) // (k + 1)
    return out


def phi_coeffs(p: int, j: int, cap: Optional[int] = None, mod: Optional[int] = None) -> Poly:
    """Phi_j(1+X) = sum_{t<p} (1+X)^(p^(j-1) t): monic, constant term p.

    With cap, exactly cap coefficients (zero past the degree); with mod, each
    coefficient reduced into [0, mod).
    """
    require_prime(p)
    if j < 1:
        raise ValueError("j must be >= 1")
    q = p ** (j - 1)
    out = [0] * (q * (p - 1) + 1 if cap is None else cap)
    for t in range(p):
        for k, c in enumerate(_binomials(q * t, len(out))):
            out[k] += c
    return _reduced(out, mod)


@lru_cache(maxsize=64)
def _phi_exact(p: int, j: int) -> Tuple[int, ...]:
    return tuple(phi_coeffs(p, j))


def _phi_split(p: int, j: int, cap: Optional[int], mod: Optional[int]):
    """(c, H_j, low) with Phi_j(1+X) = p + c H_j below X^cap and mod mod, H_j
    reduced into [0, low), low = mod/c or 1: (p^s, G_j) for a cap, mod = p^w
    and q = p^(j-1) >= cap, else (1, Phi_j - p).  There s = j-1-L >= 1, p^L <=
    cap-1 < p^(L+1), and C(tq, k) = p^(j-1-v_p(k)) t prod_{0<i<k} ((tq - i)/
    p^v_p(i)) / u(k!) (v_p(tq - i) = v_p(i) for i < cap, u the unit part): unit
    products mod low and a table (_split_tables), not thousand-bit binomials.
    Each tq/p^v_p(i) is divisible by p^s, so once p^s = 0 mod low (2s >= w) each factor
    (tq - i)/p^v_p(i) is -u(i) mod low, the product (-1)^(k-1) u((k-1)!), and sum_t t =
    p(p-1)/2: G_j = (p(p-1)/2) (-1)^(k-1) p^L/k mod low, with no running products.  So
    Phi_j(1+X)/p = 1 + p^(j-2) (p(p-1)/2) log(1+X) mod (p^(w-1), X^cap), log(1+X) = sum
    (-1)^(k-1) X^k/k: the late factors of log_p(1+X) = X prod_j Phi_j(1+X)/p (criterion 8a)."""
    q, w = p ** (j - 1), round(math.log(mod, p)) if mod is not None and mod > 1 else 0
    if cap is None or mod is None or q < cap or p ** w != mod:
        return 1, [0] + phi_coeffs(p, j, cap, mod)[1:], mod  # Phi_j - p
    L, pv, table, closed = _split_tables(p, cap, 1 << (w - 1).bit_length())
    shift, low = p ** (j - 1 - L), p ** max(w - (j - 1 - L), 0)
    if shift % low == 0:  # 2s >= w, or low == 1
        return shift, [0] + [g % low for g in closed], low
    sums = [0] * (cap - 1)  # k-1 -> sum_t t prod_{0<i<k} (tq - i)/p^v_p(i)
    for t in range(1, p):
        f, tq = t, t * q
        falling = [t] + [f := f * ((tq - i) // d) % low for i, d in zip(range(1, cap - 1), pv[1:])]
        sums = [s + g for s, g in zip(sums, falling)]
    return shift, [0] + [a * s % low for a, s in zip(table, sums)], low


@lru_cache(maxsize=32)
def _split_tables(p: int, cap: int, K: int):
    """(L, pv, table, closed) mod p^K, 0 < k < cap: p^L <= cap-1 < p^(L+1), pv[k] = p^v_p(k),
    table[k-1] = p^(L-v_p(k))/u(k!), closed[k-1] = (p(p-1)/2)(-1)^(k-1) p^L/k.  K is a power
    of two >= w, so a limit's levels (w up by one every second level) share few tables."""
    vs = [0] + [rational_valuation(i, p) for i in range(1, cap)]  # the largest is L
    L, pv, mod = max(vs), tuple(p ** v for v in vs), p ** K
    units = [i // pv[i] for i in range(cap - 1, 1, -1)]
    f = pow(math.prod(units), -1, mod)  # 1/u((cap-1)!)
    inv = [f] + [f := f * u % mod for u in units]  # 1/u(k!) for k = cap-1 down to 1
    closed = tuple((-1) ** (k - 1) * p * (p - 1) // 2 * p ** L // d * pow(k // d, -1, mod) % mod
                   for k, d in enumerate(pv[1:], 1))
    return L, pv, tuple(p ** L // d * f % mod for d, f in zip(pv[1:], reversed(inv))), closed


@lru_cache(maxsize=64)
def omega_coeffs(p: int, n: int) -> Tuple[int, ...]:
    """omega_n(X) = (1+X)^(p^n) - 1, monic of degree p^n (cached per (p, n))."""
    require_prime(p)
    if n < 0:
        raise ValueError("n must be >= 0")
    return (0, *_binomials(p ** n, p ** n + 1)[1:])


def poly_mul(a: Poly, b: Poly, cap: Optional[int] = None) -> Poly:
    """a*b below X^cap: min(cap, len(a)+len(b)-1) coefficients, none if a or b is []."""
    n = len(a) + len(b) - 1 if a and b else 0
    out = [0] * (n if cap is None else min(n, cap))
    a, b = a[: len(out)], b[: len(out)]
    if min(len(a), len(b)) >= _KRONECKER_MIN_LEN and type(a[0]) is type(b[0]) is int:
        return _kronecker_mul(a, b, len(out))
    for i, ai in enumerate(a):
        if ai:
            for k, bk in enumerate(b[: len(out) - i], i):
                out[k] += ai * bk
    return out


def _kronecker_mul(a: Poly, b: Poly, count: int) -> Poly:
    """The first count coefficients of a*b from packed ints; truncated at count >=
    _SHORT_MIN_LEN, Mulders' short product at one level (Hanrot-Zimmermann 2004)."""
    (lo_a, hi_a), (lo_b, hi_b) = (min(a), max(a)), (min(b), max(b))
    bound = max(hi_a, -lo_a) * max(hi_b, -lo_b) * min(len(a), len(b))  # >= every |(a*b)_k|
    if not bound:
        return [0] * count
    signed = lo_a < 0 or lo_b < 0
    width = (bound.bit_length() + 7 + signed) // 8  # bytes per slot: the bound (and a sign bit)
    x, y, bits = _pack(a, width, lo_a < 0), _pack(b, width, lo_b < 0), 8 * width * count
    if _SHORT_MIN_LEN <= count < len(a) + len(b) - 1:  # x0 + 2^h x1 times y0 + 2^h y1, 2h >= bits
        h = 8 * width * -(-count * 7 // 10)
        low, m = (1 << h) - 1, (1 << (bits - h)) - 1
        prod = (x & low) * (y & low) + ((x >> h & m) * (y & m) + (x & m) * (y >> h & m) << h)
    else:
        prod = x * y
    return _unpack(prod, width, count, signed)


def _pack(cs, width: int, neg: bool) -> int:
    """sum_k cs[k] * 2^(8*width*k); with neg, one pass of slots c + half (|c| < half) less."""
    if neg:
        half = 1 << (8 * width - 1)
        return _pack([c + half for c in cs], width, False) - _half_slots(width, len(cs))
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in cs]), "little")


def _half_slots(width: int, count: int) -> int:  # half = 2^(8*width - 1) in each of count slots
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _unpack(x: int, width: int, count: int, signed: bool) -> Poly:
    """The low count slots of x, width bytes each; a signed slot holds c + half, |c| < half."""
    half, offset = signed << (8 * width - 1), _half_slots(width, count) if signed else 0
    buf = ((x + offset) & ((1 << 8 * width * count) - 1)).to_bytes(width * count, "little")
    fmt = struct.Struct("<" + f"{width}s" * count)  # not struct.unpack: it caches ~2 KB a format
    slots = map(int.from_bytes, fmt.unpack(buf), repeat("little"))
    return [c - half for c in slots] if signed else list(slots)


def poly_divmod(f: Poly, g: Poly, mod: Optional[int] = None) -> Tuple[Poly, Poly]:
    """Quotient and remainder of f by the monic polynomial g (g[-1] == 1).  Int f at most
    d = deg g >= _RECIPROCAL_MIN_DEG bits wide, with m >= _RECIPROCAL_MIN_QUOT quotient terms,
    takes rev(q) = rev(f)/rev(g) mod X^m and r = f - q*g mod X^d (the same lists)."""
    d, m = len(g) - 1, len(f) - len(g) + 1
    if d >= _RECIPROCAL_MIN_DEG and m >= _RECIPROCAL_MIN_QUOT and \
            all(type(c) is int for c in (*f, *g)) and max(map(abs, f)).bit_length() <= d:
        quot = poly_mul(f[::-1], _reversed_inverse(tuple(g), 1 << (m - 1).bit_length()), m)[::-1]
        return _reduced(quot, mod), _reduced([a - b for a, b in zip(f, poly_mul(quot, g, d))], mod)
    rem, quot = list(f), []
    while len(rem) > d:
        c = rem.pop()
        quot.append(c)
        if c and d:
            rem[-d:] = [r - c * t for r, t in zip(rem[-d:], g)]
    return _reduced(quot[::-1], mod), _reduced(rem, mod)


@lru_cache(maxsize=32)
def _reversed_inverse(g: Tuple[int, ...], m: int) -> Tuple[int, ...]:
    """1/rev(g) mod X^m (m a power of two) by Newton steps h <- h(2 - rev(g) h), von zur
    Gathen-Gerhard 9.1: if rev(g) h = 1 + X^k E mod X^2k, h gains -h E mod X^k."""
    rev, h = g[::-1], [1]
    while len(h) < m:
        e = poly_mul(rev, h, 2 * len(h))[len(h):]
        h += [-c for c in poly_mul(h, e, len(h))]
    return tuple(h)


def _lincomb(s: int, x: Poly, t: int, y: Poly, mod: Optional[int]) -> Poly:
    """s*x + t*y, as long as the longer operand, reduced mod mod in the same pass."""
    pairs = zip_longest(x, y, fillvalue=0)
    if mod is None:
        return [s * xk + t * yk for xk, yk in pairs]
    return [(s * xk + t * yk) % mod for xk, yk in pairs]


def _int_approx_congruent(p: int, a, b, prec: int) -> bool:
    """Whether the rows of a and b, (x, e) pairs read as x / p^e, agree mod p^prec."""
    for (x, ea), (y, eb) in zip(a, b):
        # x/p^ea = y/p^eb mod p^prec  <=>  x*p^eb - y*p^ea = 0 mod p^(prec+ea+eb)
        modulus = p ** (prec + ea + eb)
        sa, sb = p ** eb, p ** ea
        if any((xv * sa - yv * sb) % modulus for xv, yv in zip_longest(x, y, fillvalue=0)):
            return False
    return True


def phi_mul(p: int, j: int, y: Poly, cap: Optional[int] = None,
            mod: Optional[int] = None) -> Poly:
    """Phi_j(1+X) * y below X^cap and mod mod, in one pass: (p*y + c*(H_j*y))
    mod mod with Phi_j(1+X) = p + c H_j (_phi_split).  For mod = p^w, c = p^s
    and the product is p*y once s >= w; as s >= 1 and p | a_p, a ladder step
    then gains one p-adic digit."""
    c, h, low = _phi_split(p, j, cap, mod)
    return _lincomb(p, y[:cap], c, poly_mul(h, _reduced(y, low), cap), mod)


def append_factor(p: int, ap: int, rows: IntRows, k: int, cap: Optional[int] = None,
                  mod: Optional[int] = None) -> IntRows:
    """[[a_p, -Phi_k(1+X)], [1, 0]] applied to (top; bottom): the new top row is
    (a_p*x - p*y - c*(H_k*y)) mod mod, one pass per column (_phi_split)."""
    (top, bot), (c, h, low), new_top = rows, _phi_split(p, k, cap, mod), []
    for x, y in zip(top, bot):
        terms = zip_longest(x, y[:cap], poly_mul(h, _reduced(y, low), cap), fillvalue=0)
        new_top.append([ap * xk - p * yk - c * hk for xk, yk, hk in terms] if mod is None else
                       [(ap * xk - p * yk - c * hk) % mod for xk, yk, hk in terms])
    return [new_top, top]


def rows_det(rows: IntRows, cap: Optional[int] = None) -> Poly:
    """theta_i upsilon_(i-1) - upsilon_i theta_(i-1) below X^cap, for rows (i, i-1)."""
    (t0, u0), (t1, u1) = rows
    return _lincomb(1, poly_mul(t0, u1, cap), -1, poly_mul(u0, t1, cap), None)


def shift_matrix(p: int, ap: int, i: int, parity_flip: bool = False) -> Tuple[int, ...]:
    """[[s, t], [u, v]] taking index-1 rows to index i: the |i-1| steps
    [[a_p(idx), -1], [1, 0]] or their inverses.  parity_flip reads a_p(idx+1)
    for a_p(idx), a deliberate fault for tests."""
    off = 1 if parity_flip else 0
    s, t, u, v = 1, 0, 0, 1
    for idx in range(1, i):
        a = ap_parity_value(p, ap, idx + off)
        s, t, u, v = a * s - u, a * t - v, s, t
    for idx in range(1, i, -1):
        a = ap_parity_value(p, ap, idx - 1 + off)
        s, t, u, v = u, v, a * u - s, a * v - t
    return s, t, u, v


def shift_rows(p: int, ap: int, rows: IntRows, i: int, mod: Optional[int] = None,
               parity_flip: bool = False) -> IntRows:
    """Index-1 rows moved to index i by shift_matrix, mod mod: a Z-linear combination
    per coefficient, so capped or omega-reduced rows stay so."""
    if i == 1:
        return rows
    s, t, u, v = shift_matrix(p, ap, i, parity_flip)
    # After a single step one row is the old row itself, unreduced and unpadded.
    top, bot = rows
    new_top = bot if i == 0 else [_lincomb(s, x, t, y, mod) for x, y in zip(top, bot)]
    new_bot = top if i == 2 else [_lincomb(u, x, v, y, mod) for x, y in zip(top, bot)]
    return [new_top, new_bot]


def ladder_rows(p: int, ap: int, n: int, i: int, cap: Optional[int] = None,
                mod: Optional[int] = None) -> IntRows:
    """Rows (i, i-1) of the level-n ladder, built up from the identity rows."""
    rows: IntRows = [[[1], []], [[], [1]]]
    for k in range(1, n + 1):
        rows = append_factor(p, ap, rows, k, cap, mod)
    return shift_rows(p, ap, rows, i, mod)
