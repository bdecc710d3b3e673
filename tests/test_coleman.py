"""Quotient-level linear algebra: the ladder map, its kernel, decomposition."""

import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings, strategies as st

from padic_ladders import coleman, intcore, ladders, series
from padic_ladders.checks import default_configs, run_suite
from padic_ladders.coleman import (
    LambdaPair,
    _limit_lemma_residues,
    decompose,
    kernel_basis,
    kernel_member,
    limit_lemma_check,
    phi_apply,
    projection_compatibility_check,
)
from padic_ladders.errors import (
    IdentityViolation,
    InexactDivision,
    MixedExtension,
    PrecisionExhausted,
    SerializationError,
)
from padic_ladders.intcore import (_lincomb, omega_coeffs, phi_coeffs, poly_divmod, poly_mul,
                                   shift_rows)
from padic_ladders.padics import PadicScalar
from padic_ladders.series import LambdaElement, PowerSeries, omega, phi, reduce_mod

from divmod_reference import poly_divmod_reference
from test_cli import LOST_PRECISION

PAIRS = [(2, 2), (2, -2), (3, 3), (3, -3), (3, 0)]


def rand_pair(rng, p, n):
    deg = p ** n
    mk = lambda: [rng.randint(-9, 9) for _ in range(rng.randint(1, deg))]
    return LambdaPair.from_ints(p, n, mk(), mk())


def test_phi_apply_reads_off_ladder_columns():
    v = LambdaPair.from_ints(3, 1, [1], [0])
    out = phi_apply(3, 3, 1, 1, v)
    assert out.first == LambdaElement.from_ints(3, 1, [3])
    assert out.second == LambdaElement.from_ints(3, 1, [1])
    w = LambdaPair.from_ints(3, 1, [0], [1])
    out = phi_apply(3, 3, 1, 1, w)
    # (ups_1^1, ups_1^0) = (-Phi_1 mod omega_1, 0)
    assert out.first.poly == reduce_mod(-phi(3, 1), omega(3, 1))
    assert out.second.is_zero()


def test_kernel_generator_level1():
    kb = kernel_basis(3, 3, 1, 1)
    # X*(ups_1^0, -theta_1^0) = (0, -X)
    g = kb.generators[1]
    assert g.first.is_zero()
    assert g.second.poly == -PowerSeries.x_power(3, 1)


def test_kernel_generators_map_to_zero():
    for (p, ap) in PAIRS:
        for n in (1, 2):
            for i in (0, 1, 2):
                for g in kernel_basis(p, ap, n, i).generators:
                    for i2 in (1, 2):
                        assert phi_apply(p, ap, n, i2, g).is_zero()


def test_omega_pair_in_kernel():
    for (p, ap) in [(3, 3), (2, -2)]:
        for n in (1, 2):
            w = omega(p, n)
            left = LambdaPair(LambdaElement(p, n, w), LambdaElement.from_ints(p, n, [0]))
            right = LambdaPair(LambdaElement.from_ints(p, n, [0]), LambdaElement(p, n, w))
            assert kernel_member(p, ap, n, left) and kernel_member(p, ap, n, right)


def test_kernel_member_examples():
    kb = kernel_basis(3, 0, 2, 1)
    assert kernel_member(3, 0, 2, kb.generators[0])
    assert not kernel_member(3, 3, 1, LambdaPair.from_ints(3, 1, [1], [0]))
    # shifted-index generator stays in the kernel
    kb2 = kernel_basis(3, 3, 2, 2)
    assert kernel_member(3, 3, 2, kb2.generators[0])


def test_decompose_round_trip_basis_vector():
    out = decompose(
        3, 3, 1, LambdaElement.from_ints(3, 1, [3]), LambdaElement.from_ints(3, 1, [1])
    )
    assert out.first == LambdaElement.from_ints(3, 1, [1])
    assert out.second.is_zero()


def test_decompose_rejects_non_image():
    with pytest.raises(InexactDivision):
        decompose(
            3, 0, 1, LambdaElement.from_ints(3, 1, [1]), LambdaElement.from_ints(3, 1, [0])
        )


def test_decompose_round_trip_random_mod_kernel():
    rng = random.Random(41)
    for (p, ap) in PAIRS:
        for n in (1, 2, 3):
            for _ in range(15):
                v = rand_pair(rng, p, n)
                image = phi_apply(p, ap, n, 1, v)
                back = decompose(p, ap, n, image.first, image.second)
                assert kernel_member(p, ap, n, back - v)


def test_kernel_index_independence():
    # generators at index i lie in the span at index i+1 and conversely:
    # membership is checked through the index-independent map
    for (p, ap) in [(3, 3), (2, 2)]:
        for n in (1, 2):
            for i in (0, 1, 2, 3):
                for g in kernel_basis(p, ap, n, i).generators:
                    assert kernel_member(p, ap, n, g)


def test_phi_respects_transformation():
    from padic_ladders.trace import ap_parity_value

    rng = random.Random(43)
    for (p, ap) in PAIRS:
        n = 2
        v = rand_pair(rng, p, n)
        for i in (0, 1, 2):
            a = ap_parity_value(p, ap, i)
            low = phi_apply(p, ap, n, i, v)
            high = phi_apply(p, ap, n, i + 1, v)
            assert high.first == low.first * a - low.second
            assert high.second == low.first


def test_projection_compatibility():
    rng = random.Random(47)
    for (p, ap) in PAIRS:
        for n in (1, 2):
            for i in (0, 1, 2):
                v = rand_pair(rng, p, n + 1)
                assert projection_compatibility_check(p, ap, n, i, v).passed


def test_projection_compatibility_catches_level_n_index_fault(monkeypatch):
    # seeded fault: the kernel's level-n image reads index i instead of i + 1
    real_image = coleman._image

    def index_i_at_level(n):
        def _image(p, ap, level, idx, a, b):
            return real_image(p, ap, level, idx - 1 if level == n else idx, a, b)
        return _image

    rng = random.Random(48)
    for p, ap in PAIRS + [(5, 0)]:
        for n in (1, 2):
            for i in (0, 1, 2):
                v = rand_pair(rng, p, n + 1)
                monkeypatch.setattr(coleman, "_image", real_image)
                assert projection_compatibility_check(p, ap, n, i, v).passed
                monkeypatch.setattr(coleman, "_image", index_i_at_level(n))
                with pytest.raises(IdentityViolation, match="projection compatibility"):
                    projection_compatibility_check(p, ap, n, i, v)


def test_limit_lemma_examples():
    assert limit_lemma_check(3, 0, 1, 1).passed
    assert limit_lemma_check(2, 2, 2, 1).passed
    assert limit_lemma_check(3, 3, 1, 0).passed


def test_limit_lemma_sweep():
    for (p, ap) in PAIRS:
        for m in (1, 2):
            for nu in (0, 1):
                assert limit_lemma_check(p, ap, m, nu).passed


def _limit_lemma_reference(p, ap, m, nu):
    """The generators with each Phi_k(1+X) as a polynomial ([p] once k > nu),
    every level reduced mod (omega_nu, p^m)."""
    mod, w = p ** m, omega_coeffs(p, nu)
    rows = [[[1], []], [[], [1]]]
    for k in range(1, 2 * m + nu + 1):
        top, bot = rows
        phik = [p] if k > nu else phi_coeffs(p, k)
        prods = [poly_divmod(poly_mul(phik, y), w, mod)[1] for y in bot]
        rows = [[[(ap * a - b) % mod for a, b in zip_longest(x, prod, fillvalue=0)]
                 for x, prod in zip(top, prods)], top]
    rows = shift_rows(p, ap, rows, 2 * m + 1, mod)
    return [poly_divmod([0] + s, w, mod)[1] for theta, upsilon in rows for s in (upsilon, theta)]


def test_limit_lemma_residues_match_per_level_reduction():
    # Phi_k(1+X) = p mod omega_nu once k > nu ...
    for p in (2, 3, 5, 7):
        for nu in range(3):
            for k in range(nu + 1, nu + 3):
                r = poly_divmod(phi_coeffs(p, k), omega_coeffs(p, nu))[1]
                assert r[0] == p and not any(r[1:]), (p, nu, k)
    # ... so the constant steps give the residues of the per-level reduction
    for p, ap in PAIRS + [(2, 0), (5, 0), (7, 0)]:
        for m in range(1, 5):
            for nu in range(4):
                want = _limit_lemma_reference(p, ap, m, nu)
                assert _limit_lemma_residues(p, ap, m, nu) == want, (p, ap, m, nu)


def test_lambda_pair_json_round_trip():
    v = LambdaPair.from_ints(3, 2, [1, 2, 3], [4, 5])
    again = LambdaPair.from_json(v.to_json())
    assert again == v


_PAIR = LambdaPair.from_ints(3, 2, [1, 2, 3], [4, 5])
_ELEMENT = LambdaElement.from_ints(3, 2, [1, 2, 3])


@pytest.mark.parametrize("value, edit", [
    (_PAIR, lambda d: d.clear()),
    (_PAIR, lambda d: d.update(p="x")),
    (_PAIR, lambda d: d.pop("level")),
    (_PAIR, lambda d: d.update(level=[2])),
    (_PAIR, lambda d: d.pop("first")),
    (_PAIR, lambda d: d.update(second=5)),
    (_PAIR, lambda d: d.update(level=-1)),
    (_ELEMENT, lambda d: d.update(level=-1)),
    (_ELEMENT, lambda d: d.pop("level")),
    (_ELEMENT, lambda d: d.update(level=2.5)),
    (_PAIR, 5), (_PAIR, []), (_PAIR, "x"), (_PAIR, None),
    (_ELEMENT, 5), (_ELEMENT, []), (_ELEMENT, "x"), (_ELEMENT, None),
], ids=["empty", "p-not-int", "level-missing", "level-not-int", "first-missing",
        "second-not-object", "level-negative", "element-level-negative",
        "element-level-missing", "element-level-not-int", "int", "list", "string", "null",
        "element-int", "element-list", "element-string", "element-null"])
def test_lambda_pair_from_json_rejects_bad_fields(value, edit):
    data = value.to_json()
    if callable(edit):
        edit(data)
    else:  # the whole document is not an object
        data = edit
    with pytest.raises(SerializationError):
        type(value).from_json(data)


@st.composite
def _exact_case(draw):
    p, ap = draw(st.sampled_from(PAIRS + [(5, 0)]))
    n = draw(st.integers(1, 3 if p < 5 else 2))
    coeffs = st.lists(st.integers(-9, 9), max_size=p ** n)
    return p, ap, n, LambdaPair.from_ints(p, n, draw(coeffs), draw(coeffs))


@settings(max_examples=40, deadline=None)
@given(_exact_case())
def test_decompose_inverts_phi_apply_mod_kernel(case):
    p, ap, n, v = case
    image = phi_apply(p, ap, n, 1, v)
    assert kernel_member(p, ap, n, decompose(p, ap, n, image.first, image.second) - v)


@st.composite
def _exact_image(draw):
    """phi_apply of an exact pair over the acceptance pairs and (5, 0), n <= 3; the
    coefficients are integers over p^k, k <= 2, so some images are not int-backed."""
    p, ap = draw(st.sampled_from([(2, 0), (2, 2), (2, -2), (3, 0), (3, 3), (3, -3), (5, 0)]))
    n, den = draw(st.integers(1, 3)), p ** draw(st.integers(0, 2))
    coeffs = st.lists(st.integers(-9, 9).map(lambda c: Fraction(c, den)), max_size=p ** n)
    v = LambdaPair(*(LambdaElement(p, n, PowerSeries(p, draw(coeffs))) for _ in range(2)))
    return p, ap, n, phi_apply(p, ap, n, 1, v)


@settings(max_examples=100, deadline=None)
@given(_exact_image())
def test_decompose_rebuilds_exact_input(case):
    """decompose returns exact inputs unchecked; the peel alone must rebuild them."""
    p, ap, n, image = case
    assert image.first.poly.is_exact() and image.second.poly.is_exact()
    assert phi_apply(p, ap, n, 1, decompose(p, ap, n, image.first, image.second)) == image


def test_decompose_rebuilds_only_inexact_input(monkeypatch):
    # the rebuild is one more kernel image: none for an exact input, one for an inexact one
    image = phi_apply(3, 3, 3, 1, rand_pair(random.Random(17), 3, 3))
    calls, real_image = [], coleman._image
    monkeypatch.setattr(coleman, "_image", lambda *args: calls.append(args) or real_image(*args))
    decompose(3, 3, 3, image.first, image.second)
    assert calls == []
    pair = LambdaPair.from_json({"p": 2, "level": 2, **json.loads(LOST_PRECISION)})
    msg = (r"^the peeled pair does not rebuild the inexact input at its precision "
           r"at \(p, a_p, n\) = \(2, 2, 2\)$")
    with pytest.raises(PrecisionExhausted, match=msg):
        decompose(2, 2, 2, pair.first, pair.second)
    assert len(calls) == 1


def test_phi_apply_rejects_pair_from_another_prime_or_level():
    msg = r"inputs must live at the requested \(p, level\)"
    for bad in (LambdaPair.from_ints(2, 2, [1, 1], [0, 1]),  # another prime
                LambdaPair.from_ints(3, 1, [1, 1], [0, 1])):  # another level
        with pytest.raises(ValueError, match=msg):
            phi_apply(3, 3, 2, 1, bad)
        with pytest.raises(ValueError, match=msg):
            kernel_member(3, 3, 2, bad)
        with pytest.raises(ValueError, match=msg):
            decompose(3, 3, 2, bad.first, bad.second)


def test_lambda_element_and_pair_reject_another_prime_or_level():
    e3, e5 = LambdaElement.from_ints(3, 1, [1]), LambdaElement.from_ints(5, 1, [1])
    for build in (lambda: e3 + e5, lambda: e3 == e5, lambda: LambdaPair(e3, e5)):
        with pytest.raises(MixedExtension, match="mixed primes 3 and 5"):
            build()
    with pytest.raises(ValueError, match=r"mixed \(p, level\)"):
        LambdaPair(e3, LambdaElement.from_ints(3, 2, [1]))
    # the reduction reads the series' coefficients, not its operand guard
    with pytest.raises(MixedExtension, match="mixed primes 5 and 3"):
        LambdaElement(3, 1, PowerSeries(5, [1]))


def test_coleman_layer_matches_index_loop_division(monkeypatch):
    """phi_apply, decompose and the off-image rejection above the reciprocal
    crossover, byte for byte against the same calls on the index-loop divide."""
    rng = random.Random(161)

    def run(p, ap, n, v):
        image = phi_apply(p, ap, n, 1, v)
        pre = decompose(p, ap, n, image.first, image.second)
        off = image.first + LambdaElement.from_ints(p, n, [1])
        with pytest.raises(InexactDivision) as rejected:
            decompose(p, ap, n, off, image.second)
        return json.dumps([image.to_json(), pre.to_json(), str(rejected.value)])

    cases = [(p, ap, n, LambdaPair.from_ints(p, n, *([rng.randint(-9, 9) for _ in range(p ** n)]
                                                       for _ in range(2))))
             for p, ap, n in ((3, 3, 5), (5, 0, 3), (2, 2, 7))]
    before = intcore._reversed_inverse.cache_info()
    got = [run(*case) for case in cases]
    after = intcore._reversed_inverse.cache_info()
    assert after.hits + after.misses > before.hits + before.misses  # the reciprocal path ran
    monkeypatch.setattr(series, "poly_divmod", poly_divmod_reference)
    monkeypatch.setattr(coleman, "poly_divmod", poly_divmod_reference)
    assert [run(*case) for case in cases] == got


@st.composite
def _kernel_case(draw):
    """A pair at (2, +-2), (3, 3), (3, 0) or (5, 0), n <= 3, as (value, absprec) lists:
    exact, or PadicScalars with some coefficients known only mod p^absprec."""
    p, ap = draw(st.sampled_from([(2, 2), (2, -2), (3, 3), (3, 0), (5, 0)]))
    n = draw(st.integers(1, 3))
    absprec = st.none() if draw(st.booleans()) else st.none() | st.integers(0, 6)
    coeffs = st.lists(st.tuples(st.integers(-9, 9), absprec), max_size=min(p ** n, 40))
    return p, ap, n, draw(coeffs), draw(coeffs)


def _outcome(f, *args):
    """f's result as JSON, or the type and message of the InexactDivision or
    PrecisionExhausted it raised."""
    try:
        out = f(*args)
    except (InexactDivision, PrecisionExhausted) as exc:
        return type(exc).__name__, str(exc)
    return [x.to_json() for x in out] if isinstance(out, list) else out.to_json()


def _kernel_decompose(p, ap, n, P1, P0):
    """decompose from the kernel alone: the peel of the inputs' coefficients, and for an
    inexact input the kernel image of the peel against the input at its precision."""
    out = [PowerSeries(p, x) for x in coleman._peel(p, ap, n, P1.poly._raw, P0.poly._raw)]
    back = [PowerSeries(p, x) for x in coleman._image(p, ap, n, 1, *(x._raw for x in out))]
    if not (P1.poly.is_exact() and P0.poly.is_exact()) and back != [P1.poly, P0.poly]:
        raise PrecisionExhausted(f"the peeled pair does not rebuild the inexact input at its "
                                 f"precision at (p, a_p, n) = ({p}, {ap}, {n})")
    return out


@settings(max_examples=60, deadline=None)
@given(_kernel_case())
@example((2, 2, 2, [(-2, None)], [(0, 0)]))  # the peel passes, the rebuild does not
def test_public_ops_match_the_int_kernel(case):
    """phi_apply, kernel_member, kernel_basis and decompose are the kernel (_image,
    _generators, _peel) between a validation and a LambdaPair: their results, their
    InexactDivision messages and the inexact input's PrecisionExhausted."""
    p, ap, n, first, second = case
    a, b = ([c for c, _ in x] for x in (first, second))
    v = LambdaPair(*(LambdaElement(p, n, PowerSeries(p, [PadicScalar(p, c, k) for c, k in x]))
                     for x in (first, second)))
    raw = [v.first.poly._raw, v.second.poly._raw]
    exact = v.first.poly.is_exact() and v.second.poly.is_exact()
    assert exact == all(k is None for _, k in first + second)
    for i in (0, 1, 2):
        got = phi_apply(p, ap, n, i, v)
        want = [PowerSeries(p, x) for x in coleman._image(p, ap, n, i, *raw)]
        assert _outcome(lambda: [got.first.poly, got.second.poly]) == _outcome(lambda: want), i
        # at its precision, the image of an inexact pair is the int kernel's on the values
        assert [got.first.poly, got.second.poly] == \
            [PowerSeries(p, x) for x in coleman._image(p, ap, n, i, a, b)], i
        assert _outcome(lambda: list(kernel_basis(p, ap, n, i).generators)) == _outcome(
            lambda: [LambdaPair.from_ints(p, n, *g) for g in coleman._generators(p, ap, n, i)])
    killed = coleman._killed(p, ap, n, 1, a, b)
    assert kernel_member(p, ap, n, v) == killed if exact else killed <= kernel_member(p, ap, n, v)
    image = phi_apply(p, ap, n, 1, v)
    off = image.first + LambdaElement.from_ints(p, n, [1])
    for P1, P0 in ((image.first, image.second), (off, image.second), (v.first, v.second)):
        assert _outcome(decompose, p, ap, n, P1, P0) == _outcome(lambda: LambdaPair(
            *(LambdaElement(p, n, x) for x in _kernel_decompose(p, ap, n, P1, P0))))
    if exact:  # the peel of an exact image is a preimage mod the kernel
        x, y = coleman._peel(p, ap, n, *coleman._image(p, ap, n, 1, a, b))
        assert coleman._killed(p, ap, n, 1, _lincomb(1, x, -1, a, None),
                               _lincomb(1, y, -1, b, None))


def image_reference(p, ap, n, i, a, b):
    """phi_n^i the plain way: both products, their sum, the index-loop remainder by omega_n."""
    rows, w = coleman._rows_mod_omega(p, ap, n, i), omega_coeffs(p, n)
    return [poly_divmod_reference(_lincomb(1, poly_mul(t, a), 1, poly_mul(u, b), None), w)[1]
            for t, u in rows]


def _aligned(p, ap, n, i, r, slot, magnitude):
    """(a, b) with every |coefficient| = magnitude, signed like the operator's entries in
    one slot of image row r, so that slot's |coefficient| nears d (|a| max|theta| + |b|
    max|upsilon|), the bound the packed slots are sized for."""
    w, d = omega_coeffs(p, n), p ** n
    entries = lambda f: [(poly_divmod_reference([0] * j + list(f), w)[1] + [0] * d)[slot]
                         for j in range(d)]
    return [[magnitude * ((c > 0) - (c < 0)) for c in entries(f)]
            for f in coleman._rows_mod_omega(p, ap, n, i)[r]]


@st.composite
def _image_case(draw):
    """A level on either side of _PACKED_MAX_DEG (d = 32 at (2, +-2, 5)) and int inputs of up
    to 200 bits: random, all zero or aligned with the operator, each 0 to 2d long."""
    p, ap = draw(st.sampled_from(PAIRS + [(5, 0)]))
    n, i = draw(st.integers(1, 5 if p == 2 else 3)), draw(st.integers(-3, 4))
    d, bits = p ** n, draw(st.integers(0, 200))
    shape = draw(st.sampled_from(["random", "zero"] + (["aligned"] * 2 if d < 64 else [])))
    if shape == "aligned":
        return (p, ap, n, i, *_aligned(p, ap, n, i, draw(st.integers(0, 1)),
                                       draw(st.integers(0, d - 1)), 2 ** bits - 1))
    coeff = st.integers(-2 ** bits, 2 ** bits) if shape == "random" else st.just(0)
    a, b = (draw(st.lists(coeff, max_size=2 * d)) for _ in range(2))
    return p, ap, n, i, a, b


@settings(max_examples=150, deadline=None)
@given(_image_case())
@example((2, 2, 5, 1, [1] * 40, [-1] * 32))  # d = _PACKED_MAX_DEG: poly_mul and poly_divmod
@example((3, 3, 3, 1, [], []))
def test_packed_image_matches_the_reference(case):
    """Below _PACKED_MAX_DEG _image is the packed operator's dot product, at or above it the
    products and the division: both return exactly the reference's lists, values and
    lengths.  From an empty cache the operator is packed for a unit input, widened for the
    case's input and read for a unit input again."""
    p, ap, n, i, a, b = case
    coleman._operator.cache_clear()
    unit = ([1], [-1])
    for x, y in (unit, (a, b), unit):
        assert coleman._image(p, ap, n, i, x, y) == image_reference(p, ap, n, i, x, y)
    assert coleman._operator.cache_info().currsize == (p ** n < coleman._PACKED_MAX_DEG)


def test_wide_input_leaves_the_packed_entry_as_it_is(fresh_rows):
    """An input whose slots would need more than _PACKED_MAX_WIDTH bytes takes the products
    and the division: the level's cached entry keeps its width, and the wide call and a
    later small one return exactly the index-loop reference.  An input at the bound itself
    is still packed, widening the entry to the bound and no further."""
    p, ap, n, i = 3, 3, 3, 1
    rng = random.Random(48)
    small = [[rng.randint(-9, 9) for _ in range(p ** n)] for _ in range(2)]
    assert coleman._image(p, ap, n, i, *small) == image_reference(p, ap, n, i, *small)
    op = coleman._operator(p, ap, n, i)
    width, d, widest = op[0], p ** n, coleman._PACKED_MAX_WIDTH
    # the largest |a_0| with d (|a| max|theta| + max|upsilon|) below 2^(8 widest - 1)
    at_bound = (2 ** (8 * widest - 1) - 1 - d * op[2]) // (d * op[1])
    for a, b, want in (([2 ** 4000], [], width), ([-3 ** 300] * 40, small[1], width),
                       ([at_bound], [], widest), ([at_bound + 1], [], widest)):
        assert coleman._image(p, ap, n, i, a, b) == image_reference(p, ap, n, i, a, b)
        assert coleman._operator(p, ap, n, i)[0] == want
        assert coleman._image(p, ap, n, i, *small) == image_reference(p, ap, n, i, *small)
    assert coleman._operator.cache_info().currsize == 1


def test_rows_mod_omega_build_each_level_once(monkeypatch, fresh_rows):
    # the cache is the one source of exact finite-level rows: a cold suite reads
    # 165 (p, a_p, n, i) entries over 15 levels through every exact reader (the
    # Coleman ops, ladder() in the two finite checks, the kappa check), and one
    # chain of n ladder steps per level is 30 steps.  Before, the Coleman ops
    # alone read it (55 entries, where one chain per entry made 105 steps)
    real_rows, real_step = coleman._rows_mod_omega, intcore.append_factor
    depth, steps = [0], [0]

    def rows(*args):
        depth[0] += 1
        try:
            return real_rows(*args)
        finally:
            depth[0] -= 1

    def step(*args, **kwargs):
        steps[0] += depth[0] > 0
        return real_step(*args, **kwargs)

    for module in (coleman, ladders):
        monkeypatch.setattr(module, "_rows_mod_omega", rows)
    monkeypatch.setattr(intcore, "append_factor", step)
    assert all(r.passed for r in run_suite(default_configs()))
    assert (steps[0], real_rows.cache_info().misses) == (30, 165)


def test_rows_mod_omega_entries_are_tuples_all_the_way_down():
    # every reader shares an entry, so none may be able to change one
    for p, ap in PAIRS + [(5, 0)]:
        for n in (1, 2, 3):
            for i in range(-4, 6):
                rows = coleman._rows_mod_omega(p, ap, n, i)
                assert type(rows) is tuple and len(rows) == 2, (p, ap, n, i)
                for row in rows:
                    assert type(row) is tuple and len(row) == 2, (p, ap, n, i)
                    assert all(type(x) is tuple and {int}.issuperset(map(type, x))
                               for x in row), (p, ap, n, i)


def test_coleman_checks_build_a_series_only_per_element(monkeypatch):
    # the three Coleman checks call the coefficient-list kernel directly: a warm round
    # builds no PowerSeries and no LambdaElement.  Through the public ops it built 4,360
    # PowerSeries, and 12,085 before the ops ran on coefficient lists
    names = ("decompose_round_trip", "kernel_membership", "projection_compatibility")
    configs = [replace(cfg, include=names) for cfg in default_configs()]
    assert all(r.passed for r in run_suite(configs))
    built = []
    for cls in (PowerSeries, LambdaElement):
        def init(self, *args, real_init=cls.__init__, **kwargs):
            built.append(type(self))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    reports = run_suite(configs)
    assert len(reports) == 15 and all(r.passed for r in reports)
    assert built == []
