"""Quotient-level linear algebra: the ladder map, its kernel, decomposition."""

import json
import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from padic_ladders import coleman, series
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
from padic_ladders.series import (
    LambdaElement,
    PowerSeries,
    omega,
    omega_coeffs,
    phi,
    phi_coeffs,
    poly_mul,
    poly_rem,
    reduce_mod,
    shift_rows,
)

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
    # seeded fault: the level-n image reads index i instead of i + 1
    real_apply = coleman.phi_apply

    def index_i_at_level(n):
        def phi_apply(p, ap, level, idx, v):
            return real_apply(p, ap, level, idx - 1 if level == n else idx, v)
        return phi_apply

    rng = random.Random(48)
    for p, ap in PAIRS + [(5, 0)]:
        for n in (1, 2):
            for i in (0, 1, 2):
                v = rand_pair(rng, p, n + 1)
                monkeypatch.setattr(coleman, "phi_apply", real_apply)
                assert projection_compatibility_check(p, ap, n, i, v).passed
                monkeypatch.setattr(coleman, "phi_apply", index_i_at_level(n))
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
        prods = [poly_rem(poly_mul(phik, y), w, mod) for y in bot]
        rows = [[[(ap * a - b) % mod for a, b in zip_longest(x, prod, fillvalue=0)]
                 for x, prod in zip(top, prods)], top]
    rows = shift_rows(p, ap, rows, 2 * m + 1, mod)
    return [poly_rem([0] + s, w, mod) for theta, upsilon in rows for s in (upsilon, theta)]


def test_limit_lemma_residues_match_per_level_reduction():
    # Phi_k(1+X) = p mod omega_nu once k > nu ...
    for p in (2, 3, 5, 7):
        for nu in range(3):
            for k in range(nu + 1, nu + 3):
                r = poly_rem(phi_coeffs(p, k), omega_coeffs(p, nu))
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
    calls = []
    monkeypatch.setattr(coleman, "phi_apply", lambda *args: calls.append(args) or phi_apply(*args))
    image = phi_apply(3, 3, 3, 1, rand_pair(random.Random(17), 3, 3))
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
    before = series._reversed_inverse.cache_info()
    got = [run(*case) for case in cases]
    after = series._reversed_inverse.cache_info()
    assert after.hits + after.misses > before.hits + before.misses  # the reciprocal path ran
    monkeypatch.setattr(series, "poly_divmod", poly_divmod_reference)
    assert [run(*case) for case in cases] == got
