"""Every failure branch of the suite, reached under a fixed fault and pinned byte for byte.

Each test monkeypatches one function that a check reads (a perturbed delta
pair, a shifted beta, a limit row moved inside its precision, ...) and
compares the witness strings that ``run_suite`` reports with the text of the
branch they come from, so a rewrite of a check must keep its failure reports
as well as its passes.
"""

import pytest

from padic_ladders import checks, coleman, intcore, trace
from padic_ladders.checks import CheckConfig, run_suite
from padic_ladders.ladders import HalfLogPair, QuadExtSeries
from padic_ladders.series import PowerSeries
from padic_ladders.trace import DeltaCoeffs


def witnesses(name, *pairs, **kw):
    cfgs = [CheckConfig(p, ap, include=(name,), **kw) for p, ap in pairs]
    reports = run_suite(cfgs)
    assert [r.name for r in reports] == [name] * len(pairs)
    return [r.witness for r in reports]


def delta_fault(monkeypatch, module, bad_i):
    """delta_coeffs with y raised by one at the index bad_i only, in the binding of module
    (``trace`` for the checks that live beside it, ``checks`` for the ones that import it)."""
    real = module.delta_coeffs

    def delta_coeffs(p, ap, i):
        d = real(p, ap, i)
        return DeltaCoeffs(p, ap, i, d.y + 1, d.y_prime) if i == bad_i else d

    monkeypatch.setattr(module, "delta_coeffs", delta_coeffs)


def test_row_recursion_top_row_witness(monkeypatch):
    # upsilon_1 (index-1 top row, column 1) moved by p^(e + prec - 1) at X^2:
    # column 0 and the bottom row (index 0) still match, the top row does not
    real_limits = checks._limits

    def limits(p, ap, requests, cap, *args):
        found = real_limits(p, ap, requests, cap, *args)
        prec = next(pr for i, pr in requests if i == 1)  # the index-1 request
        n, approx = found[1, prec]
        x, e = approx[1]
        x = list(x) + [0] * (3 - len(x))
        x[2] += p ** (e + prec - 1)
        found[1, prec] = n, [approx[0], (x, e)] + approx[2:]
        return found

    monkeypatch.setattr(checks, "_limits", limits)
    got = witnesses("infinity_row_recursion", (2, 2), (3, 0), (5, 0), cap=8, prec=3)
    assert got == ["top-row recursion fails in column 1"] * 3


def test_pollack_comparison_witnesses(monkeypatch):
    real_half_logs, real_product = checks._half_logs_at, checks.pollack_product
    one = PowerSeries.one(3)

    def half_logs_fault(part):  # the suite reads the half-logs from its shared limits
        def half_logs(p, ap, cap, prec, found):
            hl = real_half_logs(p, ap, cap, prec, found)
            qs = {"theta": hl.log_theta, "upsilon": hl.log_upsilon}
            name, coord = part
            q = qs[name]
            qs[name] = QuadExtSeries(p, ap, q.a + one if coord == "a" else q.a,
                                     q.b + one if coord == "b" else q.b)
            return HalfLogPair(p, ap, hl.root_tag, qs["theta"], qs["upsilon"], cap, prec)
        return half_logs

    def product_fault(parity):
        def pollack_product(p, par, cap, prec):
            out = real_product(p, par, cap, prec)
            return out + one if par == parity else out
        return pollack_product

    expected = {
        ("half_logs", ("theta", "b")): "alpha-part of log_theta does not vanish for a_p = 0",
        ("half_logs", ("upsilon", "a")): "scalar part of log_upsilon does not vanish for a_p = 0",
        ("half_logs", ("theta", "a")): "p * log_theta != -(even parity product)",
        ("half_logs", ("upsilon", "b")):
            "p * (alpha-part of log_upsilon) != -(odd parity product)",
        ("pollack_product", "even"): "p * log_theta != -(even parity product)",
        ("pollack_product", "odd"): "p * (alpha-part of log_upsilon) != -(odd parity product)",
    }
    for (fn, arg), want in expected.items():
        monkeypatch.setattr(checks, "_half_logs_at", real_half_logs)
        monkeypatch.setattr(checks, "pollack_product", real_product)
        fault = half_logs_fault(arg) if fn == "half_logs" else product_fault(arg)
        monkeypatch.setattr(checks, "_half_logs_at" if fn == "half_logs" else fn, fault)
        assert witnesses("pollack_comparison", (3, 0), cap=12, prec=3) == [want], (fn, arg)


def test_integrality_antiperiodicity_witness(monkeypatch):
    delta_fault(monkeypatch, trace, 3)
    got = witnesses("integrality_antiperiodicity", (2, 2), (3, 0), (3, 3))
    assert got == ["anti-periodicity broken at i=-1", "anti-periodicity broken at i=1",
                   "anti-periodicity broken at i=-3"]


def test_parity_recursion_witnesses(monkeypatch):
    delta_fault(monkeypatch, trace, 3)
    got = witnesses("parity_recursion", (2, -2), (3, -3))
    assert got == ["parity recursion broken at i=2", "parity recursion broken at i=2"]
    monkeypatch.undo()
    real_pow = trace.mat_pow
    monkeypatch.setattr(trace, "mat_pow", lambda A, k: real_pow(A, k + (k == 4)))
    got = witnesses("parity_recursion", (2, -2), (3, -3), (5, 0))
    assert got == ["C^i top row mismatch at i=4"] * 3


def test_beta_periodicity_witness(monkeypatch):
    real_beta = trace.beta
    monkeypatch.setattr(trace, "beta", lambda p, ap, m: real_beta(p, ap, m) + (m == 2))
    got = witnesses("beta_periodicity", (2, 2), (3, 0), (3, 3))
    assert got == ["beta not two_tilde-periodic at m=-2", "beta not two_tilde-periodic at m=0",
                   "beta not two_tilde-periodic at m=-4"]


def test_finite_determinant_witness(monkeypatch):
    real_omega = checks.omega_coeffs
    monkeypatch.setattr(checks, "omega_coeffs",
                        lambda p, n: [c * (1 + (n == 2)) for c in real_omega(p, n)])
    got = witnesses("finite_determinant", (2, 0), (3, 3))
    assert got == ["X*det != omega_2 at index i=-2"] * 2


def test_coefficient_factorization_witness(monkeypatch):
    delta_fault(monkeypatch, checks, 1)
    got = witnesses("coefficient_factorization", (2, 2), (3, 0))
    assert got == ["row factorization failed at n=1, j=1, col=0"] * 2


def test_kernel_membership_witnesses(monkeypatch):
    # the kernel's index-2 image sends the generators at (n=1, i=0) to (1, 0)
    real_image = coleman._image
    monkeypatch.setattr(coleman, "_image", lambda p, ap, n, i, a, b: (
        [[1], [0]] if i == 2 else real_image(p, ap, n, i, a, b)))
    got = witnesses("kernel_membership", (2, 0), (3, 3))
    assert got == ["kernel generator at (n=1, i=0) not killed by index 2"] * 2
    monkeypatch.undo()
    monkeypatch.setattr(checks, "_killed", lambda p, ap, n, i, a, b: True)
    got = witnesses("kernel_membership", (3, 3))
    assert got == ["(1, 0) wrongly reported inside the kernel at n=1"]


def test_decompose_round_trip_witness(monkeypatch):
    real_peel = checks._peel

    def _peel(p, ap, n, u, v):  # off the kernel coset by (1, 0) at level 2
        x, y = real_peel(p, ap, n, u, v)
        return (intcore._lincomb(1, x, -1, [1], None), y) if n == 2 else (x, y)

    monkeypatch.setattr(checks, "_peel", _peel)
    got = witnesses("decompose_round_trip", (3, 3), (2, -2), trials=2)
    assert got == ["round trip left the kernel coset at n=2"] * 2


def test_delta_table_mismatch_witness(monkeypatch):
    column = list(trace.PRINTED_TABLE[3])
    column[4] = "c_n"
    monkeypatch.setitem(trace.PRINTED_TABLE, 3, column)
    got = witnesses("delta_table", (3, -3), (3, 3))
    assert got == [None, "row i=2: got '2c_n - c_{n-1}', expected 'c_n'"]


@pytest.mark.parametrize("pair, want", [
    ((3, 3), "IdentityViolation: y-beta identity failed at (p, a_p, i, k) = (3, 3, -2, 1): "
             "(2/3) + (-1/3)*alpha[3,3] != (1) + (-2/3)*alpha[3,3]"),
    ((2, -2), "IdentityViolation: y-beta identity failed at (p, a_p, i, k) = (2, -2, -2, 1): "
              "(1/2) + (1/2)*alpha[2,-2] != (0) + (1/2)*alpha[2,-2]"),
])
def test_y_beta_identity_witness(monkeypatch, pair, want):
    # beta read one index late: the identity's repr text names both sides
    real_beta = trace.beta
    monkeypatch.setattr(trace, "beta", lambda p, ap, m: real_beta(p, ap, m + 1))
    assert witnesses("y_beta_identity", pair) == [want]


def test_infinity_determinant_congruence_witness(monkeypatch):
    # log_p(1+X) read with an extra X: the limit determinant no longer matches it
    real_log = checks.log_series
    monkeypatch.setattr(checks, "log_series",
                        lambda p, cap: real_log(p, cap) + PowerSeries.x_power(p, 1))
    got = witnesses("infinity_determinant", (2, 2), (3, 0), (3, 3))
    assert got == [
        "p^2 * X * det differs from log_p(1+X) mod 2^5; "
        "det head = -1023/4 + O(2^8), 836607/8 + O(2^7)",
        "p^1 * X * det differs from log_p(1+X) mod 3^5; "
        "det head = -59048/3 + O(3^8), -435870194/3 + O(3^8)",
        "p^1 * X * det differs from log_p(1+X) mod 3^5; "
        "det head = -59048/3 + O(3^8), -415065263/3 + O(3^8)",
    ]


def test_limit_lemma_witness(monkeypatch):
    # p^(m-1) added to the constant term of the first residue: valuation m - 1 < m
    real_residues = coleman._limit_lemma_residues

    def residues(p, ap, m, nu):
        out = real_residues(p, ap, m, nu)
        first = list(out[0]) or [0]
        first[0] += p ** (m - 1)
        return [first] + out[1:]

    monkeypatch.setattr(coleman, "_limit_lemma_residues", residues)
    got = witnesses("limit_lemma", (2, 0), (3, 3))
    assert got == [
        f"IdentityViolation: coefficient of X^0 has valuation 0 < 1 at (p, a_p, m, nu) = {pair}"
        for pair in ("(2, 0, 1, 0)", "(3, 3, 1, 0)")
    ]


def test_a_matrix_identity_witness(monkeypatch):
    # a_p(i) read one index late: a_p = 0 hides it, a_p != 0 fails at l = 2
    real_parity = trace.ap_parity_value
    monkeypatch.setattr(trace, "ap_parity_value", lambda p, ap, i: real_parity(p, ap, i + 1))
    got = witnesses("a_matrix_identity", (2, 2), (3, 0), (3, 3))
    assert got == [
        "IdentityViolation: A_l inversion identity failed at (p, a_p, l) = (2, 2, 2): "
        "((Fraction(0, 1), Fraction(2, 1)), (Fraction(-1, 1), Fraction(4, 1))) != "
        "((Fraction(0, 1), Fraction(2, 1)), (Fraction(-1, 1), Fraction(2, 1)))",
        None,
        "IdentityViolation: A_l inversion identity failed at (p, a_p, l) = (3, 3, 2): "
        "((Fraction(0, 1), Fraction(3, 1)), (Fraction(-1, 1), Fraction(9, 1))) != "
        "((Fraction(0, 1), Fraction(3, 1)), (Fraction(-1, 1), Fraction(3, 1)))",
    ]


@pytest.mark.parametrize("row", [0, 3])
def test_factorization_synthetic_limit_witness(monkeypatch, row):
    # one index-0 limit row moved by p^(e + prec - 1) at X^2, one digit inside the
    # check's prec (its limit runs at prec + 2): theta_0 fails the (1, 0) input,
    # upsilon_{-1} only the (0, 1) input, both at the first level past n_used
    real_limits = checks._limits

    def limits(p, ap, requests, cap, *args):
        found = real_limits(p, ap, requests, cap, *args)
        prec = next(pr for i, pr in requests if i == 0)  # the index-0 request
        n, approx = found[0, prec]
        x, e = approx[row]
        x = list(x) + [0] * (3 - len(x))
        x[2] += p ** (e + prec - 3)
        found[0, prec] = n, approx[:row] + [(x, e)] + approx[row + 1:]
        return found

    monkeypatch.setattr(checks, "_limits", limits)
    got = witnesses("factorization_synthetic", (2, 2), (3, 0), (3, 3), (5, 0))
    assert got == [f"finite level n={n} disagrees with the limit mod {p}^5"
                   for n, p in ((17, 2), (14, 3), (14, 3), (12, 5))]


def test_factorization_synthetic_not_converged_witness(monkeypatch):
    monkeypatch.setenv("SPRUNG_MAX_LIMIT_STEPS", "1")
    got = witnesses("factorization_synthetic", (2, 2), (3, 0), (5, 0))
    assert got == [f"NotConverged: no stabilization mod {p}^7 within 1 steps "
                   f"(p={p}, a_p={ap}, i=0, cap=24)" for p, ap in ((2, 2), (3, 0), (5, 0))]
