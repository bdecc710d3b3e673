"""The aggregated verification suite and the synthetic factorization check."""

import random
from fractions import Fraction

import pytest

from padic_ladders import checks, coleman, intcore, ladders
from padic_ladders.checks import (
    CHECK_NAMES,
    CheckConfig,
    factorization_check,
    run_suite,
)
from padic_ladders.ladders import kappa_identity_check
from padic_ladders.padics import PadicScalar
from padic_ladders.report import CheckReport
from padic_ladders.series import PowerSeries
from padic_ladders.trace import PRINTED_TABLE, delta_table
from zalpha_reference import factorization_check_reference, kappa_identity_check_reference


def small(p, ap, **kw):
    base = dict(n_max=2, cap=16, prec=4, trials=4)
    base.update(kw)
    return CheckConfig(p, ap, **base)


def alone(check, cfg):
    """A limit check on the rows of its own requests, read as run_suite serves them."""
    name = next(name for name, fn in checks.CHECKS if fn is check)
    return check(cfg, checks._suite_limits(cfg, [name]))


def test_empty_config_empty_report():
    assert run_suite([]) == []


def test_default_config_all_pass():
    reports = run_suite([small(3, 3), small(2, -2)])
    assert reports, "suite produced no reports"
    bad = [r for r in reports if not r.passed]
    assert not bad, f"failures: {[(r.name, r.witness) for r in bad]}"


def test_pollack_check_only_for_ap_zero():
    # parity products need a_p = 0 and odd p; elsewhere the suite reports
    # nothing, not a hollow pass
    for (p, ap), applies in (((3, 3), False), ((2, 0), False), ((3, 0), True)):
        names = {r.name for r in run_suite([small(p, ap)])}
        assert ("pollack_comparison" in names) == applies, (p, ap)


def test_pollack_comparison_raises_below_the_requested_precision(monkeypatch):
    # congruent compares representatives, so past its operands' precision its verdict
    # rests on digits nobody knows: parity products requested three digits short are
    # known mod 3^4, and mod 3^5 their representatives differ from p * log_theta (a
    # false FAIL; other digits could give a hollow PASS).  The check raises instead
    real = checks.pollack_product
    monkeypatch.setattr(checks, "pollack_product",
                        lambda p, parity, cap, prec: real(p, parity, cap, prec - 3))
    cfg = CheckConfig(3, 0, include=("pollack_comparison",))
    hl = ladders.half_logs(3, 0, cfg.cap, cfg.prec)
    short = checks.pollack_product(3, "even", cfg.cap, cfg.prec + 2)
    assert {c.absprec for c in short.coeffs} == {cfg.prec - 1}
    assert not hl.log_theta.a.scale(3).congruent(-short, cfg.prec)
    assert hl.log_theta.a.scale(3).congruent(-short, cfg.prec - 1)
    [report] = run_suite([cfg])
    assert (report.status, report.witness) == (
        "fail", "PrecisionExhausted: a compared series is known mod 3^4, below 3^5")


def test_inadmissible_pair_fails_every_check():
    # delta_table validates the pair like every other check: no hollow pass
    reports = run_suite([CheckConfig(5, 5)])
    assert len(reports) == len(CHECK_NAMES) - 1  # no parity products at a_p != 0
    assert {(r.status, r.witness) for r in reports} == {
        ("fail", "NotSupersingular: a_p = 5 violates the Hasse bound at p = 5")}


def test_suite_deterministic():
    cfgs = [small(3, 3, seed=5)]
    a = [r.to_json() for r in run_suite(cfgs)]
    b = [r.to_json() for r in run_suite(cfgs)]
    assert a == b


def test_reports_sorted_by_name():
    reports = run_suite([small(2, 2), small(3, 0)])
    names = [r.name for r in reports]
    assert names == sorted(names)


def test_fault_injection_breaks_infinity_determinant():
    reports = run_suite(
        [small(3, 3, corrupt_ap_parity=True, include=("infinity_determinant",))]
    )
    assert len(reports) == 1
    assert reports[0].status == "fail"
    assert reports[0].witness


def test_include_filters_checks():
    reports = run_suite([small(3, 3, include=("delta_table", "a_matrix_identity"))])
    assert {r.name for r in reports} == {"delta_table", "a_matrix_identity"}


def test_printed_table_matches_delta_table():
    for (p, ap) in [(2, 2), (2, -2), (3, 3), (3, -3), (3, 0)]:
        rows = delta_table(p, ap, -2, 7)
        assert [r.rendered for r in rows] == PRINTED_TABLE[ap]


def test_check_report_invariants():
    with pytest.raises(ValueError):
        CheckReport(name="x", status="fail")  # fail must carry a witness
    with pytest.raises(ValueError):
        CheckReport(name="x", status="maybe")


def test_all_check_names_unique_and_sorted():
    assert list(CHECK_NAMES) == sorted(set(CHECK_NAMES))


def test_factorization_basis_cases():
    one = PowerSeries.one(3)
    zero = PowerSeries.zero(3)
    assert factorization_check(3, 3, [(one, zero)], 20, 4).passed
    assert factorization_check(3, 3, [(zero, one)], 20, 4).passed


def test_factorization_random_integral_pair():
    lt = PowerSeries(3, [1, -2, 0, 3])
    lu = PowerSeries(3, [2, 1, 1])
    rep = factorization_check(3, 3, [(lt, lu)], 24, 5)
    assert rep.passed, rep.witness


def test_factorization_ap_zero():
    lt = PowerSeries(3, [1, 1])
    lu = PowerSeries(3, [0, 2])
    assert factorization_check(3, 0, [(lt, lu)], 20, 4).passed


def test_factorization_check_input_contract(monkeypatch, fresh_rows):
    # anything but an exact integer polynomial is refused, naming the argument
    one = PowerSeries.one(3)
    for bad in (PowerSeries(3, [Fraction(1, 3)]), PowerSeries(3, [PadicScalar(3, 1, 4)]),
                [1, 2]):
        for name, args in (("ltheta", (bad, one)), ("lupsilon", (one, bad))):
            with pytest.raises(ValueError, match=f"^{name} must be a PowerSeries with exact "
                                                 "integer coefficients$"):
                factorization_check(3, 3, [args], 20, 4)
    # an input with its own cap truncates everything at the smallest cap, so
    # a finite-row fault at X^4 and above is read only without that cap
    lt, lu = PowerSeries(3, [1, -2, 0, 3], 3), PowerSeries(3, [2, 1, 1, 5])
    for cap in (2, 8, 24):
        rep = factorization_check(3, 3, [(lt, lu)], cap, 5)
        assert rep == factorization_check_reference(3, 3, lt, lu, cap, 5)
        assert rep.passed
    real_append = intcore.append_factor

    def append_factor(p, ap, rows, k, cap=None, mod=None):
        out = real_append(p, ap, rows, k, cap, mod)
        if k == 1:
            out[0][0] = out[0][0] + [0, 0, 0, 1]
        return out

    monkeypatch.setattr(intcore, "append_factor", append_factor)
    for cap, prec in ((8, 1), (24, 5)):
        for lt_own, fails in ((lt, False), (PowerSeries(3, [1, -2]), True)):
            rep = factorization_check(3, 3, [(lt_own, lu)], cap, prec)
            assert rep == factorization_check_reference(3, 3, lt_own, lu, cap, prec)
            assert rep.passed is not fails


PAIRS_8 = [(2, 0), (2, 2), (2, -2), (3, 0), (3, 3), (3, -3), (5, 0), (7, 0)]


def test_suite_makes_one_limit_call_per_configuration(monkeypatch, fresh_rows):
    # the five limit checks of a configuration read one _limits call: a warm
    # default round makes 5 calls and builds at most 84 limit levels (one
    # call per check made 21 calls and built 314 levels); a configuration
    # without a limit check makes none
    counts = {"calls": 0, "levels": 0}
    real_limits, real_step = ladders._limits, ladders.append_factor

    def limits(*args):
        counts["calls"] += 1
        return real_limits(*args)

    def step(*args):
        counts["levels"] += 1
        return real_step(*args)

    run_suite(checks.default_configs())  # warm
    monkeypatch.setattr(ladders, "_limits", limits)
    monkeypatch.setattr(checks, "_limits", limits)
    monkeypatch.setattr(ladders, "append_factor", step)
    assert all(r.passed for r in run_suite(checks.default_configs()))
    assert counts["calls"] == 5 and 0 < counts["levels"] <= 84, counts
    counts.update(calls=0, levels=0)
    assert run_suite([CheckConfig(3, 3, include=("delta_table",))])[0].passed
    assert counts == {"calls": 0, "levels": 0}


def test_warm_round_reads_exact_rows_from_the_cache(monkeypatch, fresh_rows):
    # a warm default round reads every exact finite-level row from the shared
    # cache: its 25 ladder_rows calls are the limit lemma's and the factorization
    # check's modded chains, and its 171 ladder steps are those chains and the
    # limit levels.  With the finite checks and the kappa check building their
    # own chains, a warm round made 85 calls and 270 steps
    counts = {"ladder_rows": 0, "append_factor": 0}
    run_suite(checks.default_configs())  # warm
    for name in counts:
        real = getattr(intcore, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in (intcore, ladders, coleman, checks):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    assert all(r.passed for r in run_suite(checks.default_configs()))
    assert counts == {"ladder_rows": 25, "append_factor": 171}


def test_finite_checks_build_no_series(monkeypatch, fresh_rows):
    # finite_determinant and coefficient_factorization compare the cached int rows
    # with poly_mul and _lincomb: from a cold row cache they pass with every
    # PowerSeries and every ladder() call refused
    def refuse(*args, **kwargs):
        raise AssertionError("a finite check built a series")

    monkeypatch.setattr(PowerSeries, "__init__", refuse)
    monkeypatch.setattr(ladders, "ladder", refuse)
    include = ("finite_determinant", "coefficient_factorization")
    reports = run_suite([CheckConfig(c.p, c.ap, include=include)
                         for c in checks.default_configs()])
    assert len(reports) == 10 and all(r.passed for r in reports), reports


def test_factorization_basis_pairs_decide_every_integral_input(monkeypatch):
    # Why factorization_synthetic runs only the basis pairs: the difference it
    # compares is lt*(theta_n - theta) + lu*(upsilon_n - upsilon), so for
    # integral (lt, lu) it vanishes mod p^prec whenever both basis differences
    # do.  Seeded fault: one coefficient of one index-0 limit row moved by a
    # unit times p^(e + v), v around prec.  A random integral pair passes
    # whenever both basis pairs pass, and the suite's check reports what the
    # three-input loop it replaced reported.
    rng = random.Random(20)
    real_limits, found = checks._limits, {}
    one, zero = PowerSeries.one, PowerSeries.zero

    def perturbed(row, k, shift):
        def limits(p, ap, requests, cap, *args):
            key = (p, ap, tuple(requests), cap) + args
            if key not in found:
                found[key] = real_limits(p, ap, requests, cap, *args)
            [(i, prec)] = requests  # the check's one request, (0, its prec + 2)
            n, approx = found[key][i, prec]
            x, e = approx[row]
            x = list(x) + [0] * (k + 1 - len(x))
            x[k] += (1 + p * k) * p ** (e + prec - 2 + shift)  # prec here is the check's + 2
            return {**found[key], (i, prec): (n, approx[:row] + [(x, e)] + approx[row + 1:])}
        return limits

    def three_inputs(cfg):  # the check's loop with its seeded random third input
        r = random.Random(cfg.seed + 3)
        rand = tuple(PowerSeries(cfg.p, [r.randint(-5, 5) for _ in range(4)]) for _ in "tu")
        for lt, lu in ((one(cfg.p), zero(cfg.p)), (zero(cfg.p), one(cfg.p)), rand):
            rep = factorization_check(cfg.p, cfg.ap, [(lt, lu)], cfg.cap, cfg.prec)
            if not rep.passed:
                return rep.witness
        return None

    basis_failed = 0
    for _ in range(120):
        (p, ap), cap, prec = rng.choice(PAIRS_8), rng.choice((4, 8, 12)), rng.randint(1, 5)
        monkeypatch.setattr(checks, "_limits",
                            perturbed(rng.randrange(4), rng.randrange(cap), rng.randint(-2, 1)))
        basis = all(factorization_check(p, ap, [(lt, lu)], cap, prec).passed
                    for lt, lu in ((one(p), zero(p)), (zero(p), one(p))))
        lt, lu = (PowerSeries(p, [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
                  for _ in "tu")
        assert factorization_check(p, ap, [(lt, lu)], cap, prec).passed or not basis, (p, ap, cap)
        cfg = CheckConfig(p, ap, cap=cap, prec=prec, seed=rng.randrange(100))
        assert alone(checks.check_factorization_synthetic, cfg) == three_inputs(cfg), (p, ap, cap)
        basis_failed += not basis
    assert 10 < basis_failed < 110  # the faults reach the check, and not always


def test_infinity_row_recursion_catches_index_0_row_fault(monkeypatch):
    # seeded fault: one coefficient of an index-0 limit row (theta_0 or
    # upsilon_0) moved by a unit times p^(e + prec - 1), one digit inside
    # prec; as p | a_p the top-row recursion cannot see it, the bottom row can
    real_limits = checks._limits

    def perturbed(col, k):
        def limits(p, ap, requests, cap, *args):
            found = real_limits(p, ap, requests, cap, *args)
            prec = next(pr for i, pr in requests if i == 0)  # the index-0 request
            n, approx = found[0, prec]
            x, e = approx[col]
            x = list(x) + [0] * (k + 1 - len(x))
            x[k] += (1 + p * k) * p ** (e + prec - 1)
            found[0, prec] = n, approx[:col] + [(x, e)] + approx[col + 1:]
            return found
        return limits

    for p, ap in PAIRS_8:
        cfg = CheckConfig(p, ap, cap=12, prec=4)
        monkeypatch.setattr(checks, "_limits", real_limits)
        assert alone(checks.check_infinity_row_recursion, cfg) is None
        for col in (0, 1):
            for k in (0, 5, 11):
                monkeypatch.setattr(checks, "_limits", perturbed(col, k))
                assert alone(checks.check_infinity_row_recursion, cfg) == (
                    f"bottom row should repeat the index-0 top row (column {col})"), (p, ap, col, k)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and the text must match too
        return type(exc).__name__, str(exc)


def test_zalpha_checks_match_series_references(monkeypatch, fresh_rows):
    # factorization_check and kappa_identity_check on integer rows against
    # their series forms: the same report, or the same exception and text.
    # Each case runs once, untouched or under one fault:
    # - "row": one coefficient of one finite-level row raised by p^v.  The
    #   limit kernel's levels are left alone, so factorization_check sees a
    #   mismatch when v is small; the kappa identity is a relation of the
    #   row shifts and holds for any rows, so it passes on both sides.  The
    #   shared row cache is emptied at every change of fault, so the faulted
    #   rows reach kappa_identity_check itself at every level >= the fault's.
    # - "beta": beta read at m + 1 (kappa only; factorization reads no beta).
    # Left out for time: n = 3 at p = 5, 7 (rows of degree 125 and 343 take
    # the scalar-by-scalar reference 0.6 s).
    rng = random.Random(11)
    fact = [(p, ap, cap, prec) for p, ap in PAIRS_8 for cap in (1, 8, 24) for prec in (1, 5)]
    kappa = [(p, ap, n, i) for p, ap in PAIRS_8 for n in (1, 2, 3) for i in range(-4, 8)
             if n < 3 or p < 5]
    real_append, real_beta = intcore.append_factor, ladders.beta
    fired = [0]  # faulted ladder steps

    def row_fault(level, v):
        def append_factor(p, ap, rows, k, cap=None, mod=None):
            out = real_append(p, ap, rows, k, cap, mod)
            if k == level:
                fired[0] += 1
                x = out[0][0]
                out[0][0] = [(x[0] if x else 0) + p ** v] + list(x[1:])
            return out
        return append_factor

    def setting(fault):
        coleman._rows_mod_omega.cache_clear()  # no row outlives its fault
        monkeypatch.setattr(intcore, "append_factor", real_append)
        monkeypatch.setattr(ladders, "beta", real_beta)
        if fault == "row":
            level = rng.randint(1, 3)
            monkeypatch.setattr(intcore, "append_factor", row_fault(level, rng.randrange(8)))
            return level
        if fault == "beta":
            monkeypatch.setattr(ladders, "beta", lambda p, ap, m: real_beta(p, ap, m + 1))
        return None

    failed = {None: 0, "row": 0, "beta": 0}
    for k, (p, ap, cap, prec) in enumerate(fact):
        fault = (None, "row")[k % 2]
        setting(fault)
        lt = PowerSeries(p, [rng.randint(-5, 5) for _ in range(4)])
        lu = PowerSeries(p, [rng.randint(-5, 5) for _ in range(3)], 5 if p == 3 else None)
        got = _outcome(factorization_check, p, ap, [(lt, lu)], cap, prec)
        assert got == _outcome(factorization_check_reference, p, ap, lt, lu, cap, prec), (
            fault, p, ap, cap, prec)
        failed[fault] += not got.passed
    # row-faulted cases where the fault ran inside kappa_identity_check, and where it
    # lies at a level the case builds (level <= n)
    reached, faulted = 0, 0
    for k, case in enumerate(kappa):
        fault = (None, "row", "beta")[k % 3]
        level, before = setting(fault), fired[0]
        got = _outcome(kappa_identity_check, *case)
        reached += fired[0] > before
        faulted += level is not None and level <= case[2]
        assert got == _outcome(kappa_identity_check_reference, *case), (fault, case)
        failed[fault] += isinstance(got, tuple)
    assert failed[None] == 0 and failed["row"] > 10 and failed["beta"] > 10
    assert reached == faulted > 10
