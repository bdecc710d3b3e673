"""Faults below the suite: which checks a fault in the code they read reaches.

``tests/test_witnesses.py`` injects each fault at a check's own input, which shows that
a failure branch can report.  Here a fault goes into the code under the checks (the
exact row cache, the packed operator cache, the Coleman kernel, the limits' stopping
level, the row shift, and in ``trace`` the cached delta pairs, the cached beta_m and
a_p(i)) and each row pins which checks then fail, so a PASS says which faults it rules
out.  A row patches the binding its caller reads (``coleman.ladder_rows`` under the row
cache, ``coleman._operator`` for the packed columns, ``checks._peel`` for the round trip,
``ladders._stop_level``, ``intcore.shift_matrix`` under ``shift_rows``,
``trace.period_constants`` under ``delta_coeffs``, ``trace._beta`` under ``beta``, and
both ``trace.ap_parity_value`` and the ``intcore`` binding of it), and the row caches and
the trace caches are empty around every row (``fresh_rows``, ``fresh_trace``): a cached
clean entry would hide a fault, and a faulted entry left behind would reach a later test.
"""

import dataclasses
from collections import Counter
from functools import lru_cache

import pytest

from padic_ladders import checks, coleman, intcore, trace
from padic_ladders.checks import CheckConfig, default_configs, run_suite
from test_ladders import _one_level_short

COLEMAN_CHECKS = ("decompose_round_trip", "kernel_membership", "projection_compatibility")


def row_plus_one(monkeypatch):
    """theta's X^1 coefficient + 1 in the top index-1 row at level 2, below the cache."""
    real = coleman.ladder_rows

    def ladder_rows(p, ap, n, i, *args, **kwargs):
        rows = real(p, ap, n, i, *args, **kwargs)
        if n == 2:
            rows[0][0] = intcore._lincomb(1, rows[0][0], 1, [0, 1], None)
        return rows

    monkeypatch.setattr(coleman, "ladder_rows", ladder_rows)


def packed_column_plus_one(monkeypatch):
    """+1 in the X^0 slot of column 0 at level 2 (theta_i's constant term in the top image),
    in the operator cache of the small levels, above the row cache: _image packs it."""
    real = coleman._operator.__wrapped__

    @lru_cache(maxsize=256)
    def _operator(p, ap, n, i):
        op = real(p, ap, n, i)
        if n == 2:
            op[3][0][0] += 1
        return op

    monkeypatch.setattr(coleman, "_operator", _operator)


def peel_off_by_one(monkeypatch):
    """The round trip's peel off the kernel coset by (1, 0) at n = 2."""
    real = checks._peel

    def _peel(p, ap, n, u, v):
        x, y = real(p, ap, n, u, v)
        return (intcore._lincomb(1, x, -1, [1], None), y) if n == 2 else (x, y)

    monkeypatch.setattr(checks, "_peel", _peel)


def shift_reads_the_next_parity(monkeypatch):
    """Every row shift reads a_p(idx + 1) for a_p(idx), in every reader of shift_rows."""
    real = intcore.shift_matrix
    monkeypatch.setattr(intcore, "shift_matrix",
                        lambda p, ap, i, parity_flip=False: real(p, ap, i, True))


def delta_pair_plus_one(monkeypatch):
    """y_1 + 1 in the period of delta pairs that period_constants caches (y_i for every
    i = 1 mod two_tilde, with the period's sign), so beta_1 moves with it."""
    real = trace.period_constants.__wrapped__

    @lru_cache(maxsize=256)
    def period_constants(p, ap):
        consts = real(p, ap)
        deltas = list(consts.deltas)
        deltas[1] = (deltas[1][0] + 1, deltas[1][1])
        return dataclasses.replace(consts, deltas=tuple(deltas))

    monkeypatch.setattr(trace, "period_constants", period_constants)


def beta_one_residue_late(monkeypatch):
    """beta_m reads the cached beta of residue m + 1 mod two_tilde."""
    real = trace._beta
    monkeypatch.setattr(trace, "_beta", lambda p, ap, m0: real(
        p, ap, (m0 + 1) % trace.period_constants(p, ap).two_tilde))


def parity_one_index_late(monkeypatch):
    """a_p(i + 1) for a_p(i) in both bindings: trace's (A_l, the parity recursion) and
    intcore's (every row shift)."""
    real = trace.ap_parity_value
    for module in (trace, intcore):
        monkeypatch.setattr(module, "ap_parity_value", lambda p, ap, i: real(p, ap, i + 1))


# fault -> {check: how many of the five default configurations fail it}
MATRIX = {
    None: {},
    row_plus_one: dict.fromkeys(COLEMAN_CHECKS, 5),
    # kernel_membership reads column 0 only through a_0, and every generator
    # X (upsilon, -theta) has a_0 = 0; its (1, 0) probe is at level 1
    packed_column_plus_one: {"decompose_round_trip": 5, "projection_compatibility": 5},
    peel_off_by_one: {"decompose_round_trip": 5},
}

# the same, over every check of the five default configurations.  The row fault also
# fails finite_determinant, which compares the cached rows' determinant with omega_n;
# coefficient_factorization and kappa_identity read rows shifted from the faulted ones,
# and both identities are linear in the index-1 rows, so they still hold.  n* one level
# short fails the parity products only: at odd p the ladder limits keep one level of
# slack below the proved bound, and the suite's p = 2 limits happen to stay right one short
SUITE_MATRIX = {
    row_plus_one: dict.fromkeys(COLEMAN_CHECKS + ("finite_determinant",), 5),
    _one_level_short: {"pollack_comparison": 1},
    shift_reads_the_next_parity: dict.fromkeys(
        ("coefficient_factorization", "factorization_synthetic", "infinity_determinant",
         "infinity_row_recursion", "intrinsicness", "kappa_identity",
         "projection_compatibility"), 4),
    # a_p = 0 reads a_p(i) = 0 at every i, so the one a_p = 0 configuration passes.  The
    # two by-construction checks, beta_periodicity and integrality_antiperiodicity, fail in
    # none of these three rows: beta(m) and delta_coeffs(i) reduce the index themselves
    parity_one_index_late: dict.fromkeys(
        ("a_matrix_identity", "coefficient_factorization", "factorization_synthetic",
         "infinity_determinant", "infinity_row_recursion", "intrinsicness", "kappa_identity",
         "parity_recursion", "projection_compatibility"), 4),
    delta_pair_plus_one: {**dict.fromkeys(
        ("coefficient_factorization", "delta_table", "kappa_identity", "parity_recursion",
         "y_beta_identity"), 5), "intrinsicness": 1, "pollack_comparison": 1},
    beta_one_residue_late: {**dict.fromkeys(("intrinsicness", "kappa_identity",
                                             "y_beta_identity"), 5), "pollack_comparison": 1},
}


@pytest.mark.parametrize("fault", MATRIX, ids=lambda f: "none" if f is None else f.__name__)
def test_coleman_kernel_faults_reach_the_checks(monkeypatch, fresh_rows, fault):
    if fault is not None:
        fault(monkeypatch)
    configs = [CheckConfig(c.p, c.ap, include=COLEMAN_CHECKS) for c in default_configs()]
    assert Counter(r.name for r in run_suite(configs) if not r.passed) == MATRIX[fault]


@pytest.mark.parametrize("fault", SUITE_MATRIX, ids=lambda f: f.__name__.lstrip("_"))
def test_limit_and_shift_faults_reach_the_checks(monkeypatch, fresh_rows, fresh_trace, fault):
    fault(monkeypatch)
    failing = Counter(r.name for r in run_suite(default_configs()) if not r.passed)
    assert failing == SUITE_MATRIX[fault]
