"""Faults below the suite: which checks a fault in the code they read reaches.

``tests/test_witnesses.py`` injects each fault at a check's own input, which shows that
a failure branch can report.  Here a fault goes into the code under the checks (the
exact row cache, the Coleman kernel) and each row pins which checks then fail, so a
PASS says which faults it rules out.  A row patches the binding its caller reads
(``coleman.ladder_rows`` under the row cache, ``checks._peel`` for the round trip), and
the row cache is empty around every row (``fresh_rows``): a cached clean row would hide
a row fault, and a faulted row left behind would reach a later test.
"""

import pytest

from padic_ladders import checks, coleman, intcore
from padic_ladders.checks import CheckConfig, default_configs, run_suite

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


def peel_off_by_one(monkeypatch):
    """The round trip's peel off the kernel coset by (1, 0) at n = 2."""
    real = checks._peel

    def _peel(p, ap, n, u, v):
        x, y = real(p, ap, n, u, v)
        return (intcore._lincomb(1, x, -1, [1], None), y) if n == 2 else (x, y)

    monkeypatch.setattr(checks, "_peel", _peel)


# fault -> {check: how many of the five default configurations fail it}
MATRIX = {
    None: {},
    row_plus_one: dict.fromkeys(COLEMAN_CHECKS, 5),
    peel_off_by_one: {"decompose_round_trip": 5},
}


@pytest.mark.parametrize("fault", MATRIX, ids=lambda f: "none" if f is None else f.__name__)
def test_coleman_kernel_faults_reach_the_checks(monkeypatch, fresh_rows, fault):
    if fault is not None:
        fault(monkeypatch)
    configs = [CheckConfig(c.p, c.ap, include=COLEMAN_CHECKS) for c in default_configs()]
    failing = {}
    for r in run_suite(configs):
        if not r.passed:
            failing[r.name] = failing.get(r.name, 0) + 1
    assert failing == MATRIX[fault]
