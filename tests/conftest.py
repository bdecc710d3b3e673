"""Shared fixtures."""

import pytest

from padic_ladders import coleman


@pytest.fixture
def fresh_rows():
    """An empty ``coleman._rows_mod_omega`` before and after the test.

    The cache is the one source of exact finite-level rows.  A test that faults or
    counts what is below it (the ladder steps, the row shifts, the row builders) needs
    it empty: a cached clean row would hide the fault, and a faulted row left behind
    would be served to a later test."""
    cache = coleman._rows_mod_omega  # the test may patch the name
    cache.cache_clear()
    yield
    cache.cache_clear()
