"""Shared fixtures."""

import pytest

from padic_ladders import coleman, trace


@pytest.fixture
def fresh_rows():
    """Empty ``coleman._rows_mod_omega`` and ``coleman._operator`` before and after the test.

    The row cache is the one source of exact finite-level rows, and the operator cache
    holds the small levels' rows packed.  A test that faults or counts what is below them
    (the ladder steps, the row shifts, the row builders, the packed columns) needs both
    empty: a cached clean row would hide the fault, and a faulted row left behind would
    be served to a later test."""
    caches = coleman._rows_mod_omega, coleman._operator  # the test may patch the names
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def fresh_trace():
    """Empty ``trace.period_constants`` and ``trace._beta`` before and after the test.

    The first caches one period of delta pairs per (p, a_p) and the second the beta_m
    built from them, so a test that faults either (or the delta pairs under beta) needs
    both empty, for the same two reasons as ``fresh_rows``."""
    caches = trace.period_constants, trace._beta  # the test may patch the names
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
