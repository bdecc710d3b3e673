"""SHA-256 digests of ``run_suite`` JSON, pinned byte for byte.

The five limit checks (the determinant, the row recursion, the factorization
check, intrinsicness and the Pollack comparison) read scaled limits of the
ladder rows.  These digests hold every report of the suite, passing or
failing, over all eight admissible pairs at small (cap, prec), under step
caps that leave some limits unconverged (each check's own ``NotConverged``
text), for each limit check alone and for the five together, and under the
a_p-parity fault, so a change to how the limits are computed or shared must
keep every report.  Each case also pins how many of its reports fail.  A
report's config holds (p, a_p, check) only, so all-passing cases over the same
pairs share a digest.
"""

import hashlib
import json

import pytest

from padic_ladders.checks import CheckConfig, default_configs, run_suite

PAIRS_8 = [(2, 0), (2, 2), (2, -2), (3, 0), (3, 3), (3, -3), (5, 0), (7, 0)]
LIMIT_CHECKS = ("factorization_synthetic", "infinity_determinant", "infinity_row_recursion",
                "intrinsicness", "pollack_comparison")


def _pairs(cap, prec):
    return [CheckConfig(p, ap, n_max=2, cap=cap, prec=prec, trials=2) for p, ap in PAIRS_8]


def _only(*names):
    return [CheckConfig(c.p, c.ap, include=names) for c in default_configs()]


CASES = {
    "pairs_c1_p1": (None, lambda: _pairs(1, 1)),
    "pairs_c5_p3": (None, lambda: _pairs(5, 3)),
    "pairs_c12_p4": (None, lambda: _pairs(12, 4)),
    "pairs_c12_p4_steps3": ("3", lambda: _pairs(12, 4)),
    "default_steps1": ("1", default_configs),
    "default_steps3": ("3", default_configs),
    **{f"only_{name}": (None, lambda name=name: _only(name)) for name in LIMIT_CHECKS},
    "only_limit_checks": (None, lambda: _only(*LIMIT_CHECKS)),
    "parity_fault_determinant": (None, lambda: [
        CheckConfig(c.p, c.ap, corrupt_ap_parity=True, include=("infinity_determinant",))
        for c in default_configs()]),
}

PINNED = {
    "default_steps1": ("313eb12ae18b778da4b2c134d048433da0adadd98a68e5416e7c391ed4dac9f6", 21),
    "default_steps3": ("04ea6805225b0a7cd9a81feb908fceda70e4a8c4348edf2625248e474eb89038", 21),
    "only_factorization_synthetic": ("be3ebafc3fffcf331acdff2e6d0acdaa0c51986715f14755453a97c44a8de128", 0),
    "only_infinity_determinant": ("0813bf16206d3bc669a8fe57f5d7a487c58303ea65bd63818fad9a05c8d2f6bb", 0),
    "only_infinity_row_recursion": ("abf0ea91278a332259e8a33a387f80a59cab3de7710c3cf139e4dd4215725dde", 0),
    "only_intrinsicness": ("23a9a1c75df5e762da7a0566aef48507bf083218b03653308d49dcdb01a80279", 0),
    "only_limit_checks": ("bd50adb4d5bbbf1fd386d405f76458428908c42c190f54a5241e27678bef192a", 0),
    "only_pollack_comparison": ("b65d18164a27a02f31b58321f15844f3174a25bb52d396b4e8dcbf6f938bc230", 0),
    "pairs_c12_p4": ("f53ac575c22e3777e8b8dbc57e1f21fcb164217ebf0a8b970c033bd7ca146dce", 0),
    "pairs_c12_p4_steps3": ("7db9ccfbc94c9192c0ffc3f63eb4cc4489d326a071d2e2c60bb3cc34dea21d93", 35),
    "pairs_c1_p1": ("f53ac575c22e3777e8b8dbc57e1f21fcb164217ebf0a8b970c033bd7ca146dce", 0),
    "pairs_c5_p3": ("f53ac575c22e3777e8b8dbc57e1f21fcb164217ebf0a8b970c033bd7ca146dce", 0),
    "parity_fault_determinant": ("d5206b3882cb2669e12a1c9c6f136e94cb37c1a806aade96e2e36e546c9f3a84", 4),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_suite_digest(name, monkeypatch):
    steps, configs = CASES[name]
    if steps is not None:
        monkeypatch.setenv("SPRUNG_MAX_LIMIT_STEPS", steps)
    reports = run_suite(configs())
    data = json.dumps([r.to_json() for r in reports]).encode()
    got = hashlib.sha256(data).hexdigest(), sum(not r.passed for r in reports)
    assert got == PINNED[name]
