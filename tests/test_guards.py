"""The argument guards of the public API: each bad call is one ValueError with one line of text."""

import re
from fractions import Fraction

import pytest

from padic_ladders.checks import CheckConfig
from padic_ladders.coleman import (
    LambdaPair,
    decompose,
    limit_lemma_check,
    projection_compatibility_check,
)
from padic_ladders.intcore import omega_coeffs, phi_coeffs
from padic_ladders.ladders import (half_logs, kappa_identity_check, ladder, ladder_infinity,
                                   pollack_product)
from padic_ladders.padics import (
    PadicScalar,
    QuadExtScalar,
    padic_arith,
    padic_from_rational,
    quadext_arith,
    rational_valuation,
)
from padic_ladders.series import (
    LambdaElement,
    PowerSeries,
    divmod_monic,
    eval_at_root,
    gauss_norm_log,
    log_series,
    omega_congruent,
    series_arith,
)
from padic_ladders.trace import a_matrix, mat, mat_inv_unimodular, mat_pow, y_beta_identity_check

ONE = PowerSeries.one(3)
PAIR_1 = LambdaPair.from_ints(3, 1, [1], [2])
SCALAR = PadicScalar.one(3)
ROOT = QuadExtScalar(3, 3, 1, 0)

GUARDS = {
    "ladder-level-0": (lambda: ladder(3, 3, 0, 1), "level n must be >= 1"),
    "kappa-level-0": (lambda: kappa_identity_check(3, 3, 0, 1), "level n must be >= 1"),
    "decompose-level-0": (lambda: decompose(3, 3, 0, PAIR_1.first, PAIR_1.second),
                          "level n must be >= 1"),
    "ladder-infinity-cap-0": (lambda: ladder_infinity(3, 3, 1, 0, 4),
                              "cap and prec must be >= 1"),
    "ladder-infinity-prec-0": (lambda: ladder_infinity(3, 3, 1, 8, 0),
                               "cap and prec must be >= 1"),
    "pollack-parity": (lambda: pollack_product(3, "both", 8, 4),
                       "parity must be 'even' or 'odd'"),
    "pollack-cap-0": (lambda: pollack_product(3, "even", 0, 5), "cap and prec must be >= 1"),
    "pollack-prec-0": (lambda: pollack_product(3, "even", 5, 0), "cap and prec must be >= 1"),
    "pollack-prec-neg": (lambda: pollack_product(3, "even", 5, -2), "cap and prec must be >= 1"),
    "half-logs-cap-0": (lambda: half_logs(3, 3, 0, 4), "cap and prec must be >= 1"),
    "half-logs-prec-0": (lambda: half_logs(3, 3, 5, 0), "cap and prec must be >= 1"),
    "half-logs-prec-neg": (lambda: half_logs(3, 3, 5, -1), "cap and prec must be >= 1"),
    "limit-lemma-m-0": (lambda: limit_lemma_check(3, 3, 0, 1), "need m >= 1 and nu >= 0"),
    "limit-lemma-nu-neg": (lambda: limit_lemma_check(3, 3, 1, -1), "need m >= 1 and nu >= 0"),
    "check-config-zero": (lambda: CheckConfig(3, 3, n_max=0, trials=0),
                          "n_max, cap, prec and trials must be >= 1"),
    "projection-level": (lambda: projection_compatibility_check(3, 3, 1, 1, PAIR_1),
                         "input pair must live at level n+1"),
    "series-cap-neg": (lambda: PowerSeries(3, [1], -1), "cap must be >= 0"),
    "phi-j-0": (lambda: phi_coeffs(3, 0), "j must be >= 1"),
    "omega-n-neg": (lambda: omega_coeffs(3, -1), "n must be >= 0"),
    "omega-congruent-n-neg": (lambda: omega_congruent(3, 3, -1, 0), "n must be >= 0"),
    "divmod-zero": (lambda: divmod_monic(ONE, PowerSeries.zero(3)), "modulus must be nonzero"),
    "divmod-inexact": (lambda: divmod_monic(ONE, PowerSeries(3, [PadicScalar(3, 1, 4)])),
                       "modulus must be exact"),
    "divmod-not-monic": (lambda: divmod_monic(ONE, PowerSeries(3, [1, 2])),
                         "modulus must be monic"),
    "eval-at-root-cap": (lambda: eval_at_root(PowerSeries(3, [1], 2), 2),
                         "cap 2 is below deg Phi_2 = 6"),
    "gauss-norm-s-0": (lambda: gauss_norm_log(ONE, 0), "s must be positive"),
    "log-series-cap-0": (lambda: log_series(3, 0), "cap must be >= 1"),
    "lambda-level-neg": (lambda: LambdaElement(3, -1, ONE), "level must be >= 0"),
    "mat-pow-neg": (lambda: mat_pow(mat(1, 0, 0, 1), -1), "nonnegative exponents only"),
    "mat-inv-det": (lambda: mat_inv_unimodular(mat(2, 0, 0, 1)), "expected determinant 1, got 2"),
    "a-matrix-l-0": (lambda: a_matrix(3, 3, 0), "l must be >= 1"),
    "y-beta-k-0": (lambda: y_beta_identity_check(3, 3, 1, 0), "k must be >= 1"),
    "valuation-zero": (lambda: rational_valuation(Fraction(0), 3),
                       "valuation of zero is undefined here"),
    "from-rational-den-pow": (lambda: padic_from_rational(3, 1, -1), "den_pow must be >= 0"),
    "padic-arith-op": (lambda: padic_arith("pow", SCALAR, SCALAR), "unknown op 'pow'"),
    "quadext-arith-op": (lambda: quadext_arith("pow", ROOT, ROOT), "unknown op 'pow'"),
    "series-arith-op": (lambda: series_arith("pow", ONE, ONE, 4), "unknown op 'pow'"),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_public_guard_raises_one_line_value_error(name):
    call, text = GUARDS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call()
