"""Byte-for-byte CLI outputs against files recorded under tests/golden/.

Each case runs ``cli.main`` in-process.  Its stdout is compared with
``<name>.stdout`` and, for a case with ``--out``, the written file with
``<name>.file``.  ``{golden}`` in an argument names the golden directory
(decompose reads its input from there) and ``{out}`` a temporary file.
The parity products, which no CLI command emits, are pinned through the API
as ``json.dumps(pollack_product(...).to_json())`` in ``<name>.json``, and
``series_ops.json`` pins ``PowerSeries.mul`` and ``divmod_monic`` on seeded
random inexact operands, and ``coleman_ops.json`` pins the level-n Coleman
algebra on seeded exact, finite-precision and p-power-denominator inputs.
``fingerprints.json`` holds one SHA-256 per acceptance-scale output (the
cap-200 limits and half-logs, ``verify --all``, the suite under the parity
fault and ``n_used``, and two outcome sweeps: ``ladder_infinity`` and
``half_logs`` over small caps and precisions, one digest per pair and parity
fault setting of the JSON bytes or exception text of each call), so that a
failure names the output that moved.

To record the files again after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from padic_ladders import cli
from padic_ladders.checks import CheckConfig, default_configs, run_suite
from padic_ladders.coleman import LambdaPair, decompose, kernel_basis, kernel_member, phi_apply
from padic_ladders.errors import PadicLaddersError
from padic_ladders.ladders import half_logs, ladder_infinity, pollack_product
from padic_ladders.padics import PadicScalar
from padic_ladders.series import LambdaElement, PowerSeries, divmod_monic, omega, phi

GOLDEN = Path(__file__).parent / "golden"


def _ladder(p, ap, level, index, *extra):
    return ["ladder", "--p", str(p), "--ap", str(ap), "--level", str(level),
            "--index", str(index), *extra]


CASES = {
    **{f"ladder_3_3_l2_i{i}": _ladder(3, 3, 2, i) for i in (-2, 0, 1, 3)},
    "ladder_2_m2_l3_i1": _ladder(2, -2, 3, 1),
    **{f"ladder_3_3_l1_i{i}_cap2": _ladder(3, 3, 1, i, "--cap", "2") for i in (0, 1)},
    **{f"ladder_{p}_{ap}_inf_i1": _ladder(p, ap, "infinity", 1, "--cap", "30", "--prec", "8")
       for p, ap in ((2, 2), (5, 0))},
    "halflog_3_0": ["halflog", "--p", "3", "--ap", "0", "--cap", "30", "--prec", "6"],
    "table_3_m3": ["table", "--p", "3", "--ap", "-3", "--imin", "-2", "--imax", "7"],
    "decompose_3_3_l3": ["decompose", "--p", "3", "--ap", "3", "--level", "3",
                         "--in", "{golden}/decompose_3_3_l3.in.json"],
    "decompose_3_3_l2_inexact": ["decompose", "--p", "3", "--ap", "3", "--level", "2",
                                 "--in", "{golden}/decompose_3_3_l2_inexact.in.json"],
    "verify_3_3": ["verify", "--p", "3", "--ap", "3", "--out", "{out}"],
}


PARITY_CASES = {
    f"pollack_{p}_{parity}_c{cap}_p{prec}": (p, parity, cap, prec)
    for p in (3, 5)
    for parity in ("even", "odd")
    for cap, prec in ((20, 5), (60, 10), (200, 22))
}


def parity_json(name):
    return json.dumps(pollack_product(*PARITY_CASES[name]).to_json()).encode()


def _random_scalar(rng, p):
    """Exact and inexact zeros, p-power and (inexact only) unit denominators."""
    kind = rng.randrange(5)
    absprec = rng.randint(-2, 6)
    if kind == 0:
        return PadicScalar(p, 0)
    if kind == 1:
        return PadicScalar(p, 0, absprec)
    value = Fraction(rng.randint(-300, 300), p ** rng.randint(0, 2))
    if kind == 2:
        return PadicScalar(p, value)
    if kind == 3:
        return PadicScalar(p, value, absprec)
    return PadicScalar(p, value / rng.choice((7, 11, 13)), absprec)


def _random_series(rng, p):
    coeffs = [_random_scalar(rng, p) for _ in range(rng.randint(0, 12))]
    return PowerSeries(p, coeffs, rng.choice((None, None, rng.randint(0, 14))))


def series_ops_json():
    """mul (with and without cap) and divmod_monic on 60 seeded operand pairs."""
    rng = random.Random(3419)
    cases = []
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        f, g = _random_series(rng, p), _random_series(rng, p)
        top = [Fraction(rng.randint(-9, 9), p ** rng.randint(0, 1))
               for _ in range(rng.randint(0, 5))]
        monic = rng.choice((phi(p, 1), phi(p, 2), omega(p, 1), PowerSeries(p, top + [1])))
        cap = rng.randint(0, 16)
        cases.append({
            "mul": f.mul(g).to_json(),
            "mul_cap": f.mul(g, cap).to_json(),
            "divmod": [s.to_json() for s in divmod_monic(f, monic)],
        })
    return json.dumps(cases).encode()


COLEMAN_CONFIGS = ((3, 3, 3), (2, 2, 4), (3, 0, 3), (5, 0, 2))


def _random_element(rng, p, n, kind):
    """A level-n element: exact integers, finite absprec, or p-power denominators."""
    coeffs = []
    for _ in range(p ** n):
        num = rng.randint(-9, 9)
        if kind == "int":
            coeffs.append(num)
        elif kind == "absprec":
            coeffs.append(PadicScalar(p, Fraction(num, p ** rng.randint(0, 1)), rng.randint(3, 8)))
        else:
            coeffs.append(Fraction(num, p ** rng.randint(0, 2)))
    return LambdaElement(p, n, PowerSeries(p, coeffs))


def _outcome(fn, *args):
    """to_json of the result (a bool as is), or the error's type and message."""
    try:
        out = fn(*args)
    except PadicLaddersError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return out if isinstance(out, bool) else out.to_json()


def coleman_ops_json():
    """phi_apply, decompose, kernel_basis, kernel_member and LambdaElement.__mul__."""
    rng = random.Random(903)
    cases = []
    for p, ap, n in COLEMAN_CONFIGS:
        kernel = {i: kernel_basis(p, ap, n, i).generators for i in (1, 2)}
        case = {"config": [p, ap, n],
                "kernel_basis": {i: [g.to_json() for g in gens] for i, gens in kernel.items()}}
        for first, second in (("int", "int"), ("absprec", "absprec"), ("den", "den"),
                              ("int", "absprec")):
            v = LambdaPair(_random_element(rng, p, n, first), _random_element(rng, p, n, second))
            image = phi_apply(p, ap, n, 1, v)
            off = image.first + LambdaElement.from_ints(p, n, [1])
            case[f"{first}_{second}"] = {
                "phi_apply": {i: phi_apply(p, ap, n, i, v).to_json() for i in (0, 1, 2)},
                "decompose": _outcome(decompose, p, ap, n, image.first, image.second),
                "decompose_off_image": _outcome(decompose, p, ap, n, off, image.second),
                "kernel_member": [kernel_member(p, ap, n, w) for w in (v, kernel[1][0],
                                  LambdaPair(kernel[2][1].first + kernel[1][0].first,
                                             kernel[2][1].second + kernel[1][0].second))],
                "lambda_mul": [(v.first * v.second).to_json(), (v.first * -7).to_json(),
                               (v.second * PadicScalar(p, Fraction(2, p), 4)).to_json()],
            }
        cases.append(case)
    return json.dumps(cases).encode()


def run_case(name, out_path):
    """(exit code, stdout, bytes written to --out or None) of one case."""
    argv = [a.format(golden=GOLDEN, out=out_path) for a in CASES[name]]
    buf = StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    written = Path(out_path).read_bytes() if "{out}" in CASES[name] else None
    return code, buf.getvalue().encode(), written


LIMIT_PAIRS = ((2, 2), (2, -2), (3, 3), (3, -3), (3, 0), (5, 0))


def _cli_stdout(argv):
    buf = StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


SWEEP_PAIRS = ((2, 0), (2, 2), (2, -2), (3, 0), (3, 3), (3, -3), (5, 0), (7, 0))


def _sweep(calls):
    """One line per call: its JSON, or its exception's type and text."""
    lines = []
    for fn, args in calls:
        try:
            lines.append(json.dumps(fn(*args).to_json()))
        except PadicLaddersError as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
    return "\n".join(lines).encode()


def sweep_outputs():
    """The ladder_infinity and half_logs outcome sweeps, per pair (and fault)."""
    out = {}
    for p, ap in SWEEP_PAIRS:
        for corrupt in (False, True):
            out[f"sweep_ladder_infinity_{p}_{ap}_fault{int(corrupt)}"] = _sweep(
                (ladder_infinity, (p, ap, i, cap, prec, corrupt))
                for cap in (1, 5, 20) for prec in (1, 3, 5) for i in range(-3, 5))
        out[f"sweep_half_logs_{p}_{ap}"] = _sweep(
            (half_logs, (p, ap, cap, prec))
            for cap in (1, 2, 3, 4, 5, 8, 9, 20, 60) for prec in (1, 2, 3, 5, 8))
    return out


def fingerprint_outputs(tmp_dir):
    """name -> bytes of each output that fingerprints.json pins."""
    out = sweep_outputs()
    for p, ap in LIMIT_PAIRS:
        for i in (0, 1):
            code, out[f"ladder_{p}_{ap}_inf_i{i}_c200_p26"] = _cli_stdout(
                _ladder(p, ap, "infinity", i, "--cap", "200", "--prec", "26"))
            assert code == cli.EXIT_OK
            out[f"n_used_{p}_{ap}_i{i}_c200_p26"] = str(
                ladder_infinity(p, ap, i, 200, 26).n_used).encode()
        code, out[f"halflog_{p}_{ap}_c200_p20"] = _cli_stdout(
            ["halflog", "--p", str(p), "--ap", str(ap), "--cap", "200", "--prec", "20"])
        assert code == cli.EXIT_OK
    report = Path(tmp_dir) / "verify_all.json"
    code, out["verify_all_stdout"] = _cli_stdout(["verify", "--all", "--out", str(report)])
    assert code == cli.EXIT_OK
    out["verify_all_report"] = report.read_bytes()
    corrupt = [CheckConfig(c.p, c.ap, corrupt_ap_parity=True) for c in default_configs()]
    out["run_suite_corrupt_parity"] = json.dumps(
        [r.to_json() for r in run_suite(corrupt)]).encode()
    return out


def fingerprints(tmp_dir):
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in sorted(fingerprint_outputs(tmp_dir).items())}


def fingerprints_json(tmp_dir):
    return (json.dumps(fingerprints(tmp_dir), indent=1) + "\n").encode()


def test_golden_fingerprints(tmp_path):
    want = json.loads((GOLDEN / "fingerprints.json").read_bytes())
    got = fingerprints(tmp_path)
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    code, stdout, written = run_case(name, tmp_path / "out")
    assert code == cli.EXIT_OK
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    if written is not None:
        assert written == (GOLDEN / f"{name}.file").read_bytes()


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_golden_parity_product(name):
    assert parity_json(name) == (GOLDEN / f"{name}.json").read_bytes()


def test_golden_series_ops():
    assert series_ops_json() == (GOLDEN / "series_ops.json").read_bytes()


def test_golden_coleman_ops():
    assert coleman_ops_json() == (GOLDEN / "coleman_ops.json").read_bytes()


if __name__ == "__main__":
    scratch = GOLDEN / "_out.tmp"
    for name in sorted(CASES):
        code, stdout, written = run_case(name, scratch)
        if code != cli.EXIT_OK:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)
        if written is not None:
            (GOLDEN / f"{name}.file").write_bytes(written)
            scratch.unlink()
    for name in sorted(PARITY_CASES):
        (GOLDEN / f"{name}.json").write_bytes(parity_json(name))
    (GOLDEN / "series_ops.json").write_bytes(series_ops_json())
    (GOLDEN / "coleman_ops.json").write_bytes(coleman_ops_json())
    (GOLDEN / "fingerprints.json").write_bytes(fingerprints_json(GOLDEN))
    (GOLDEN / "verify_all.json").unlink()
