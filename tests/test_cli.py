"""Command-line interface: formats, exit codes, file round trips."""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import padic_ladders
from padic_ladders import cli, curves
from padic_ladders.checks import CheckConfig, default_configs
from padic_ladders.coleman import LambdaPair
from padic_ladders.ladders import HalfLogPair, LadderMatrix, half_logs, ladder, ladder_infinity
from padic_ladders.padics import PadicScalar
from padic_ladders.report import CheckReport
from padic_ladders.series import PowerSeries


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table_csv_matches_printed_column(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--p", "3", "--ap", "-3", "--imin", "-2", "--imax", "7",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["i", "y", "y_prime", "rendered"]
    assert len(rows) == 11
    assert rows[1] == ["-2", "-1", "-1", "-c_n - c_{n-1}"]
    assert rows[4][3] == "-3c_n - c_{n-1}"


def test_table_csv_json_same_data(capsys):
    args = ["table", "--p", "2", "--ap", "2", "--imin", "-2", "--imax", "7"]
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(out_json)
    code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out_csv)))[1:]
    assert len(rows) == len(payload["rows"])
    for row, jrow in zip(rows, payload["rows"]):
        assert [int(row[0]), int(row[1]), int(row[2]), row[3]] == [
            jrow["i"], jrow["y"], jrow["yp"], jrow["rendered"],
        ]


def test_ladder_finite_json_re_readable(capsys):
    code, out, _ = run_cli(
        capsys, "ladder", "--p", "3", "--ap", "3", "--level", "2", "--index", "1",
        "--cap", "6",
    )
    assert code == 0
    m = LadderMatrix.from_json(json.loads(out))
    assert (m.p, m.ap, m.level, m.index) == (3, 3, 2, 1)


def test_ladder_infinity_requires_cap_prec(capsys):
    code, _, err = run_cli(
        capsys, "ladder", "--p", "3", "--ap", "3", "--level", "infinity",
        "--index", "1",
    )
    assert code == cli.EXIT_USAGE
    assert "cap" in err


def test_ladder_infinity_export(capsys):
    code, out, _ = run_cli(
        capsys, "ladder", "--p", "3", "--ap", "3", "--level", "infinity",
        "--index", "1", "--cap", "8", "--prec", "4",
    )
    assert code == 0
    m = LadderMatrix.from_json(json.loads(out))
    assert m.level == "infinity" and m.prec == 4


def test_ladder_infinity_index_above_level_shift():
    # i above the level shift of the first levels: row exponents stay >= 0
    src = str(Path(padic_ladders.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "padic_ladders.cli", "ladder", "--p", "3", "--ap", "3",
         "--level", "infinity", "--index", "10", "--cap", "5", "--prec", "3"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == cli.EXIT_OK
    assert "Traceback" not in proc.stderr
    assert LadderMatrix.from_json(json.loads(proc.stdout)).index == 10


def test_halflog_export_re_readable(capsys):
    code, out, _ = run_cli(
        capsys, "halflog", "--p", "3", "--ap", "3", "--cap", "8", "--prec", "4",
    )
    assert code == 0
    pair = HalfLogPair.from_json(json.loads(out))
    assert (pair.p, pair.ap) == (3, 3)


def test_not_supersingular_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "ladder", "--p", "5", "--ap", "5", "--level", "1", "--index", "1",
    )
    assert code == cli.EXIT_DOMAIN
    assert "NotSupersingular" in err


def test_ap_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "ap", "--a3", "1", "--a4", "-1", "--p", "3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"p": 3, "count": 7, "ap": -3, "supersingular": True}


def test_ap_subcommand_counts_the_points_once(capsys, monkeypatch):
    calls, real = [], curves.count_points

    def counting(curve, p):
        calls.append(p)
        return real(curve, p)

    monkeypatch.setattr(curves, "count_points", counting)
    monkeypatch.setattr(cli, "count_points", counting, raising=False)  # any direct binding too
    code, out, _ = run_cli(capsys, "ap", "--a3", "1", "--a4", "-1", "--p", "2")
    assert (code, calls) == (cli.EXIT_OK, [2])
    assert out == '{\n  "p": 2,\n  "count": 5,\n  "ap": -2,\n  "supersingular": true\n}\n'
    # the domain errors keep their one line: a singular model, and a count past Hasse
    code, out, err = run_cli(capsys, "ap", "--p", "2")
    assert (code, out, err) == (cli.EXIT_DOMAIN, "",
                                "error: BadReduction: p = 2 divides the discriminant 0\n")
    monkeypatch.setattr(curves, "count_points", lambda curve, p: 0)
    code, out, err = run_cli(capsys, "ap", "--a3", "1", "--a4", "-1", "--p", "2")
    assert (code, out, err) == (cli.EXIT_DOMAIN, "",
                                "error: HasseViolation: a_2 = 3 violates |a_p| <= 2 sqrt(2)\n")


def test_decompose_round_trip(tmp_path, capsys):
    pair = {
        "first": {"p": 3, "cap": None,
                  "coeffs": [{"num": "3", "den_pow": 0, "absprec": "inf"}]},
        "second": {"p": 3, "cap": None,
                   "coeffs": [{"num": "1", "den_pow": 0, "absprec": "inf"}]},
    }
    src = tmp_path / "pair.json"
    src.write_text(json.dumps(pair))
    out_path = tmp_path / "out.json"
    code, _, _ = run_cli(
        capsys, "decompose", "--p", "3", "--ap", "3", "--level", "1",
        "--in", str(src), "--out", str(out_path),
    )
    assert code == 0
    result = json.loads(out_path.read_text())
    assert "kernel_coset_note" in result
    theta = PowerSeries.from_json(dict(result["theta"], p=3))
    assert theta == PowerSeries.one(3)
    # emitted artifact is re-readable as a decompose input: the file parses
    # and reaches the domain layer (the new pair (1, 0) is outside the image,
    # which is a domain outcome, not a format error)
    code, _, err = run_cli(
        capsys, "decompose", "--p", "3", "--ap", "3", "--level", "1",
        "--in", str(out_path),
    )
    assert code in (0, cli.EXIT_DOMAIN)
    assert "usage error" not in err


def test_decompose_non_image_exits_domain(tmp_path, capsys):
    pair = {
        "first": {"p": 3, "cap": None,
                  "coeffs": [{"num": "1", "den_pow": 0, "absprec": "inf"}]},
        "second": {"p": 3, "cap": None, "coeffs": []},
    }
    src = tmp_path / "pair.json"
    src.write_text(json.dumps(pair))
    code, _, err = run_cli(
        capsys, "decompose", "--p", "3", "--ap", "0", "--level", "1",
        "--in", str(src),
    )
    assert code == cli.EXIT_DOMAIN
    assert "InexactDivision" in err


def test_verify_defaults_are_the_check_config_defaults():
    # verify --all runs exactly run_suite(default_configs())
    args = cli.build_parser().parse_args(["verify", "--all"])
    configs = [CheckConfig(c.p, c.ap, n_max=args.nmax, cap=args.cap, prec=args.prec,
                           trials=args.trials) for c in default_configs()]
    assert configs == default_configs()


def test_verify_healthy_pair_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--all", "--p", "3", "--ap", "3",
        "--nmax", "2", "--cap", "12", "--prec", "4", "--trials", "2",
    )
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_failure_exits_three(capsys, monkeypatch):
    fail = CheckReport(name="x", config={"p": 3, "ap": 3}, status="fail", witness="w")
    monkeypatch.setattr(cli, "run_suite", lambda configs: [fail])
    code, out, err = run_cli(capsys, "verify", "--p", "3", "--ap", "3")
    assert code == cli.EXIT_VERIFY
    assert "FAIL" in out


def test_verify_writes_json_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--p", "2", "--ap", "2", "--nmax", "1", "--cap", "10",
        "--prec", "3", "--trials", "2", "--out", str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert all(r["status"] == "pass" for r in data)


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--p", "3"])  # missing required flags
    assert exc.value.code == cli.EXIT_USAGE


def test_verify_p_without_ap_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "3")
    assert code == cli.EXIT_USAGE
    assert "together" in err


NOT_JSON = "{not json"
NOT_UTF8 = b'{"first": "\xff\xfe"}'
BAD_NUM = json.dumps({
    "first": {"p": 3, "cap": None, "coeffs": [{"num": "1.5", "den_pow": 0, "absprec": "inf"}]},
    "second": {"p": 3, "cap": None, "coeffs": []},
})


def _pair_with_first(**fields):
    first = {"p": 3, "cap": None, "coeffs": [], **fields}
    return json.dumps({"first": first, "second": {"p": 3, "cap": None, "coeffs": []}})


# every division passes at its precision, but the peeled pair does not
# rebuild the input: a precision failure, not a broken identity
LOST_PRECISION = json.dumps({
    "first": {"coeffs": [{"num": "-2", "den_pow": 0, "absprec": "inf"}]},
    "second": {"coeffs": [{"num": "0", "den_pow": 0, "absprec": 0}]},
})

COEFS_TYPO = json.dumps({key: {"p": 3, "cap": None, "coefs": [{"num": "1", "den_pow": 0}]}
                         for key in ("first", "second")})

# an integer literal past Python's 4,300-digit str -> int limit
LONG_INT = '{"first": {"coeffs": [], "cap": ' + "1" * 5000 + '}, "second": {"coeffs": []}}'

INF_LADDER = ["ladder", "--p", "3", "--ap", "3", "--level", "infinity", "--index", "1",
              "--cap", "8", "--prec", "4"]


@pytest.mark.parametrize("argv, env, infile, code, needle", [
    (["verify", "--cap", "0"], {}, None, cli.EXIT_USAGE, "--cap"),
    (["ladder", "--p", "3", "--ap", "3", "--level", "1", "--index", "1", "--cap", "-1"],
     {}, None, cli.EXIT_USAGE, "--cap"),
    (["ladder", "--p", "3", "--ap", "3", "--level", "0", "--index", "1"],
     {}, None, cli.EXIT_USAGE, "--level"),
    (["ladder", "--p", "3", "--ap", "3", "--level", "infinity", "--index", "1",
      "--cap", "8", "--prec", "0"], {}, None, cli.EXIT_USAGE, "--prec"),
    (INF_LADDER, {"SPRUNG_MAX_LIMIT_STEPS": "abc"}, None, cli.EXIT_USAGE,
     "SPRUNG_MAX_LIMIT_STEPS"),
    (INF_LADDER, {"SPRUNG_MAX_LIMIT_STEPS": "-5"}, None, cli.EXIT_USAGE,
     "SPRUNG_MAX_LIMIT_STEPS"),
    (["decompose", "--p", "3", "--ap", "3", "--level", "1"], {}, NOT_JSON,
     cli.EXIT_DOMAIN, "SerializationError"),
    (["decompose", "--p", "3", "--ap", "3", "--level", "1"], {}, BAD_NUM,
     cli.EXIT_DOMAIN, "SerializationError"),
    (["decompose", "--p", "3", "--ap", "3", "--level", "1"], {}, _pair_with_first(cap="abc"),
     cli.EXIT_DOMAIN, "SerializationError"),
    (["decompose", "--p", "3", "--ap", "3", "--level", "1"], {}, _pair_with_first(coeffs=5),
     cli.EXIT_DOMAIN, "SerializationError"),
    (["decompose", "--p", "3", "--ap", "3", "--level", "1"], {}, _pair_with_first(cap=-3),
     cli.EXIT_DOMAIN, "SerializationError"),
    (["decompose", "--p", "3", "--ap", "3", "--level", "1"], {}, COEFS_TYPO,
     cli.EXIT_DOMAIN, "SerializationError: field 'coeffs'"),
    (["verify", "--p", "3", "--ap", "3", "--nmax", "-2"], {}, None, cli.EXIT_USAGE, "--nmax"),
    (["verify", "--p", "3", "--ap", "3", "--trials", "-1"], {}, None, cli.EXIT_USAGE,
     "--trials"),
    (["verify", "--p", "4", "--ap", "0"], {}, None, cli.EXIT_DOMAIN, "NotSupersingular"),
    (["decompose", "--p", "3", "--ap", "3", "--level", "1"], {}, NOT_UTF8,
     cli.EXIT_DOMAIN, "SerializationError"),
    (["decompose", "--p", "2", "--ap", "2", "--level", "2"], {}, LOST_PRECISION,
     cli.EXIT_DOMAIN, "error: PrecisionExhausted: the peeled pair does not rebuild the inexact "
                      "input at its precision at (p, a_p, n) = (2, 2, 2)\n"),
    (["decompose", "--p", "3", "--ap", "3", "--level", "1"], {}, "[" * 100_000 + "]" * 100_000,
     cli.EXIT_DOMAIN, "is not JSON: maximum recursion depth exceeded"),
    (["decompose", "--p", "3", "--ap", "3", "--level", "1"], {}, json.dumps({"first": {}}),
     cli.EXIT_DOMAIN, "SerializationError: input JSON needs first/second"),
    (["decompose", "--p", "3", "--ap", "3", "--level", "1"], {}, LONG_INT,
     cli.EXIT_DOMAIN, "is not JSON: Exceeds the limit"),
    (["decompose", "--p", "3", "--ap", "3", "--level", "1"], {}, "[]",
     cli.EXIT_DOMAIN, "must hold a JSON object"),
], ids=["verify-cap-0", "ladder-cap-neg", "ladder-level-0", "infinity-prec-0",
        "env-steps-abc", "env-steps-neg", "decompose-not-json", "decompose-num-not-int",
        "decompose-cap-not-int", "decompose-coeffs-not-list", "decompose-cap-neg",
        "decompose-coeffs-missing",
        "verify-nmax-neg", "verify-trials-neg", "verify-bad-pair", "decompose-not-utf8",
        "decompose-lost-precision", "decompose-deep-nesting", "decompose-no-first-second",
        "decompose-int-too-long", "decompose-not-object"])
def test_bad_input_exit_code_without_traceback(tmp_path, argv, env, infile, code, needle):
    if infile is not None:
        path = tmp_path / "pair.json"
        path.write_bytes(infile if isinstance(infile, bytes) else infile.encode())
        argv = argv + ["--in", str(path)]
    src = str(Path(padic_ladders.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "padic_ladders.cli", *argv],
        env={**os.environ, "PYTHONPATH": src, **env},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert needle in proc.stderr
    if code == cli.EXIT_DOMAIN or env:
        assert len(proc.stderr.strip().splitlines()) == 1


PAIRS_8 = [(2, 0), (2, 2), (2, -2), (3, 0), (3, 3), (3, -3), (5, 0), (7, 0)]


@st.composite
def _artifact(draw):
    """(type, value) for every artifact type, at small sizes."""
    p, ap = draw(st.sampled_from(PAIRS_8))
    small = lambda lo, hi: draw(st.integers(lo, hi))
    cap = lambda lo: draw(st.none() | st.integers(lo, 9))
    ints = lambda: draw(st.lists(st.integers(-99, 99), max_size=6))
    kind = draw(st.sampled_from(("ints", "scalars", "finite", "infinity", "halflog", "lambda")))
    if kind == "ints":
        return PowerSeries, PowerSeries(p, ints(), cap(0))
    if kind == "scalars":
        absprec = lambda: draw(st.none() | st.integers(-1, 6))
        coeffs = [PadicScalar(p, Fraction(x, p ** small(0, 2)), absprec()) for x in ints()]
        return PowerSeries, PowerSeries(p, coeffs, cap(0))
    if kind == "finite":
        return LadderMatrix, ladder(p, ap, small(1, 3), small(-3, 5), cap(1))
    if kind == "infinity":
        return LadderMatrix, ladder_infinity(p, ap, small(-3, 5), small(1, 8), small(1, 4))
    if kind == "halflog":
        return HalfLogPair, half_logs(p, ap, small(1, 8), small(1, 4))
    return LambdaPair, LambdaPair.from_ints(p, small(0, 2), ints(), ints())


@settings(max_examples=60, deadline=None)
@given(_artifact())
def test_artifact_json_round_trip_is_byte_exact(case):
    # seeded fault: QuadExtSeries.from_json passing "cap": None to its parts
    # turns a half-log's cap into null on the second write
    cls, value = case
    text = json.dumps(value.to_json())
    assert json.dumps(cls.from_json(json.loads(text)).to_json()) == text



_SCALAR = st.fixed_dictionaries({"num": st.integers().map(str), "den_pow": st.integers(0, 40),
                                 "absprec": st.integers(-2, 40) | st.just("inf")})
_LEAF = st.one_of(st.text(), st.sampled_from(["", "\u00e9\u03b1", "\x00\n\t\"\\\x7f", "\U0001f600"]),
                  st.integers(), st.integers(-10 ** 80, -10 ** 40), st.booleans(), st.none(), _SCALAR)
_PAYLOAD = st.recursive(_LEAF, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=6), inner, max_size=5)), max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_PAYLOAD)
@example({"b": [], "a": {}, "c": [{"k": None, "j": [True, False, -(10 ** 70)]}]})
def test_writer_matches_json_dumps_indent_2(payload):
    assert cli._dumps(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("payload", [1.5, {1, 2}, [0, {"a": frozenset()}], {1: "x"},
                                     {"k": [{None: 0}]}, {(1, 2): 3}, [float("nan")]])
def test_writer_raises_type_error_on_what_no_cli_payload_holds(payload):
    # json.dumps writes floats and turns int/None keys into strings; the writer refuses them
    with pytest.raises(TypeError):
        cli._dumps(payload)


def test_limit_artifact_builds_no_padic_scalars(tmp_path, monkeypatch):
    # the parent of the numerator exit built 800 here: one PadicScalar per coefficient
    built, matrices, init = [], [], PadicScalar.__init__
    monkeypatch.setattr(PadicScalar, "__init__", lambda *a, **k: built.append(1) or init(*a, **k))
    monkeypatch.setattr(cli, "ladder_infinity", lambda *a: matrices.append(ladder_infinity(*a))
                        or matrices[-1])
    out = tmp_path / "limit.json"
    assert cli.main(["ladder", "--p", "3", "--ap", "3", "--level", "infinity", "--index", "1",
                     "--cap", "200", "--prec", "26", "--out", str(out)]) == 0
    assert len(built) == 0
    entries = [s for row in matrices[0].entries for s in row]
    for s in entries:
        s.coeffs
    assert len(built) == 200 * len(entries) == 800

# Hypothesis draws the first values of a list most often: the hostile --in
# files come first, so that most decompose runs reach a reader error, and
# well-formed option values come first, so that most argv reach a subcommand.
@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {"not-utf8": NOT_UTF8, "not-json": NOT_JSON.encode(), "pair": json.dumps(
        {"first": {"p": 3, "cap": None, "coeffs": [{"num": "3", "den_pow": 0, "absprec": "inf"}]},
         "second": {"p": 3, "coeffs": []}}).encode()}
    for name, content in files.items():
        (root / name).write_bytes(content)
    return [str(root / name) for name in (*files, "missing")]


_OPTIONS = {  # subcommand -> the options the fuzz may pass, by kind of value
    "table": {"--p": "p", "--ap": "ap", "--imin": "i", "--imax": "i", "--format": "format"},
    "ladder": {"--p": "p", "--ap": "ap", "--level": "level", "--index": "i", "--cap": "n",
               "--prec": "n"},
    "halflog": {"--p": "p", "--ap": "ap", "--cap": "n", "--prec": "n"},
    "decompose": {"--p": "p", "--ap": "ap", "--level": "n", "--in": "file"},
    "ap": {"--p": "p", "--a1": "i", "--a4": "i", "--a6": "i"},
    "verify": {"--p": "p", "--ap": "ap", "--nmax": "small", "--cap": "n", "--prec": "n",
               "--trials": "small"},
}
_VALUES = {"p": ["3", "2", "5", "7", "4", "1", "0", "-1", "x"],
           "ap": ["3", "0", "2", "-2", "-3", "1", "5"],
           "i": ["1", "0", "-1", "2", "-3", "5"], "n": ["3", "1", "6", "0", "-1", "x"],
           "small": ["1", "2", "-1"], "level": ["1", "2", "infinity", "0", "x"],
           "format": ["json", "csv", "xml"]}


@pytest.mark.parametrize("cmd", sorted(_OPTIONS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_cli_argv_fuzz_exits_with_one_line(input_files, cmd, data):
    # seeded fault: _read_pair catching JSONDecodeError only lets the
    # UnicodeDecodeError of a non-UTF-8 --in file escape main
    argv = [cmd]
    for opt, kind in _OPTIONS[cmd].items():
        if data.draw(st.integers(0, 9)) < 9:  # an option is sometimes left out
            values = input_files if kind == "file" else _VALUES[kind]
            argv += [opt, data.draw(st.sampled_from(values))]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    # beyond argparse's usage synopsis, a failure is one line on stderr
    lines = [l for l in err.getvalue().splitlines() if not l.startswith(("usage:", " "))]
    assert len(lines) == (code != 0), (argv, err.getvalue())
