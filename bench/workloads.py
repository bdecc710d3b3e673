"""The three benchmark workloads: their inputs, operations and output checks.

Every operation is an ``Op``: ``run`` is the timed call into the program and
raises when the operation fails; ``check`` runs after the round, untimed, and
returns a description of a wrong output or None.  Checks compare against the
independent arithmetic in ``reference.py`` or against a property the method
must have; none reads a stored copy of an earlier output.  The program is
called through its module attributes (``coleman.phi_apply``, not a name bound
here) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional

import reference as ref
from padic_ladders import cli, coleman, ladders
from padic_ladders.checks import CHECK_NAMES, TABLE_COLUMN_PAIRS, CheckConfig, run_suite
from padic_ladders.coleman import LambdaPair
from padic_ladders.errors import InexactDivision
from padic_ladders.series import LambdaElement, PowerSeries


class OpFailed(Exception):
    """The operation did not end the way the workload requires."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, Dict[str, object]], Optional[str]]
    artifact: Optional[str] = None  # the file a CLI operation writes


class Workload:
    """One workload: inputs from the seed, a warm-up pass, and a round of ops."""

    name = ""

    def warm_up(self):
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def final_check(self) -> Optional[str]:
        """A check over the whole run, made after the timed rounds."""
        return None


def run_cli(argv: List[str]) -> str:
    """padic_ladders.cli.main in-process, stdout captured; returns that output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"exit code {code} from {' '.join(argv)}")
    return buf.getvalue()


def _values(series: PowerSeries) -> List[Fraction]:
    return [c.value for c in series.coeffs]


def _ints(elem: LambdaElement) -> Optional[List[int]]:
    """Exact integer coefficients of a level-n element, or None if it has none."""
    out = []
    for c in elem.poly.coeffs:
        if c.absprec is not None or c.value.denominator != 1:
            return None
        out.append(c.value.numerator)
    return ref.trim(out)


# -- verify-all -------------------------------------------------------------------------


class VerifyAll(Workload):
    """`verify --all`: the 18 checks over the five standard pairs at cap 24, n <= 3."""

    name = "verify-all"

    def __init__(self, seed: int, out_dir: Path):
        # `verify --all` takes no seed: its inputs are fixed by the CLI defaults.
        self.out = str(out_dir / "verify-all.json")
        self.warm_out = str(out_dir / "verify-all-warm.json")

    def warm_up(self):
        run_cli(["verify", "--all", "--nmax", "1", "--cap", "8", "--trials", "1",
                 "--out", self.warm_out])

    def ops(self) -> List[Op]:
        return [Op("verify --all", lambda: run_cli(["verify", "--all", "--out", self.out]),
                   self._check, self.out)]

    def _check(self, stdout: str, _outputs) -> Optional[str]:
        with open(self.out) as fh:
            reports = json.load(fh)
        expected = {
            (name, p, ap)
            for name in CHECK_NAMES
            for (p, ap) in TABLE_COLUMN_PAIRS
            if name != "pollack_comparison" or ap == 0
        }
        seen = {(r["name"], r["config"]["p"], r["config"]["ap"]) for r in reports}
        if len(reports) != len(expected) or seen != expected:
            return f"report set differs: {len(reports)} reports, {len(expected)} expected"
        failing = [r["name"] for r in reports if r["status"] != "pass"]
        if failing:
            return f"failing reports: {failing}"
        if stdout.count("PASS ") != len(expected) or "FAIL " in stdout:
            return "stdout PASS/FAIL lines disagree with the report file"
        return None

    def final_check(self) -> Optional[str]:
        """The checker must be able to fail: a corrupted a_p parity must be caught."""
        reports = run_suite(
            [CheckConfig(3, 3, corrupt_ap_parity=True, include=("infinity_determinant",))]
        )
        if len(reports) != 1 or reports[0].passed:
            return "fault injection (corrupt_ap_parity) was not reported as a failure"
        return None


# -- limit-cap200 -------------------------------------------------------------------------

LIMIT_PAIRS = [(2, 2), (2, -2), (3, 3), (3, -3), (3, 0), (5, 0)]
LIMIT_CAP = 200
LADDER_PREC = 26
HALFLOG_PREC = 20
POLLACK_PREC = 22
CHECK_PREC = 20  # the tolerance of criteria 08a and 09 at cap 200
POLLACK_MIN_PREC = 15  # below this the product identity would say little (19 at the seed)


class LimitCap200(Workload):
    """Scaled limits at X-adic cap 200: ladders, half-logs and parity products."""

    name = "limit-cap200"

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.order = random.Random(seed).sample(range(20), 20)

    def _ops_at(self, cap: int) -> List[Op]:
        ops = []
        for p, ap in LIMIT_PAIRS:
            for i in (0, 1):
                ops.append(self._cli_op(
                    f"ladder {p} {ap} {i}", cap,
                    ["ladder", "--p", str(p), "--ap", str(ap), "--level", "infinity",
                     "--index", str(i), "--cap", str(cap), "--prec", str(LADDER_PREC)],
                    self._check_ladder,
                ))
            ops.append(self._cli_op(
                f"halflog {p} {ap}", cap,
                ["halflog", "--p", str(p), "--ap", str(ap), "--cap", str(cap),
                 "--prec", str(HALFLOG_PREC)],
                self._check_halflog,
            ))
        for parity in ("even", "odd"):
            ops.append(Op(
                f"pollack {parity}",
                lambda parity=parity: ladders.pollack_product(3, parity, cap, POLLACK_PREC),
                self._check_pollack,
            ))
        return [ops[k] for k in self.order]

    def _cli_op(self, label: str, cap: int, argv: List[str], check) -> Op:
        path = str(self.out_dir / f"{label.replace(' ', '_')}_cap{cap}.json")

        def run() -> str:
            run_cli(argv + ["--out", path])
            return path

        return Op(label, run, check, path)

    def warm_up(self):
        # Every operation once at cap 20; the workload holds no cache, so a
        # cap-200 pass would only repeat the measurement.
        for op in self._ops_at(20):
            op.run()

    def ops(self) -> List[Op]:
        return self._ops_at(LIMIT_CAP)

    @staticmethod
    def _entries(path: str):
        with open(path) as fh:
            data = json.load(fh)
        return data, [[ref.series_from_json(s) for s in row] for row in data["entries"]]

    def _check_ladder(self, path: str, outputs) -> Optional[str]:
        data, e = self._entries(path)
        p, ap, i = data["p"], data["ap"], data["index"]
        if i == 1:
            # criterion 08a: p^s * X * det = log_p(1+X), s = 1 (odd p) or 2 (p = 2)
            det = ref.series_sub(ref.series_mul(e[0][0], e[1][1], LIMIT_CAP),
                                 ref.series_mul(e[0][1], e[1][0], LIMIT_CAP))
            s = 1 if p != 2 else 2
            lhs = [Fraction(0)] + [x * p ** s for x in det[:LIMIT_CAP - 1]]
            k = ref.first_incongruence(lhs, ref.log_coeffs(LIMIT_CAP), p, CHECK_PREC, LIMIT_CAP)
            return None if k is None else f"08a identity fails at X^{k}"
        # index 0: row1_top = a_p row0_top - p row0_bot, row1_bot = row0_top
        partner = outputs.get(f"ladder {p} {ap} 1")
        if partner is None:
            return None  # the index-1 operation failed and is counted as such
        _, e1 = self._entries(partner)
        for c in range(2):
            top = ref.series_sub([ap * x for x in e[0][c]], [p * x for x in e[1][c]])
            if ref.first_incongruence(e1[0][c], top, p, CHECK_PREC, LIMIT_CAP) is not None:
                return f"top-row recursion fails in column {c}"
            if ref.first_incongruence(e1[1][c], e[0][c], p, CHECK_PREC, LIMIT_CAP) is not None:
                return f"bottom row of index 1 differs from top row of index 0 (column {c})"
        return None

    def _check_halflog(self, path: str, outputs) -> Optional[str]:
        with open(path) as fh:
            data = json.load(fh)
        p, ap = data["p"], data["ap"]
        parts = {
            key: tuple(
                ref.series_from_json({"p": p, "coeffs": [c[part] for c in data[key]["coeffs"]]})
                for part in ("a", "b")
            )
            for key in ("log_theta", "log_upsilon")
        }
        # log = row_0 - conj(alpha) row_-1 = (top - a_p bot) + bot * alpha, from the
        # index-0 ladder artifact of the same round
        partner = outputs.get(f"ladder {p} {ap} 0")
        if partner is not None:
            _, e0 = self._entries(partner)
            for c, key in enumerate(("log_theta", "log_upsilon")):
                a, b = parts[key]
                top_minus = ref.series_sub(e0[0][c], [ap * x for x in e0[1][c]])
                if (ref.first_incongruence(a, top_minus, p, HALFLOG_PREC, LIMIT_CAP) is not None
                        or ref.first_incongruence(b, e0[1][c], p, HALFLOG_PREC, LIMIT_CAP)
                        is not None):
                    return f"{key} is not row_0 - conj(alpha) row_-1 of the index-0 limit"
        if (p, ap) == (3, 0) and "pollack even" in outputs and "pollack odd" in outputs:
            even = _values(outputs["pollack even"])
            odd = _values(outputs["pollack odd"])
            theta_a, theta_b = parts["log_theta"]
            ups_a, ups_b = parts["log_upsilon"]
            for label, f, g in (
                ("p*log_theta = -even", [p * x for x in theta_a], [-x for x in even]),
                ("p*log_upsilon.b = -odd", [p * x for x in ups_b], [-x for x in odd]),
                ("log_theta.b = 0", theta_b, []),
                ("log_upsilon.a = 0", ups_a, []),
            ):
                if ref.first_incongruence(f, g, p, HALFLOG_PREC, LIMIT_CAP) is not None:
                    return f"Pollack relation {label} fails"
        return None

    def _check_pollack(self, _series: PowerSeries, outputs) -> Optional[str]:
        # Both parity operations check the joint identity
        # log_p(1+X) = X * prod_(j>=1) Phi_j(1+X)/p = X * odd * even.
        if "pollack even" not in outputs or "pollack odd" not in outputs:
            return None  # the other parity failed and is counted as such
        even = outputs["pollack even"]
        odd = outputs["pollack odd"]
        p = even.p
        ev, od = _values(even), _values(odd)
        # the product is determined mod p^(absprec + least valuation)
        known = min(c.absprec for c in even.coeffs + odd.coeffs) + min(
            ref.valuation(x, p) for x in ev + od if x)
        if known < POLLACK_MIN_PREC:
            return f"parity products determined only mod {p}^{known}"
        prod = ref.series_mul(ev, od, LIMIT_CAP)
        lhs = [Fraction(0)] + prod[:LIMIT_CAP - 1]
        k = ref.first_incongruence(lhs, ref.log_coeffs(LIMIT_CAP), p, known, LIMIT_CAP)
        return None if k is None else f"X*odd*even differs from log_p(1+X) at X^{k}"


# -- coleman-deep -------------------------------------------------------------------------

COLEMAN_CONFIGS = [(3, 3, 5), (3, 0, 5), (2, 2, 7), (2, -2, 7), (5, 0, 3)]
COEFF_RANGE = 9


class ColemanDeep(Workload):
    """Level-n Coleman-map algebra at degrees 125-243 on seeded integer pairs."""

    name = "coleman-deep"

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.cases = []
        for p, ap, n in COLEMAN_CONFIGS:
            deg = p ** n
            a = [rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(deg)]
            b = [rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(deg)]
            rows = ref.rows_mod_omega(p, ap, n)
            w = ref.omega(p, n)
            image = ref.apply_rows(rows, w, ref.trim(a), ref.trim(b))
            self.cases.append({
                "p": p, "ap": ap, "n": n, "rows": rows, "omega": w,
                "image": image,
                "input": LambdaPair.from_ints(p, n, a, b),
                "P1": LambdaElement.from_ints(p, n, image[0]),
                "P0": LambdaElement.from_ints(p, n, image[1]),
                "P1_off": LambdaElement.from_ints(p, n, ref.add(image[0], [1])),
                "witness": ref.m0_witness(p, ap, n),
            })

    def warm_up(self):
        # fills coleman's per-(p, a_p, n, i) cache of ladder rows mod omega_n
        for c in self.cases:
            coleman.phi_apply(c["p"], c["ap"], c["n"], 1, LambdaPair.from_ints(c["p"], c["n"], [1], [0]))

    def ops(self) -> List[Op]:
        ops = []
        for c in self.cases:
            tag = f"{c['p']} {c['ap']} {c['n']}"
            ops.append(Op(f"phi_apply {tag}",
                          lambda c=c: coleman.phi_apply(c["p"], c["ap"], c["n"], 1, c["input"]),
                          lambda out, _o, c=c: self._check_image(out, c)))
            ops.append(Op(f"decompose {tag}",
                          lambda c=c: coleman.decompose(c["p"], c["ap"], c["n"], c["P1"], c["P0"]),
                          lambda out, _o, c=c: self._check_preimage(out, c)))
            ops.append(Op(f"reject {tag}", lambda c=c: self._reject(c), lambda out, _o: None))
        return ops

    @staticmethod
    def _check_image(out: LambdaPair, c) -> Optional[str]:
        got = (_ints(out.first), _ints(out.second))
        if got != tuple(c["image"]):
            return "phi_apply differs from the reference ladder map"
        return None

    @staticmethod
    def _check_preimage(out: LambdaPair, c) -> Optional[str]:
        a, b = _ints(out.first), _ints(out.second)
        if a is None or b is None:
            return "decompose returned non-integral coefficients"
        if ref.apply_rows(c["rows"], c["omega"], a, b) != tuple(c["image"]):
            return "decompose output does not map back onto its input"
        return None

    @staticmethod
    def _reject(c) -> str:
        try:
            coleman.decompose(c["p"], c["ap"], c["n"], c["P1_off"], c["P0"])
        except InexactDivision:
            if c["witness"] is None:
                raise OpFailed("rejection has no X = 0 witness")
            return "rejected"
        raise OpFailed(f"off-image input decomposed; witness M0^-1(1,0) = {c['witness']}")


WORKLOADS = {w.name: w for w in (VerifyAll, LimitCap200, ColemanDeep)}
