"""Call-boundary tracing of padic_ladders from outside the package.

``Tracer.install`` wraps the public functions and methods of each layer
(module) and rebinds every name that refers to them in every
``padic_ladders`` module, because ``coleman``, ``checks`` and ``cli`` bind
names with ``from .x import y``.  Each call is attributed to a metric key
such as ``series.mul``; per key the tracer keeps

* ``calls``: every call, nested ones included;
* ``incl``: wall time of the outermost call of the key (a call inside
  another call of the same key adds no time);
* ``self``: wall time minus the time of wrapped calls made inside it.

Calls of the hot scalar and trace layers are counted and timed but leave no
span; every other call also leaves a span (id, parent id, operation, key,
start, duration) kept in memory and written out as JSON lines by
``write_spans``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

from padic_ladders import checks, cli, coleman, ladders, padics, report, series, trace
from padic_ladders.errors import InexactDivision

PERF = time.perf_counter
SPAN_LIMIT = 200_000  # spans beyond this are counted, not kept

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__eq__", "congruent",
              "reduce", "valuation")
QUADEXT_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
               "__rmul__", "__truediv__", "__eq__", "conj", "norm", "inverse", "pow_int")
UNSPANNED = ("padics.", "trace")


class Tracer:
    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.depth: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.op = None  # label of the benchmark operation being traced
        self._stack: List[list] = []  # [child time, id of the nearest span]
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, key: str, fn: Callable, before=None, after=None, raised=None) -> Callable:
        tracer = self
        spanned = not key.startswith(UNSPANNED)
        calls, incl, self_s, depth, stack = (
            self.calls, self.incl, self.self_s, self.depth, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if before is not None:
                before(tracer, args, kwargs)
            depth[key] += 1
            parent = stack[-1][1] if stack else 0
            if spanned:
                tracer._next_id += 1
            # an unspanned frame passes its parent's span id on to its children
            frame = [0.0, tracer._next_id if spanned else parent]
            stack.append(frame)
            t0 = PERF()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if raised is not None:
                    raised(tracer, exc)
                raise
            finally:
                dt = PERF() - t0
                stack.pop()
                depth[key] -= 1
                if stack:
                    stack[-1][0] += dt
                self_s[key] += dt - frame[0]
                if depth[key] == 0:
                    incl[key] += dt
                if spanned:
                    if len(tracer.spans) < SPAN_LIMIT:
                        tracer.spans.append(
                            (frame[1], parent, tracer.op, key, fn.__qualname__, t0, dt))
                    else:
                        tracer.spans_dropped += 1
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, original, wrapper):
        """Replace ``original`` under every name bound to it in the package."""
        for name, module in list(sys.modules.items()):
            if name != "padic_ladders" and not name.startswith("padic_ladders."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def function(self, fn: Callable, key: str, **hooks):
        self._rebind(fn, self._wrap(key, fn, **hooks))

    def method(self, cls: type, attr: str, key: str, **hooks):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(key, original, **hooks))
        self._patches.append((cls, attr, original))

    def install(self):
        for attr in SCALAR_OPS:
            self.method(padics.PadicScalar, attr, "padics.scalar")
        for attr in QUADEXT_OPS:
            self.method(padics.QuadExtScalar, attr, "padics.quadext")

        self.method(series.PowerSeries, "mul", "series.mul", before=_count_mul)
        self.function(series.divmod_monic, "series.divmod", before=_count_divmod)
        for fn in (series.phi, series.phi_truncated, series.omega, series.omega_congruent):
            self.function(fn, "series.cyclotomic")

        for name, fn in list(vars(trace).items()):
            if (callable(fn) and not isinstance(fn, type) and not name.startswith("_")
                    and getattr(fn, "__module__", None) == trace.__name__):
                self.function(fn, "trace")

        self.function(ladders.ladder, "ladders.ladder")
        self.function(ladders.ladder_infinity, "ladders.limit", after=_count_levels)
        self.function(ladders.half_logs, "ladders.halflog")
        self.function(ladders.pollack_product, "ladders.parity_product")

        self.function(coleman.phi_apply, "coleman.phi_apply")
        self.function(coleman.decompose, "coleman.decompose", raised=_count_rejection)
        self.function(coleman.kernel_basis, "coleman.kernel")
        self.function(coleman.kernel_member, "coleman.kernel")
        self.function(coleman.limit_lemma_check, "coleman.check")
        self.function(coleman.projection_compatibility_check, "coleman.check")

        # run_suite iterates the CHECKS table, which holds the check functions
        self._patches.append((checks, "CHECKS", checks.CHECKS))
        checks.CHECKS = tuple(
            (name, self._wrap(f"checks.{name}", fn)) for name, fn in checks.CHECKS)
        self.function(checks.run_suite, "checks.suite", after=_count_reports)

        for cls in (ladders.LadderMatrix, ladders.HalfLogPair, report.CheckReport):
            self.method(cls, "to_json", "cli.encode")
        self._patches.append((cli, "json", cli.json))
        cli.json = _JsonProxy(self._wrap("cli.encode", json.dumps),
                              self._wrap("cli.encode", json.dump))

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------------

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for sid, parent, op, key, qualname, start, dur in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "key": key,
                                     "fn": qualname, "start": start, "dur_s": dur}) + "\n")


class _JsonProxy:
    """Stands in for the json module inside cli, with timed dumps/dump."""

    def __init__(self, dumps, dump):
        self.dumps = dumps
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


# -- counting hooks ---------------------------------------------------------------


def _bits(coeffs) -> int:
    return max((max(c.value.numerator.bit_length(), c.value.denominator.bit_length())
                for c in coeffs), default=0)


def _count_mul(tracer: Tracer, args, kwargs):
    f, g = args[0], args[1]
    cap = args[2] if len(args) > 2 else kwargs.get("cap")
    if isinstance(g, series.PowerSeries):
        g_coeffs = g.coeffs
    else:  # a scalar operand, coerced by mul itself
        g_coeffs = (g if isinstance(g, padics.PadicScalar) else padics.PadicScalar(f.p, g),)
    caps = [c for c in (f.cap, getattr(g, "cap", None), cap) if c is not None]
    la, lb = len(f.coeffs), len(g_coeffs)
    if caps:
        eff = min(caps)
        terms = sum(min(lb, eff - i) for i in range(min(la, eff)))
    else:
        terms = la * lb
    counts = tracer.counts
    counts["series.mul_terms"] += terms
    counts["series.max_degree"] = max(counts["series.max_degree"], la - 1, lb - 1)
    counts["series.max_coeff_bits"] = max(
        counts["series.max_coeff_bits"], _bits(f.coeffs), _bits(g_coeffs))


def _count_divmod(tracer: Tracer, args, kwargs):
    degree = max(len(args[0].coeffs), len(args[1].coeffs)) - 1
    tracer.counts["series.max_degree"] = max(tracer.counts["series.max_degree"], degree)


def _count_levels(tracer: Tracer, args, kwargs, result):
    p, cap = args[0], args[3]
    n_start = 1
    while p ** n_start < cap:
        n_start += 1
    tracer.counts["ladders.limit_levels"] += result.n_used - n_start + 1


def _count_rejection(tracer: Tracer, exc: Exception):
    if isinstance(exc, InexactDivision):
        tracer.counts["coleman.rejections"] += 1


def _count_reports(tracer: Tracer, args, kwargs, result):
    tracer.counts["checks.reports"] += len(result)


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> Dict[str, tuple]:
    """The per-layer metrics as {name: (value, unit)}."""
    calls, incl = tracer.calls, tracer.incl
    counts = tracer.counts
    out = {
        "padics.scalar_ops": (calls["padics.scalar"], "count"),
        "padics.scalar_s": (incl["padics.scalar"], "s"),
        "padics.quadext_ops": (calls["padics.quadext"], "count"),
        "padics.quadext_s": (incl["padics.quadext"], "s"),
        "series.mul_calls": (calls["series.mul"], "count"),
        "series.mul_s": (incl["series.mul"], "s"),
        "series.mul_terms": (counts["series.mul_terms"], "count"),
        "series.max_degree": (counts["series.max_degree"], "count"),
        "series.max_coeff_bits": (counts["series.max_coeff_bits"], "bits"),
        "series.divmod_calls": (calls["series.divmod"], "count"),
        "series.divmod_s": (incl["series.divmod"], "s"),
        "series.cyclotomic_calls": (calls["series.cyclotomic"], "count"),
        "series.cyclotomic_s": (incl["series.cyclotomic"], "s"),
        "trace.calls": (calls["trace"], "count"),
        "trace.s": (incl["trace"], "s"),
        "ladders.ladder_calls": (calls["ladders.ladder"], "count"),
        "ladders.ladder_s": (incl["ladders.ladder"], "s"),
        "ladders.limit_calls": (calls["ladders.limit"], "count"),
        "ladders.limit_s": (tracer.self_s["ladders.limit"], "s"),
        "ladders.limit_levels": (counts["ladders.limit_levels"], "count"),
        "ladders.halflog_s": (incl["ladders.halflog"], "s"),
        "ladders.parity_product_s": (incl["ladders.parity_product"], "s"),
        "coleman.phi_apply_calls": (calls["coleman.phi_apply"], "count"),
        "coleman.phi_apply_s": (incl["coleman.phi_apply"], "s"),
        "coleman.decompose_calls": (calls["coleman.decompose"], "count"),
        "coleman.decompose_s": (incl["coleman.decompose"], "s"),
        "coleman.rejections": (counts["coleman.rejections"], "count"),
        "coleman.kernel_s": (incl["coleman.kernel"], "s"),
        "coleman.check_s": (incl["coleman.check"], "s"),
    }
    for name in checks.CHECK_NAMES:
        out[f"checks.{name}_s"] = (incl[f"checks.{name}"], "s")
    out["checks.reports"] = (counts["checks.reports"], "count")
    out["cli.encode_s"] = (incl["cli.encode"], "s")
    out["cli.artifact_bytes"] = (artifact_bytes, "bytes")
    return out
