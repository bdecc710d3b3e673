"""The bench tracer over the package: same reports, every patch undone."""

import importlib.util
import sys
from pathlib import Path

from padic_ladders import checks, ladders

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every attribute of every package module and package class, by owner and name."""
    modules = [module for name, module in sys.modules.items()
               if name == "padic_ladders" or name.startswith("padic_ladders.")]
    classes = [value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("padic_ladders.")]
    return {(owner, attr): value
            for owner in modules + classes for attr, value in vars(owner).items()}


def test_tracer_keeps_reports_and_restores_every_binding():
    # the tracer finds methods through cls.__dict__ and reads n_used off
    # ladder_infinity's result, so a refactor of either breaks it here; the
    # suite reads the level loop _limits directly, so the limit is called here
    bench_tracer = _load_tracer()
    configs = [checks.CheckConfig(3, 3)]
    untraced = [r.to_json() for r in checks.run_suite(configs)]
    before = _bindings()
    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        traced = [r.to_json() for r in checks.run_suite(configs)]
        ladders.ladder_infinity(3, 3, 1, 24, 9)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.calls["checks.suite"] == 1
    assert tracer.calls["ladders.limit"] == 1
    assert tracer.counts["ladders.limit_levels"] > 0
    assert bench_tracer.layer_metrics(tracer, 0)["checks.reports"] == (len(traced), "count")
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
