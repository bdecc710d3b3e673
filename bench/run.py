"""padic-ladders benchmark: one workload per invocation, closed loop, one caller.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Set-up (caches cleared, inputs generated from the seed, one
untimed warm-up pass) is repeated SETUP_REPEATS times.  Then whole rounds of
the workload's operations run one after another until at least ``--seconds``
of operation time has been measured; every output is checked after its round,
outside the timed region.

Times are reported in reference seconds, wall time corrected for the host's
speed as clock.py describes; the wall-time figures are kept in the info line.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` the run measures one untraced round and then one traced round,
writes the spans under .bench_build/trace/ and reports the per-layer metrics.
A JSON line before the result records the environment and the run's shape.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

from clock import Clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build"
SETUP_REPEATS = 5


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    """HEAD read from .git without running git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _import_program(clock: Clock):
    """Import padic_ladders from this checkout's src/; returns the import's Timing."""
    if not (SRC / "padic_ladders" / "__init__.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'padic_ladders'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    clock.start()
    import padic_ladders  # noqa: F401
    import padic_ladders.cli  # noqa: F401

    elapsed = clock.stop()
    if Path(padic_ladders.__file__).resolve().parent != SRC / "padic_ladders":
        sys.exit(f"bench: imported padic_ladders from {padic_ladders.__file__}, not {SRC}")
    return elapsed


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name == "padic_ladders" or name.startswith("padic_ladders."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _run_round(ops, clock, samples, problems, tracer=None):
    """Run each op once, timed, then check each output of the round.

    Appends one Timing per op to ``samples``.
    """
    for op in ops:  # a stale artifact must not pass for a fresh one
        if op.artifact:
            Path(op.artifact).unlink(missing_ok=True)
    outputs = {}
    for op in ops:
        if tracer is not None:
            tracer.op = op.label
        clock.start()
        try:
            outputs[op.label] = op.run()
        except Exception as exc:  # a failed operation is data, not the end of the run
            problems["failed"].append(f"{op.label}: {type(exc).__name__}: {exc}")
        samples.append(clock.stop())
    for op in ops:
        if op.label in outputs:
            wrong = op.check(outputs[op.label], outputs)
            if wrong:
                problems["wrong"].append(f"{op.label}: {wrong}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    clock = Clock()
    import_time = _import_program(clock)
    import reference
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_dir = OUT_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    problems = {"failed": [], "wrong": [f"reference self-test: {m}" for m in reference.self_test()]}

    setup_times = []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        clock.start()
        _clear_caches()
        workload = WORKLOADS[args.workload](args.seed, out_dir)
        try:
            workload.warm_up()
        except Exception as exc:  # the timed rounds still run and report per operation
            problems["wrong"].append(f"warm-up: {type(exc).__name__}: {exc}")
        setup_times.append(clock.stop())
    ops = workload.ops()

    samples = []
    rounds = 0
    while rounds == 0 or (not args.trace and sum(t.wall for t in samples) < args.seconds):
        _run_round(ops, clock, samples, problems)
        rounds += 1

    wall = [t.wall for t in samples]
    ref = [t.ref for t in samples]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "ops_per_round": len(ops), "timed_wall_s": sum(wall),
        "speed_factor": sum(wall) / sum(ref),
        "python": platform.python_version(), "cpu": _cpu_model(), "git_sha": _git_sha(),
    }
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            _run_round(ops, clock, traced, problems, tracer)
        finally:
            tracer.uninstall()
        trace_dir = OUT_DIR / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        span_path = trace_dir / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(str(span_path))
        artifact_bytes = sum(os.path.getsize(op.artifact) for op in ops if op.artifact)
        metrics = layer_metrics(tracer, artifact_bytes)
        traced_ref = sum(t.ref for t in traced)
        metrics["tracing.overhead_ratio"] = (traced_ref / sum(ref), "ratio")
        info.update(spans=str(span_path.relative_to(ROOT)), spans_dropped=tracer.spans_dropped,
                    untraced_ops_per_s=len(ref) / sum(ref),
                    traced_ops_per_s=len(traced) / traced_ref)
    else:
        metrics = {
            "setup_s": (import_time.ref + statistics.median(t.ref for t in setup_times), "s"),
            "ops_per_s": (len(ref) / sum(ref), "1/s"),
            "op_p50_s": (statistics.median(ref), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        info.update(
            samples=len(ref),
            wall_setup_s=import_time.wall + statistics.median(t.wall for t in setup_times),
            wall_ops_per_s=len(wall) / sum(wall),
            wall_op_p50_s=statistics.median(wall),
            setup_runs_wall_s=[t.wall for t in setup_times],
        )

    final = workload.final_check()
    if final:
        problems["wrong"].append(final)
    for kind in ("failed", "wrong"):
        for line in problems[kind]:
            print(f"bench: {kind}: {line}", file=sys.stderr)
    info["problems"] = problems["failed"] + problems["wrong"]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not problems["wrong"],
        "attempted": len(samples) + (len(ops) if args.trace else 0),
        "failed": len(problems["failed"]),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
