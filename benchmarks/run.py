"""Benchmark of negsphere: one workload per run, end-to-end or traced.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload search-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run over a fixed amount of work.  Human-readable lines come first, named
as in benchmarks/README.md; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every run also writes
``.bench_out/<workload>-trace<0|1>.json`` (seed, Python version, commit,
metrics) and a traced run writes its spans next to it.  Exits 2 without a
result when the checkout holds no ``src/negsphere``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import BENCH_SPAN, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Checks, Latencies, Record  # noqa: E402

OUT_DIR = ".bench_out"
SETUP_LAUNCHES = 21
CALIBRATION_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
}

PER_LAYER = {
    "sl2z.word_to_matrix.calls": "count",
    "sl2z.letters": "count",
    "sl2z.self_s": "s",
    "sl2z.letters_per_search": "letters/search",
    "fibers.fiber.calls": "count",
    "fibers.self_s": "s",
    "fibration.validate.calls": "count",
    "fibration.reference_decomposition.calls": "count",
    "fibration.validate_per_spec": "calls/spec",
    "fibration.build_tree.calls": "count",
    "fibration.build_tree.vertices": "count",
    "fibration.self_s": "s",
    "plumbing.blow_up_edge.calls": "count",
    "plumbing.blow_up_point.calls": "count",
    "plumbing.vertices_copied": "count",
    "plumbing.smooth.calls": "count",
    "plumbing.two_coloring.calls": "count",
    "plumbing.oracle_square.calls": "count",
    "plumbing.self_s": "s",
    "search.best_sphere.calls": "count",
    "search.enumerate_specs.yielded": "count",
    "search.replay_plan.calls": "count",
    "search.replay_share": "ratio",
    "search.self_s": "s",
    "verify.self_s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "sl2z.errors": "count",
    "fibers.errors": "count",
    "fibration.errors": "count",
    "plumbing.errors": "count",
    "search.errors": "count",
    "verify.errors": "count",
    "cli.errors": "count",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_share": "ratio",
}

# Workload-specific names under which each workload prints its generic metrics.
NAMED = {
    "search-grid": (("searches_per_s", "ops_per_s"), ("search_p50_ms", "op_p50_ms"),
                    ("search_p95_ms", "op_p95_ms")),
    "enumerate-specs": (("specs_per_s", "ops_per_s"),),
    "rewrite-sweep": (("rewrites_per_s", "ops_per_s"),),
    "paper-session": (("cli_p50_ms", "op_p50_ms"),),
}

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.process_time()\n"
    "import negsphere, negsphere.cli, negsphere.verify\n"
    "print(time.process_time() - start)\n"
)


class BenchmarkError(RuntimeError):
    """The checkout cannot be benchmarked."""


def load_package(root: Path):
    """Import negsphere from the checkout's own ``src``, never from elsewhere."""
    package_dir = root / "src" / "negsphere"
    if not (package_dir / "__init__.py").is_file():
        raise BenchmarkError(f"no negsphere package at {package_dir}")
    sys.path.insert(0, str(root / "src"))
    package = importlib.import_module("negsphere")
    importlib.import_module("negsphere.cli")
    importlib.import_module("negsphere.verify")
    if Path(package.__file__).resolve().parent != package_dir.resolve():
        raise BenchmarkError(f"negsphere was imported from {package.__file__}")
    return package


def launch_setup(root: Path) -> float:
    """CPU seconds a fresh interpreter spends importing the package."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(root / "src")],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def measure(ns, workload, seed: int, seconds: float, checks: Checks, state: dict,
            root: Path, setup_times: list[float]) -> Record:
    """Run whole passes until ``seconds`` of wall time have passed or the inputs end.

    Finite inputs (search-grid) are paced: pass i does not start before
    i * seconds / passes, so the run samples the host's speed over the whole
    window instead of its first part.  The wait spins, keeping the CPU as
    busy as in the unpaced workloads.  Between passes, the set-up launches
    due by then run, SETUP_LAUNCHES of them spread evenly over the window;
    any still missing run after it.
    """
    rec = Record(latencies=Latencies(workload.block))
    passes = workload.passes(seed)
    interval = seconds / len(passes) if isinstance(passes, list) else 0.0
    launch_every = seconds / SETUP_LAUNCHES
    start = perf_counter()
    deadline = start + seconds
    for i, item in enumerate(passes):
        while perf_counter() < start + i * interval:
            pass
        if perf_counter() >= deadline:
            break
        workload.run_pass(ns, item, rec, checks, state)
        while (len(setup_times) < SETUP_LAUNCHES
               and perf_counter() >= start + len(setup_times) * launch_every):
            setup_times.append(launch_setup(root))
    while len(setup_times) < SETUP_LAUNCHES:
        setup_times.append(launch_setup(root))
    return rec


def end_to_end(ns, workload, args, root: Path, state: dict):
    launch_setup(root)  # unmeasured: the first launch may write the bytecode cache
    checks = Checks()
    workload.warm_up(ns, checks)
    setup_times: list[float] = []
    rec = measure(ns, workload, args.seed, args.seconds, checks, state, root, setup_times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": rec.ops / rec.busy_s,
        "op_p50_ms": rec.latencies.mean(50) * 1e3,
        "op_p95_ms": rec.latencies.mean(95) * 1e3,
    }
    named = {label: metrics[key] for label, key in NAMED[workload.name]}
    if workload.name == "paper-session":
        named["cli_p90_ms"] = rec.latencies.mean(90) * 1e3
        for label in ("verify_paper_s", "conjecture_grid_s"):
            named[label] = statistics.median(rec.named[label])
    named["failed_share"] = rec.failed / rec.attempted
    return metrics, named, rec, None


def traced(ns, workload, args, root: Path, state: dict):
    """Per-layer metrics from a traced run, plus the tracing overhead on one pass.

    The traced run makes the workload's first ``trace_passes`` passes,
    whatever ``--seconds`` says, so its counts compare at equal work.
    """
    tracer = Tracer()
    checks = Checks(tracer)
    workload.warm_up(ns, checks)
    first = next(iter(workload.passes(args.seed)))
    plain_s, traced_s = [], []
    for _ in range(CALIBRATION_REPEATS):
        for timings, install in ((plain_s, False), (traced_s, True)):
            if install:
                tracer.install()
            try:
                start = perf_counter()
                workload.run_pass(ns, first, Record(), checks, state)
                timings.append(perf_counter() - start)
            finally:
                tracer.uninstall()
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1

    tracer.reset()
    tracer.install()
    try:
        start = perf_counter()
        root_span = tracer.open(BENCH_SPAN)
        rec = Record()
        for item in islice(workload.passes(args.seed), workload.trace_passes):
            workload.run_pass(ns, item, rec, checks, state)
        tracer.close(root_span)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, wall, overhead)
    named = {"failed_share": rec.failed / rec.attempted}
    return metrics, named, rec, tracer


def commit_id(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _named_unit(label: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s")):
        if label.endswith(suffix):
            return unit
    return "ratio"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = HERE.parent
    try:
        ns = load_package(root)
    except (BenchmarkError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    run = traced if args.trace else end_to_end
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        metrics, named, rec, tracer = run(ns, workload, args, root, {"workdir": Path(workdir)})

    units = PER_LAYER if args.trace else END_TO_END
    stem = f"{workload.name}-trace{args.trace}"
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "commit": commit_id(root),
        "op": workload.op,
        "samples": {"ops": rec.ops, "in_latency_blocks": rec.latencies.count,
                    "latency_blocks": len(rec.latencies.blocks[50])},
        "named": named,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "problems": rec.problems,
    }
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}-spans", {"workload": workload.name, "seed": args.seed})
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  commit {record['commit']}  "
          f"python {record['python']}")
    print(f"  {rec.ops} ops ({workload.op}); percentiles over {rec.latencies.count} of them "
          f"in blocks of {rec.latencies.size}; {rec.attempted} checked, {rec.failed} failed")
    for problem in rec.problems:
        print(f"  FAILED {problem}")
    for label, value in named.items():
        print(f"  {label:<40} {value:.6g} {_named_unit(label)}")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
