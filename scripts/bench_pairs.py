"""Paired benchmark runs of a parent commit against the checkout, written to BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --parent REV --workload W --pairs N --first-seed S

Run from anywhere inside the repository.  The parent side is REV's
committed files, unpacked with ``git archive`` into a temporary directory;
the change side is a snapshot of the working tree's tracked files,
uncommitted edits included (``git stash create``, or HEAD when the tree is
clean), unpacked the same way into a temporary directory of its own, so
both sides run from one kind of place.  The script
refuses to run when the two sides' benchmark (``BENCHMARK.json`` and the
directories it lists as ``paths``) differ, since the pairs would then
measure two benchmarks instead of two programs.

Pair i runs seed S + i on both sides, with ``--trace 0`` and the run
length declared in ``BENCHMARK.json``.  The parent goes first in even
pairs and the change in odd ones, so a drift of the machine over the
session falls on both sides alike.  The output file holds both commits,
the Python version, the command line, every pair's metrics, each side's
median and quartiles per end-to-end metric, and the number of pairs in
which the change was better; after writing it, the script prints one line
per end-to-end metric with both medians, the relative change and the
wins to stderr.

After the pairs, each side makes one ``--trace 1`` run at seed S.  A traced
run does a fixed amount of work whatever its length, so its count metrics
(the per-layer metrics of unit ``count`` in ``BENCHMARK.json``) do not
depend on the machine.  The output file holds them under ``"work"`` as
``{metric: {"parent": ..., "change": ...}}``, and the script prints one
stderr line for each count that differs between the sides.  The exit code
is 0 when every run checked out (``correct``), 1 otherwise, and 2 when the
script refuses to run.  A SIGTERM ends the script as an exit would: the
benchmark run in progress is killed and both snapshots are removed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


class Refused(RuntimeError):
    """The pairs cannot be run as asked."""


def git(root: Path, *args: str, text: bool = True):
    done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=text)
    if done.returncode != 0:
        err = done.stderr if text else done.stderr.decode(errors="replace")
        raise Refused(f"git {' '.join(args)}: {err.strip()}")
    return done.stdout


def unpack(root: Path, commit: str, into: Path) -> None:
    """REV's committed files, as a fresh checkout would have them."""
    with tarfile.open(fileobj=io.BytesIO(git(root, "archive", commit, text=False))) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:  # Python releases before the extraction filters
            archive.extractall(into)


def snapshot(root: Path) -> str:
    """A commit holding the working tree's tracked files, uncommitted edits
    included: ``git stash create``'s, which touches no ref, or HEAD's when
    there is nothing to stash."""
    return git(root, "stash", "create").strip() or git(root, "rev-parse", "HEAD").strip()


def check_same_benchmark(root: Path, commit: str, paths: list[str]) -> None:
    watched = ["BENCHMARK.json", *paths]
    changed = subprocess.run(["git", "diff", "--quiet", commit, "--", *watched], cwd=root)
    untracked = git(root, "ls-files", "--others", "--exclude-standard", "--", *watched)
    if changed.returncode != 0 or untracked.strip():
        raise Refused(f"the benchmark ({', '.join(watched)}) differs between {commit[:12]} "
                      "and the working tree; pairs would compare two benchmarks")


def run_side(side: Path, command: list[str], workload: str, seed: int, seconds,
             trace: int = 0) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(argv, cwd=side, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise Refused(f"{' '.join(argv)} in {side} exited {done.returncode}: "
                      f"{done.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    record = json.loads((side / ".bench_out" / f"{workload}-trace{trace}.json").read_text())
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "python": record["python"],
        "machine": record["machine"],
        "metrics": {name: item["value"] for name, item in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict:
    summary = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [pair["parent"]["metrics"][name] for pair in pairs]
        change = [pair["change"]["metrics"][name] for pair in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        sides = {"parent": spread(parent), "change": spread(change)}
        base = sides["parent"]["median"]
        summary[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            **sides,
            "median_change": (sides["change"]["median"] - base) / base if base else None,
            "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"],
            "change_wins": wins,
            "pairs": len(pairs),
        }
    return summary


def summary_line(name: str, item: dict) -> str:
    """One metric of ``summarise``'s output: both medians, the relative
    change of the median and the pairs in which the change was better,
    marked when the median moved the worse way by more than its bound."""
    change = item["median_change"]
    relative = "n/a" if change is None else f"{change:+.1%}"
    worse = 1 if item["better"] == "lower" else -1  # the sign of a change for the worse
    past = change is not None and worse * change > item["bound"]
    return (f"{name}: parent {item['parent']['median']:.6g}, change {item['change']['median']:.6g} "
            f"({relative}), change better in {item['change_wins']}/{item['pairs']} pairs"
            + (f"; WORSE than its {item['bound']:.0%} bound" if past else ""))


def work_counts(parent: dict, change: dict, per_layer: list[dict]) -> dict:
    """The count metrics of one traced run per side, by metric."""
    return {metric["name"]: {"parent": parent[metric["name"]], "change": change[metric["name"]]}
            for metric in per_layer if metric["unit"] == "count"}


def work_lines(work: dict) -> list[str]:
    """One line per count that differs between the sides."""
    return [f"work {name}: parent {item['parent']}, change {item['change']} "
            f"({item['change'] - item['parent']:+})"
            for name, item in work.items() if item["parent"] != item["change"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # as SystemExit, a kill unwinds: subprocess.run kills its child, the snapshots go
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").strip())
        bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise Refused(f"BENCHMARK.json declares no workload {args.workload!r}")
        parent = git(root, "rev-parse", "--verify", f"{args.parent}^{{commit}}").strip()
        check_same_benchmark(root, parent, bench["paths"])
        head = git(root, "rev-parse", "HEAD").strip()
        dirty = bool(git(root, "status", "--porcelain", "--untracked-files=no").strip())
        pairs = []
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
            sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
            unpack(root, parent, sides["parent"])
            unpack(root, snapshot(root), sides["change"])
            for side in sides.values():  # neither side pays for compiling in a timed run
                subprocess.run([sys.executable, "-m", "compileall", "-q", "src", *bench["paths"]],
                               cwd=side, check=True, capture_output=True)
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for name in order:
                    pair[name] = run_side(sides[name], bench["command"], args.workload, seed,
                                          bench["run_seconds"])
                    print(f"pair {i + 1}/{args.pairs} seed {seed} {name}: "
                          f"correct {pair[name]['correct']} "
                          f"op_p50_ms {pair[name]['metrics'].get('op_p50_ms')}", file=sys.stderr)
                pairs.append(pair)
            traced = {name: run_side(sides[name], bench["command"], args.workload,
                                     args.first_seed, bench["run_seconds"], trace=1)
                      for name in sides}
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2

    first = pairs[0]["parent"]
    report = {
        "workload": args.workload,
        "command": " ".join(["python3", "scripts/bench_pairs.py", *(argv or sys.argv[1:])]),
        "run_command": [*bench["command"], "--workload", args.workload, "--seed", "<seed>",
                        "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        "python": first["python"],
        "machine": first["machine"],
        "parent": {"rev": args.parent, "commit": parent},
        "change": {"commit": head, "uncommitted_changes": dirty},
        "all_correct": all(run["correct"] for run in (
            *(pair[side] for pair in pairs for side in ("parent", "change")), *traced.values())),
        "summary": summarise(pairs, bench["end_to_end"]),
        "work_command": [*bench["command"], "--workload", args.workload,
                         "--seed", str(args.first_seed), "--seconds", str(bench["run_seconds"]),
                         "--trace", "1"],
        "work": work_counts(traced["parent"]["metrics"], traced["change"]["metrics"],
                            bench["per_layer"]),
        "pairs": pairs,
    }
    out = root / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    for name, item in report["summary"].items():
        print(summary_line(name, item), file=sys.stderr)
    for line in work_lines(report["work"]):
        print(line, file=sys.stderr)
    return 0 if report["all_correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
