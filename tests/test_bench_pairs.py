"""The paired benchmark script's summary, its working-tree snapshot and its
end under SIGTERM, without running the real benchmark."""

import contextlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_END_TO_END = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
               {"name": "op_p50_ms", "better": "lower", "bound": 0.25}]


def _pairs(parent, change):
    return [{"parent": {"metrics": p}, "change": {"metrics": c}} for p, c in zip(parent, change)]


def test_summarise_takes_medians_quartiles_and_wins_by_each_metric_direction():
    pairs = _pairs([{"ops_per_s": 100, "op_p50_ms": 2.0}, {"ops_per_s": 110, "op_p50_ms": 2.2},
                    {"ops_per_s": 120, "op_p50_ms": 1.0}],
                   [{"ops_per_s": 130, "op_p50_ms": 1.5}, {"ops_per_s": 105, "op_p50_ms": 1.8},
                    {"ops_per_s": 150, "op_p50_ms": 1.2}])
    summary = bench_pairs.summarise(pairs, _END_TO_END)
    ops, p50 = summary["ops_per_s"], summary["op_p50_ms"]
    assert ops["parent"] == {"median": 110, "q1": 105, "q3": 115}
    assert ops["change"]["median"] == 130 and ops["median_change"] == pytest.approx(20 / 110)
    assert ops["parent_iqr"] == 10
    assert (ops["change_wins"], ops["pairs"]) == (2, 3)  # higher is better
    assert (p50["change_wins"], p50["pairs"]) == (2, 3)  # lower is better
    assert p50["median_change"] == pytest.approx(-0.25)
    assert bench_pairs.summary_line("ops_per_s", ops) == (
        "ops_per_s: parent 110, change 130 (+18.2%), change better in 2/3 pairs")
    assert bench_pairs.summary_line("op_p50_ms", p50) == (
        "op_p50_ms: parent 2, change 1.5 (-25.0%), change better in 2/3 pairs")


def test_summary_line_of_a_zero_parent_median_has_no_relative_change():
    summary = bench_pairs.summarise(_pairs([{"ops_per_s": 0}], [{"ops_per_s": 3}]), _END_TO_END[:1])
    assert summary["ops_per_s"]["median_change"] is None
    assert bench_pairs.summary_line("ops_per_s", summary["ops_per_s"]) == (
        "ops_per_s: parent 0, change 3 (n/a), change better in 1/1 pairs")


def test_summary_line_marks_a_median_moved_the_worse_way_past_its_bound():
    # ops_per_s is higher-better, op_p50_ms lower-better; both bounds are 25%
    parent = {"ops_per_s": 100, "op_p50_ms": 2.0}
    summary = bench_pairs.summarise(
        _pairs([parent] * 3, [{"ops_per_s": 70, "op_p50_ms": 2.6}] * 3), _END_TO_END)
    assert bench_pairs.summary_line("ops_per_s", summary["ops_per_s"]) == (
        "ops_per_s: parent 100, change 70 (-30.0%), change better in 0/3 pairs; "
        "WORSE than its 25% bound")
    assert bench_pairs.summary_line("op_p50_ms", summary["op_p50_ms"]).endswith(
        "(+30.0%), change better in 0/3 pairs; WORSE than its 25% bound")
    # within the bound, or past it the better way, no mark
    for change in ({"ops_per_s": 80, "op_p50_ms": 2.4}, {"ops_per_s": 200, "op_p50_ms": 1.0}):
        summary = bench_pairs.summarise(_pairs([parent], [change]), _END_TO_END)
        for name, item in summary.items():
            assert "WORSE" not in bench_pairs.summary_line(name, item)


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid",
                    *args], cwd=repo, check=True, capture_output=True)


def test_the_change_side_snapshot_holds_uncommitted_edits_of_tracked_files(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "kept.txt").write_text("committed\n")
    (repo / "edited.txt").write_text("committed\n")
    _git(repo, "add", "kept.txt", "edited.txt")
    _git(repo, "commit", "-q", "-m", "first")

    clean = bench_pairs.snapshot(repo)
    assert clean == bench_pairs.git(repo, "rev-parse", "HEAD").strip()

    (repo / "edited.txt").write_text("edited, not committed\n")
    (repo / "untracked.txt").write_text("never added\n")
    bench_pairs.unpack(repo, bench_pairs.snapshot(repo), tmp_path / "change")
    assert (tmp_path / "change" / "edited.txt").read_text() == "edited, not committed\n"
    assert (tmp_path / "change" / "kept.txt").read_text() == "committed\n"
    assert not (tmp_path / "change" / "untracked.txt").exists()
    # taking the snapshot leaves the working tree and the stash alone
    assert (repo / "edited.txt").read_text() == "edited, not committed\n"
    assert bench_pairs.git(repo, "stash", "list") == ""


def test_work_keeps_each_sides_count_metrics_and_names_each_count_that_differs():
    per_layer = [{"name": "search.enumerate_specs.yielded", "unit": "count"},
                 {"name": "fibers.fiber.calls", "unit": "count"},
                 {"name": "plumbing.vertices_copied", "unit": "count"},
                 {"name": "search.self_s", "unit": "s"}]
    parent = {"search.enumerate_specs.yielded": 12681, "fibers.fiber.calls": 80,
              "plumbing.vertices_copied": 500, "search.self_s": 0.5}
    change = {**parent, "plumbing.vertices_copied": 450, "search.self_s": 0.25}
    work = bench_pairs.work_counts(parent, change, per_layer)
    assert work == {"search.enumerate_specs.yielded": {"parent": 12681, "change": 12681},
                    "fibers.fiber.calls": {"parent": 80, "change": 80},
                    "plumbing.vertices_copied": {"parent": 500, "change": 450}}
    assert bench_pairs.work_lines(work) == [
        "work plumbing.vertices_copied: parent 500, change 450 (-50)"]
    assert bench_pairs.work_lines(bench_pairs.work_counts(parent, parent, per_layer)) == []


def test_a_terminated_run_kills_its_benchmark_and_removes_its_snapshots(tmp_path):
    repo, tmp, pid_file = tmp_path / "repo", tmp_path / "tmp", tmp_path / "child.pid"
    for directory in (repo / "src", repo / "bench", tmp):
        directory.mkdir(parents=True)
    (repo / "src" / "keep.py").write_text("")
    (repo / "bench" / "keep.py").write_text("")
    sleeper = (f"import os, time; open({str(pid_file)!r}, 'w').write(str(os.getpid())); "
               "time.sleep(60)")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "-c", sleeper], "paths": ["bench"], "run_seconds": 1,
        "workloads": [{"name": "sleep"}], "end_to_end": [], "per_layer": []}))
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "first")

    script = subprocess.Popen(
        [sys.executable, str(_PATH), "--parent", "HEAD", "--workload", "sleep", "--pairs", "1",
         "--first-seed", "0"],
        cwd=repo, env={**os.environ, "TMPDIR": str(tmp)},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (pid_file.exists() and pid_file.read_text()):  # the benchmark has started
            assert script.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        script.send_signal(signal.SIGTERM)
        assert script.wait(timeout=30) == 128 + signal.SIGTERM
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid_file.read_text()), 0)  # killed and reaped by the script
        assert list(tmp.glob("bench-pairs-*")) == []
    finally:  # a failure leaves neither process running
        script.kill()
        script.wait()
        if pid_file.exists() and pid_file.read_text():
            with contextlib.suppress(ProcessLookupError):
                os.kill(int(pid_file.read_text()), signal.SIGKILL)
