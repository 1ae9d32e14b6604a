"""The four seeded workloads of the negsphere benchmark.

Every workload is a closed loop with one caller: the next call starts when
the previous one has returned and been checked.  Inputs are pure functions
of the seed (``*_passes``); the program only ever sees the generated
values.  Searches run single-process (``threads=1``) over the default
fiber set: the process pool and ``--extended-fibers`` are not exercised.

A workload runs in passes.  ``run_pass`` calls the program, times each
operation, checks every output and adds to a ``Record``.  Benchmark-side
checks run outside the timed regions, and under tracing they run paused,
so their time is the benchmark's own.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import random
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from time import perf_counter

GRID_N = range(2, 31)  # the guard grid of best_sphere: n <= 30, k <= 50
GRID_K = range(0, 51)
ANCHORS = {(2, 0): -86, (2, 1): -92, (6, 1): -269, (6, 3): -279}

SPEC_N = range(2, 10)
# default fiber set in canonical order (strictly descending Euler number)
DEFAULT_EULER = (("E8t", 10), ("E6t", 8), ("I0star", 6), ("IV", 4), ("II_cusp", 2))

SWEEP_EXHAUSTIVE_MAX = 6
SWEEP_RANDOM_TREES = 400
SWEEP_RANDOM_MAX = 40
SWEEP_WEIGHTS = (-9, -1)

SESSION_SMALL_ROUNDS = 8  # seeded (formula, search, build) triples per session
CONJECTURE_ROWS = 11 * 11  # default grid n <= 12, k <= 10


PERCENTILES = (50, 90, 95)


class Latencies:
    """Per-operation latencies, summarised block by block.

    Each block of ``size`` consecutive operations gives its own
    percentiles, and a run reports their mean over blocks.  On a shared
    machine whose speed changes in phases of seconds, a percentile of the
    pooled sample jumps from one phase's value to the other's as their
    shares shift; the mean over blocks moves smoothly between them.  A
    trailing partial block is left out.  Memory stays flat however many
    operations a run makes.
    """

    def __init__(self, size: int = 200) -> None:
        self.size = size
        self.block: list[float] = []
        self.blocks: dict[int, list[float]] = {p: [] for p in PERCENTILES}
        self.count = 0  # operations in closed blocks

    def add(self, seconds: float) -> None:
        self.block.append(seconds)
        if len(self.block) == self.size:
            self._close_block()

    def _close_block(self) -> None:
        cuts = statistics.quantiles(self.block, n=100, method="inclusive")
        for p in PERCENTILES:
            self.blocks[p].append(cuts[p - 1])
        self.count += len(self.block)
        self.block = []

    def mean(self, p: int) -> float:
        """Mean over blocks of the p-th percentile; a run too short for one
        whole block uses what it has."""
        if not self.blocks[p] and len(self.block) >= 2:
            self._close_block()
        return statistics.fmean(self.blocks[p])


@dataclass
class Record:
    """What the passes of one run measured and checked."""

    latencies: Latencies = field(default_factory=Latencies)  # seconds per timed operation
    ops: int = 0  # operations counted by ops_per_s
    busy_s: float = 0.0  # program time spent on those operations
    attempted: int = 0  # checked items: searches, drains, trees, commands
    failed: int = 0
    named: dict[str, list[float]] = field(default_factory=dict)  # extra timings by name
    problems: list[str] = field(default_factory=list)  # first few failures, for the log

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)


class Checks:
    """Runs benchmark-side checks with the tracer (if any) paused."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer

    @contextlib.contextmanager
    def paused(self):
        if self.tracer is None:
            yield
            return
        before = self.tracer.paused
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = before


# -- search-grid -----------------------------------------------------------------


def search_grid_passes(seed: int) -> list[list[tuple[int, int]]]:
    """The whole guard grid, drawn without replacement in 51 rounds.

    Each n gets its own shuffled k order, and every round takes the next k
    of every n in a shuffled n order, so any prefix of rounds samples every
    n equally.  Each pair occurs once per run.
    """
    rng = random.Random(seed)
    k_orders = {}
    for n in GRID_N:
        ks = list(GRID_K)
        rng.shuffle(ks)
        k_orders[n] = ks
    rounds = []
    for r in range(len(GRID_K)):
        ns = list(GRID_N)
        rng.shuffle(ns)
        rounds.append([(n, k_orders[n][r]) for n in ns])
    return rounds


def search_grid_warm_up(ns, checks: Checks) -> None:
    # pairs just outside the guard grid, so no measured pair runs twice
    for n, k in ((31, 51), (32, 0), (33, 7)):
        ns.best_sphere(n, k, max_n=n, max_k=k)


class SearchChecker:
    """Re-derives a search result independently of ``best_sphere``."""

    def __init__(self, ns) -> None:
        self.ns = ns
        self._reference = {}

    def guarantee(self, n: int, k: int) -> int:
        if n not in self._reference:
            self._reference[n] = self.ns.blowup_guarantee(n, 0)
        return self._reference[n] - 5 * k

    def problems(self, n: int, k: int, result) -> list[str]:
        ns = self.ns
        out = []
        graph = ns.replay_plan(result.spec, result.plan, k=k)
        smooth = graph.smooth()
        oracle = ns.oracle_square(graph, graph.two_coloring())
        if not smooth == oracle == result.best_square:
            out.append(f"replay {smooth}, oracle {oracle}, reported {result.best_square}")
        if result.best_square > self.guarantee(n, k):
            out.append(f"{result.best_square} above guarantee {self.guarantee(n, k)}")
        if result.ratio != Fraction(result.best_square, 12 * n - 2 + k):
            out.append(f"ratio {result.ratio} != {result.best_square}/{12 * n - 2 + k}")
        if (n, k) in ANCHORS and result.best_square > ANCHORS[(n, k)]:
            out.append(f"anchor {ANCHORS[(n, k)]} not reached: {result.best_square}")
        return out


def run_search_pass(ns, pairs, rec: Record, checks: Checks, state: dict) -> None:
    if "checker" not in state:
        state["checker"] = SearchChecker(ns)
    checker = state["checker"]
    pass_busy = 0.0
    for n, k in pairs:
        problems = []
        start = perf_counter()
        try:
            result = ns.best_sphere(n, k)
        except Exception as exc:  # a crash is a failed operation, not an abort
            result, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        elapsed = perf_counter() - start
        rec.latencies.add(elapsed)
        pass_busy += elapsed
        if result is not None:
            with checks.paused():
                try:
                    problems = checker.problems(n, k, result)
                except Exception as exc:
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
        rec.check(not problems, f"best_sphere({n}, {k}): {'; '.join(problems)}")
    rec.ops += len(pairs)
    rec.busy_s += pass_busy


# -- enumerate-specs ---------------------------------------------------------------


def enumerate_specs_passes(seed: int):
    """Endless passes, each every n in 2..9 in a freshly shuffled order."""
    rng = random.Random(seed)
    while True:
        order = list(SPEC_N)
        rng.shuffle(order)
        yield order


def enumerate_specs_warm_up(ns, checks: Checks) -> None:
    for n in (2, 3, 4):
        for _ in ns.enumerate_specs(n):
            pass


def spec_count(n: int) -> int:
    """Solutions of 10a + 8b + 6c + 4d + 2e = 12n in non-negative integers."""
    total = 12 * n
    ways = [1] + [0] * total
    for _, euler in DEFAULT_EULER:
        for value in range(euler, total + 1):
            ways[value] += ways[value - euler]
    return ways[total]


def spec_problems(n: int, specs) -> list[str]:
    """Count, distinctness, canonical order and Euler sum of one drain."""
    euler = dict(DEFAULT_EULER)
    rank = {name: i for i, (name, _) in enumerate(DEFAULT_EULER)}
    out = []
    if len(specs) != spec_count(n):
        out.append(f"{len(specs)} specs, expected {spec_count(n)}")
    previous = None
    seen = set()
    for spec in specs:
        if spec.n != n or any(name not in euler for name in spec.fibers):
            out.append(f"unexpected spec {spec}")
            break
        if sum(euler[name] for name in spec.fibers) != 12 * n:
            out.append(f"Euler sum of {spec.fibers} is not {12 * n}")
        ranks = [rank[name] for name in spec.fibers]
        if ranks != sorted(ranks):
            out.append(f"fibers not in canonical order: {spec.fibers}")
        # documented order: count vectors in descending lexicographic order
        counts = tuple(-spec.fibers.count(name) for name, _ in DEFAULT_EULER)
        if previous is not None and counts <= previous:
            out.append(f"spec {spec.fibers} out of order")
        previous = counts
        seen.add(spec.fibers)
    if len(seen) != len(specs):
        out.append(f"{len(specs) - len(seen)} duplicate specs")
    return out[:3]


def run_enumerate_pass(ns, order, rec: Record, checks: Checks, state: dict) -> None:
    pass_busy = 0.0
    for n in order:
        specs = []
        problems = []
        start = perf_counter()
        try:
            specs_iter = ns.enumerate_specs(n)
            while True:
                before = perf_counter()
                try:
                    spec = next(specs_iter)
                except StopIteration:
                    break
                rec.latencies.add(perf_counter() - before)
                specs.append(spec)
        except Exception as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        pass_busy += perf_counter() - start
        rec.ops += len(specs)
        if not problems:
            with checks.paused():
                problems = spec_problems(n, specs)
        rec.check(not problems, f"enumerate_specs({n}): {'; '.join(problems)}")
    rec.busy_s += pass_busy


# -- rewrite-sweep -------------------------------------------------------------------


def prufer_edges(seq, n: int) -> tuple[tuple[int, int], ...]:
    """Edges of the labeled tree on n >= 2 vertices with this Prufer sequence."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return tuple(edges)


def labeled_tree_shapes(max_vertices: int) -> list[tuple[int, tuple]]:
    """(vertex count, edges) of every labeled tree on 1..max_vertices vertices."""
    shapes = [(1, ())]
    for n in range(2, max_vertices + 1):
        shapes.extend((n, prufer_edges(seq, n)) for seq in product(range(n), repeat=n - 2))
    return shapes


def rewrite_sweep_passes(seed: int):
    """Endless passes: every labeled tree on <= 6 vertices plus 400 random
    trees on 1..40 vertices, all with fresh weights in -9..-1."""
    rng = random.Random(seed)
    shapes = labeled_tree_shapes(SWEEP_EXHAUSTIVE_MAX)
    lo, hi = SWEEP_WEIGHTS
    while True:
        trees = [(tuple(rng.randint(lo, hi) for _ in range(n)), edges) for n, edges in shapes]
        for _ in range(SWEEP_RANDOM_TREES):
            n = rng.randint(1, SWEEP_RANDOM_MAX)
            edges = () if n == 1 else prufer_edges([rng.randrange(n) for _ in range(n - 2)], n)
            trees.append((tuple(rng.randint(lo, hi) for _ in range(n)), edges))
        yield trees


def rewrite_sweep_warm_up(ns, checks: Checks) -> None:
    rec = Record()
    trees = next(rewrite_sweep_passes(-1))[-50:]
    run_rewrite_pass(ns, trees, rec, checks, {})


def run_rewrite_pass(ns, trees, rec: Record, checks: Checks, state: dict) -> None:
    pass_busy = 0.0
    latencies = rec.latencies.add
    for weights, edges in trees:
        graph = ns.PlumbingGraph.from_weights(weights, edges)
        expected = sum(weights) - 2 * len(edges)
        problems = []
        try:
            start = perf_counter()
            base = graph.smooth()
            oracle = ns.oracle_square(graph, graph.two_coloring())
            pass_busy += perf_counter() - start
            if not base == oracle == expected:
                problems.append(f"smooth {base}, oracle {oracle}, expected {expected}")
            for edge in edges:
                start = perf_counter()
                value = graph.blow_up_edge(edge).smooth()
                elapsed = perf_counter() - start
                latencies(elapsed)
                pass_busy += elapsed
                if value != base - 5:
                    problems.append(f"edge {edge}: {value}, expected {base - 5}")
            for vertex in range(len(weights)):
                start = perf_counter()
                value = graph.blow_up_point_on_vertex(vertex).smooth()
                elapsed = perf_counter() - start
                latencies(elapsed)
                pass_busy += elapsed
                if value != base - 4:
                    problems.append(f"point {vertex}: {value}, expected {base - 4}")
        except Exception as exc:
            problems.append(f"raised {type(exc).__name__}: {exc}")
        rec.ops += len(edges) + len(weights)
        rec.check(not problems, f"tree {weights} {edges}: {'; '.join(problems[:2])}")
    rec.busy_s += pass_busy


# -- paper-session ---------------------------------------------------------------------


def paper_session_passes(seed: int):
    """Endless sessions: verify-paper, the default conjecture grid, then
    eight seeded (formula n, search n k, build of that search) triples."""
    rng = random.Random(seed)
    while True:
        small = [(rng.choice(GRID_N), rng.choice(GRID_K)) for _ in range(SESSION_SMALL_ROUNDS)]
        yield [("verify-paper",), ("conjecture",)] + [("small", n, k) for n, k in small]


def paper_session_warm_up(ns, checks: Checks) -> None:
    for argv in (["formula", "3"], ["search", "3", "2", "--json"]):
        _call_cli(ns, argv)


def _call_cli(ns, argv) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = ns.cli.main(argv)
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def _dot_ok(path: Path) -> bool:
    return path.is_file() and path.read_text(encoding="utf-8").startswith("graph ")


class Session:
    """One paper session's CLI calls and their checks."""

    def __init__(self, ns, rec: Record, checks: Checks, workdir: Path) -> None:
        self.ns, self.rec, self.checks, self.workdir = ns, rec, checks, workdir
        self.busy = 0.0

    def call(self, argv, name: str | None = None, small: bool = False):
        try:
            code, out, err, elapsed = _call_cli(self.ns, argv)
        except Exception as exc:
            self.rec.check(False, f"{' '.join(argv)} raised {type(exc).__name__}: {exc}")
            return None
        self.busy += elapsed
        self.rec.ops += 1
        if small:
            self.rec.latencies.add(elapsed)
        if name:
            self.rec.named.setdefault(name, []).append(elapsed)
        if code != 0:
            self.rec.check(False, f"{' '.join(argv)} exited {code}: {err.strip()}")
            return None
        try:
            return json.loads(out) if "--json" in argv else out
        except json.JSONDecodeError:
            self.rec.check(False, f"{' '.join(argv)} printed no JSON")
            return None

    def verify_paper(self) -> None:
        report = self.call(["verify-paper", "--json"], name="verify_paper_s")
        if report is not None:
            ok = report["all_passed"] is True and all(item["passed"] for item in report["items"])
            self.rec.check(ok, "verify-paper: not all checks passed")

    def conjecture(self) -> None:
        grid = self.call(["conjecture", "--json"], name="conjecture_grid_s")
        if grid is not None:
            ok = (grid["violations"] == 0 and len(grid["rows"]) == CONJECTURE_ROWS
                  and all(row["satisfies"] for row in grid["rows"]))
            self.rec.check(ok, f"conjecture: {grid['violations']} violations")

    def small(self, n: int, k: int) -> None:
        formula = self.call(["formula", str(n), "--json"], small=True)
        if formula is not None:
            with self.checks.paused():
                ok = (formula["construction"] == self.ns.construction_square(n)
                      and formula["agree"] == (n % 5 != 0))
            self.rec.check(ok, f"formula {n}: {formula}")
        search_dot = self.workdir / "search.dot"
        found = self.call(["search", str(n), str(k), "--json", "--dot", str(search_dot)], small=True)
        if found is None:
            return
        ok = found["n"] == n and found["k"] == k and found["satisfies_candidate_bound"] is True
        self.rec.check(ok and _dot_ok(search_dot), f"search {n} {k}: {found.get('best_square')}")
        spec_file, plan_file = self.workdir / "spec.json", self.workdir / "plan.json"
        spec_file.write_text(json.dumps(found["spec"]), encoding="utf-8")
        plan_file.write_text(json.dumps(found["plan"]), encoding="utf-8")
        build_dot = self.workdir / "build.dot"
        built = self.call(["build", str(spec_file), "--plan", str(plan_file), "--json",
                           "--dot", str(build_dot)], small=True)
        if built is not None:
            ok = (built["smooth"] == built["oracle"] == found["best_square"]
                  and built["blowups_used"] == k and _dot_ok(build_dot))
            self.rec.check(ok, f"build of search {n} {k}: {built['smooth']} vs {found['best_square']}")


def run_session_pass(ns, commands, rec: Record, checks: Checks, state: dict) -> None:
    session = Session(ns, rec, checks, state["workdir"])
    for command in commands:
        if command[0] == "verify-paper":
            session.verify_paper()
        elif command[0] == "conjecture":
            session.conjecture()
        else:
            session.small(command[1], command[2])
    rec.busy_s += session.busy


@dataclass(frozen=True)
class Workload:
    name: str
    passes: Callable  # seed -> pass inputs: a list when finite, else an endless generator
    warm_up: Callable  # (ns, checks) -> None
    run_pass: Callable  # (ns, pass input, Record, Checks, state) -> None
    op: str  # what ops_per_s and the latency percentiles count
    block: int  # operations per latency block, >= 200 so p95 has 10 samples above it
    trace_passes: int  # passes of a traced run: a fixed amount of work


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search-grid", search_grid_passes, search_grid_warm_up, run_search_pass,
                 "best_sphere call", 7 * len(GRID_N), 17),
        Workload("enumerate-specs", enumerate_specs_passes, enumerate_specs_warm_up,
                 run_enumerate_pass, "spec yielded", 1000, 1),
        Workload("rewrite-sweep", rewrite_sweep_passes, rewrite_sweep_warm_up, run_rewrite_pass,
                 "blow-up plus smooth", 1000, 6),
        Workload("paper-session", paper_session_passes, paper_session_warm_up, run_session_pass,
                 "CLI command", 10 * 3 * SESSION_SMALL_ROUNDS, 8),
    )
}
