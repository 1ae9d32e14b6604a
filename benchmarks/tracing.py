"""Span tracing of negsphere's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of every layer (see
``public_callables``) at every site that holds it: the defining module,
every package module that imported it by name (``search.build_tree``,
``cli.best_sphere``, ...) and the package root.  Methods are replaced on
their class.  ``uninstall`` puts every original back.  Nothing under
``src/`` is edited.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out by ``dump``.  A layer's self time is the duration of its spans
minus the part covered by their child spans.  A call from a layer into
its own layer is counted but not spanned, since its time is the layer's
either way; only calls that cross layers open spans.  ``fibers.fiber`` is
called hundreds of thousands of times per run, so it is counted, not
spanned, and its time is its caller's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

PACKAGE = "negsphere"
LAYERS = ("sl2z", "fibers", "fibration", "plumbing", "search", "verify", "cli")

# looked up hundreds of thousands of times per run: counted, not spanned
COUNTED = {"fibers.fiber"}
# the per-letter product inside word_to_matrix, a million calls per run; called
# from outside sl2z only by two verify checks, so it is left unwrapped
UNWRAPPED = {"sl2z.compose"}
# spanned even when called from their own layer, because a metric reads their spans
NESTED = {"search.replay_plan"}

BENCH_SPAN = "bench.run"


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def public_callables(layer: str):
    """(span name, owner, attribute, function) of every public function of a layer.

    Public means a name without a leading underscore defined in the layer's
    own module: module-level functions, and the plain methods, classmethods
    and staticmethods of its classes.  Properties and constructors are not
    wrapped, so their time is the caller's.
    """
    module = sys.modules[f"{PACKAGE}.{layer}"]
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield f"{layer}.{name}", module, name, value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    yield f"{layer}.{name}.{attr}", value, attr, member.__func__
                elif inspect.isfunction(member):
                    yield f"{layer}.{name}.{attr}", value, attr, member


class Tracer:
    """Records spans and counts for one benchmark run.  Not thread-safe."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._layer_of: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.patches: list[tuple[object, str, object]] = []
        self.paused = False
        self.layers: list[str] = []
        self.counts: Counter = Counter()
        self.reset()

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        """Drop every span and count recorded so far."""
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.stack: list[int] = []
        self.layers.clear()  # layer of each open span; wrappers hold this list
        self.counts.clear()  # wrappers hold this counter

    def _name_id(self, span_name: str) -> int:
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
            self._layer_of.append(_layer(span_name))
        return self._name_ids[span_name]

    def open(self, span_name: str) -> int:
        index = len(self.start)
        name_id = self._name_id(span_name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(index)
        self.layers.append(self._layer_of[name_id])
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()
        self.layers.pop()

    def _error(self, layer: str) -> None:
        # an exception counts once per layer it leaves, not once per frame
        if not self.layers or self.layers[-1] != layer:
            self.counts[f"{layer}.errors"] += 1

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, span_name: str, fn):
        tracer = self
        layer = _layer(span_name)
        calls = f"{span_name}.calls"
        on_return = _ON_RETURN.get(span_name)
        nested = span_name in NESTED
        counts, layers = self.counts, self.layers

        if inspect.isgeneratorfunction(fn):
            yielded = f"{span_name}.yielded"

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if tracer.paused:
                    yield from fn(*args, **kwargs)
                    return
                tracer.counts[calls] += 1
                inner = fn(*args, **kwargs)
                while True:
                    index = tracer.open(span_name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.close(index)
                        return
                    except BaseException:
                        tracer.close(index)
                        tracer._error(layer)
                        raise
                    tracer.close(index)
                    tracer.counts[yielded] += 1
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            counts[calls] += 1
            if layers and layers[-1] == layer and not nested:
                # a call from within the layer: its time is the layer's already
                result = fn(*args, **kwargs)
            else:
                index = tracer.open(span_name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer.close(index)
                    tracer._error(layer)
                    raise
                tracer.close(index)
            if on_return is not None:
                on_return(counts, args, result)
            return result

        return wrapper

    def _count_wrapper(self, count_name: str, fn):
        tracer = self
        layer = _layer(count_name)
        calls = f"{count_name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.paused:
                tracer.counts[calls] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if not tracer.paused:
                    tracer._error(layer)
                raise

        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        """Replace every public function at every site that holds it."""
        if self.patches:
            raise RuntimeError("tracer already installed")
        prefix = PACKAGE + "."
        sites = [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == PACKAGE or key.startswith(prefix))
        ]
        for layer in LAYERS:
            for span_name, owner, attr, fn in list(public_callables(layer)):
                if span_name in UNWRAPPED:
                    continue
                make = self._count_wrapper if span_name in COUNTED else self._span_wrapper
                wrapper = make(span_name, fn)
                if isinstance(owner, type):
                    member = vars(owner)[attr]
                    if isinstance(member, (classmethod, staticmethod)):
                        wrapper = type(member)(wrapper)
                    self._patch(owner, attr, wrapper)
                    continue
                # the defining module and every module that imported the name
                for site in sites:
                    for key, value in list(vars(site).items()):
                        if value is fn:
                            self._patch(site, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original function, in reverse order of patching."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer (plus ``bench``): span minus its children."""
        count = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        child = array("d", bytes(8 * count))
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        layer_of = [_layer(n) for n in self.names]
        totals = dict.fromkeys(LAYERS + ("bench",), 0.0)
        name = self.name
        for i in range(count):
            totals[layer_of[name[i]]] += end[i] - start[i] - child[i]
        return totals

    def span_seconds(self, span_name: str, parent_name: str | None = None) -> float:
        """Summed duration of a span name, optionally only under a given parent name."""
        if span_name not in self._name_ids:
            return 0.0
        target = self._name_ids[span_name]
        want = self._name_ids.get(parent_name, -2) if parent_name else None
        total = 0.0
        for i in range(len(self.start)):
            if self.name[i] != target:
                continue
            if want is not None and (self.parent[i] < 0 or self.name[self.parent[i]] != want):
                continue
            total += self.end[i] - self.start[i]
        return total

    def dump(self, stem: Path, meta: dict) -> None:
        """Write the spans: ``stem.bin`` holds the raw arrays, ``stem.json`` says how to read them."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        arrays = (("start", self.start), ("end", self.end), ("name", self.name), ("parent", self.parent))
        with open(stem.with_suffix(".bin"), "wb") as handle:
            for _, data in arrays:
                data.tofile(handle)
        header = dict(meta)
        header.update(
            spans=len(self.start),
            names=self.names,
            arrays=[{"field": field, "typecode": data.typecode, "itemsize": data.itemsize}
                    for field, data in arrays],
            layout="arrays stored one after another, native byte order; parent -1 = root",
        )
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n", encoding="utf-8")


def _count_letters(counts, args, result) -> None:
    counts["sl2z.letters"] += len(args[0])


def _count_tree_vertices(counts, args, result) -> None:
    counts["fibration.build_tree.vertices"] += result[0].vertex_count


def _count_copied(counts, args, result) -> None:
    # every rewrite copies the whole input graph before changing it
    counts["plumbing.vertices_copied"] += args[0].vertex_count


_ON_RETURN = {
    "sl2z.word_to_matrix": _count_letters,
    "fibration.build_tree": _count_tree_vertices,
    "plumbing.PlumbingGraph.blow_up_edge": _count_copied,
    "plumbing.PlumbingGraph.blow_up_point_on_vertex": _count_copied,
}

# per-layer metric -> counter, where the span name is not the metric's stem
_CALLS = {
    "plumbing.blow_up_edge.calls": "plumbing.PlumbingGraph.blow_up_edge.calls",
    "plumbing.blow_up_point.calls": "plumbing.PlumbingGraph.blow_up_point_on_vertex.calls",
    "plumbing.smooth.calls": "plumbing.PlumbingGraph.smooth.calls",
    "plumbing.two_coloring.calls": "plumbing.PlumbingGraph.two_coloring.calls",
}


def layer_metrics(tracer: Tracer, wall_s: float, overhead_share: float) -> dict[str, float]:
    """Every per-layer metric of the benchmark from one traced run."""
    counts = tracer.counts
    self_s = tracer.self_times()
    searches = counts["search.best_sphere.calls"]
    specs = counts["search.enumerate_specs.yielded"]
    search_time = tracer.span_seconds("search.best_sphere")
    replay_time = tracer.span_seconds("search.replay_plan", "search.best_sphere")
    metrics = {
        "sl2z.word_to_matrix.calls": counts["sl2z.word_to_matrix.calls"],
        "sl2z.letters": counts["sl2z.letters"],
        "sl2z.letters_per_search": counts["sl2z.letters"] / searches if searches else 0.0,
        "fibers.fiber.calls": counts["fibers.fiber.calls"],
        "fibration.validate.calls": counts["fibration.validate.calls"],
        "fibration.reference_decomposition.calls": counts["fibration.reference_decomposition.calls"],
        "fibration.validate_per_spec": counts["fibration.validate.calls"] / specs if specs else 0.0,
        "fibration.build_tree.calls": counts["fibration.build_tree.calls"],
        "fibration.build_tree.vertices": counts["fibration.build_tree.vertices"],
        "plumbing.vertices_copied": counts["plumbing.vertices_copied"],
        "plumbing.oracle_square.calls": counts["plumbing.oracle_square.calls"],
        "search.best_sphere.calls": searches,
        "search.enumerate_specs.yielded": specs,
        "search.replay_plan.calls": counts["search.replay_plan.calls"],
        "search.replay_share": replay_time / search_time if search_time else 0.0,
        "cli.main.calls": counts["cli.main.calls"],
    }
    metrics.update((metric, counts[counter]) for metric, counter in _CALLS.items())
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.errors"] = counts[f"{layer}.errors"]
    metrics["bench.self_s"] = self_s["bench"]
    metrics["trace.wall_s"] = wall_s
    metrics["trace.overhead_share"] = overhead_share
    return metrics
