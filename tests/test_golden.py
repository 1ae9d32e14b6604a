"""Golden corpus: sha256 digests of every search on the guard grid and of the
CLI's JSON and DOT outputs, checked against ``tests/golden.sha256``.

A digest changes when any byte of its output does: a label, a flag, a trace
record or its key order.  So a change that claims to leave results alone
must leave this file alone.  To regenerate it after a deliberate change of
output, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py

It rewrites the file and prints, one a line, each entry it added, removed
or changed compared with the file as it was, for the change's notes.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from negsphere.cli import main
from negsphere.fibers import FIBER_ORDER
from negsphere.search import MAX_K, MAX_N, best_sphere, enumerate_specs

from treegen import random_tree_graph

GOLDEN = Path(__file__).with_name("golden.sha256")


def _search_digest(n: int) -> str:
    """One digest over best_sphere(n, k) for k = 0..MAX_K: the result's JSON,
    its graph's JSON (key order kept) and its graph's DOT."""
    digest = hashlib.sha256()
    for k in range(MAX_K + 1):
        result = best_sphere(n, k)
        for text in (json.dumps(result.to_json_dict()), json.dumps(result.graph.to_json_dict()),
                     result.graph.to_dot()):
            digest.update(text.encode())
            digest.update(b"\0")
    return digest.hexdigest()


def _rewrite_digest() -> str:
    """One digest over 300 seeded random chains of up to 20 blow-ups on trees
    of up to 12 vertices: the JSON (key order kept), DOT and repr of each
    chain's last graph and of a random quarter of the graphs before it.
    Searches never spend a point blow-up, so only this entry covers them."""
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for _ in range(300):
        g = random_tree_graph(rng, max_vertices=12)
        steps = rng.randint(1, 20)
        for step in range(steps):
            if g.edges and rng.random() < 0.5:
                g = g.blow_up_edge(rng.choice(g.edges))
            else:
                g = g.blow_up_point_on_vertex(rng.randrange(g.vertex_count))
            if step == steps - 1 or rng.random() < 0.25:
                for text in (json.dumps(g.to_json_dict()), g.to_dot(), repr(g)):
                    digest.update(text.encode())
                    digest.update(b"\0")
    return digest.hexdigest()


def _extended_specs_digest() -> str:
    """One digest over enumerate_specs(n) for n = 2..4 over every catalog
    type: each spec's JSON, provenance included, in the order yielded."""
    digest = hashlib.sha256()
    for n in range(2, 5):
        for spec in enumerate_specs(n, FIBER_ORDER):
            digest.update(json.dumps(spec.to_json_dict()).encode())
            digest.update(b"\0")
    return digest.hexdigest()


def _cli_digest(workdir: Path, *argv: str) -> str:
    """Digest of the command's exit code, stdout and DOT file (when it writes one)."""
    dot = workdir / "out.dot"
    dot.unlink(missing_ok=True)
    out = io.StringIO()
    with redirect_stdout(out):
        # every --dot writes to the one scratch file
        code = main([arg for a in argv for arg in ((a, str(dot)) if a == "--dot" else (a,))])
    text = f"{code}\0{out.getvalue()}\0{dot.read_text() if dot.exists() else ''}"
    return hashlib.sha256(text.encode()).hexdigest()


def corpus() -> dict[str, str]:
    """Name -> digest, in file order."""
    entries = {f"best_sphere n={n}": _search_digest(n) for n in range(2, MAX_N + 1)}
    entries["random rewrite chains"] = _rewrite_digest()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for argv in (("conjecture", "--json"), ("catalog", "--json", "--dot"),
                     ("verify-paper", "--json"), ("search", "30", "50", "--json", "--dot"),
                     ("formula", "30", "--json")):
            entries[" ".join(argv)] = _cli_digest(workdir, *argv)
        found = best_sphere(6, 3).to_json_dict()
        (workdir / "spec.json").write_text(json.dumps(found["spec"]))
        (workdir / "plan.json").write_text(json.dumps(found["plan"]))
        entries["build --json --dot (search 6 3 winner)"] = _cli_digest(
            workdir, "build", str(workdir / "spec.json"), "--plan", str(workdir / "plan.json"),
            "--json", "--dot")
        # human-readable output: adjusted gains, running totals, check details
        for argv in (("catalog",), ("search", "6", "3"), ("verify-paper",)):
            entries[" ".join(argv)] = _cli_digest(workdir, *argv)
        # every catalog type searched, order-dependent words included
        for argv in (("search", "6", "3", "--extended-fibers", "--json", "--dot"),
                     ("conjecture", "--extended-fibers", "--json")):
            entries[" ".join(argv)] = _cli_digest(workdir, *argv)
    entries["enumerate_specs n=2..4, every catalog type"] = _extended_specs_digest()
    return entries


def _read_golden() -> dict[str, str]:
    entries = {}
    for line in GOLDEN.read_text().splitlines():
        digest, name = line.split("  ", 1)
        entries[name] = digest
    return entries


def test_outputs_match_the_golden_corpus():
    golden = _read_golden()
    now = corpus()
    assert list(now) == list(golden)
    changed = [name for name in golden if now[name] != golden[name]]
    assert not changed, f"output differs from {GOLDEN.name} for: {', '.join(changed)}"


if __name__ == "__main__":
    before = _read_golden() if GOLDEN.exists() else {}
    now = corpus()
    GOLDEN.write_text("".join(f"{digest}  {name}\n" for name, digest in now.items()))
    print(f"wrote {len(now)} digests to {GOLDEN}", file=sys.stderr)
    for name in [*now, *(name for name in before if name not in now)]:
        if name not in now:
            print(f"removed: {name}", file=sys.stderr)
        elif name not in before:
            print(f"added: {name}", file=sys.stderr)
        elif before[name] != now[name]:
            print(f"changed: {name}", file=sys.stderr)
