import ast
from fractions import Fraction
from pathlib import Path

import negsphere


def test_every_exported_name_is_a_package_attribute():
    missing = [name for name in negsphere.__all__ if not hasattr(negsphere, name)]
    assert missing == []
    assert len(set(negsphere.__all__)) == len(negsphere.__all__)


# (a commented line of the README's Library block, the start of its
# comment, an expression over the block's names, the value it must have)
LIBRARY_CLAIMS = [
    ('ns.word_to_matrix("ab" * 6)', "identity", 'ns.word_to_matrix("ab" * 6)', negsphere.IDENTITY),
    ("spec = ns.reference_decomposition(6)", "6 x E8t + 2 x I0star", "spec.fibers",
     ("E8t",) * 6 + ("I0star",) * 2),
    ("tree.smooth()", "-262", "tree.smooth()", -262),
    ("ns.oracle_square(tree, tree.two_coloring())", "-262",
     "ns.oracle_square(tree, tree.two_coloring())", -262),
    ("ns.plumbing.checked_square(tree)", "-262", "ns.plumbing.checked_square(tree)", -262),
    ("result = ns.best_sphere(6, 3)", "-279", "result.best_square", -279),
    ("result.graph.to_dot()", "the replayed graph", "result.graph.to_dot().startswith('graph ')",
     True),
    ("ns.search.realize(result.spec, result.plan, 3)", "the same result",
     "ns.search.realize(result.spec, result.plan, 3) == result", True),
    ("ns.conjecture_check(result)", "(Fraction(-279, 73), True)", "ns.conjecture_check(result)",
     (Fraction(-279, 73), True)),
    ("option.fragment.graph.weights, option.blowups", "([-1, -3, -3, -3], 1)",
     "option.fragment.graph.weights, option.blowups", ([-1, -3, -3, -3], 1)),
    ('ns.fiber("II_cusp").option("replace")', "the (-9)-sphere, one blow-up",
     'ns.fiber("II_cusp").option("replace").fragment.graph.weights, '
     'ns.fiber("II_cusp").option("replace").blowups', ([-9], 1)),
]


def test_readme_library_example_runs_as_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    comments = {code.strip(): note.strip()
                for code, _, note in (line.partition("#") for line in block.splitlines()) if note}
    assert sorted(comments) == sorted(line for line, *_ in LIBRARY_CLAIMS)
    for line, note, expression, value in LIBRARY_CLAIMS:
        assert comments[line].startswith(note), line
        assert eval(expression, namespace) == value, line


def test_cli_imports_no_private_name_from_the_package():
    # the command line reads the library through its public names only
    source = Path(negsphere.__file__).with_name("cli.py").read_text()
    private = [
        (node.level * "." + (node.module or ""), alias.name)
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "negsphere")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []
