"""Production modules hold only what production runs.

Every public top-level function and class in ``src/xtalssl`` must be used
on some other line of the package, of ``perfbench/*.py`` or of
``tools/*.py``: as a name, as an attribute or as an import alias.  A helper
that only tests call belongs in the tests.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "xtalssl"

# public names that only tests reach, each with the reason it stays
ALLOWED = {
    "grad_check": "the finite-difference oracle behind C1, exact gradients",
}


def _uses(tree: ast.AST):
    """(line, name) of every name, attribute and import alias in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name.rsplit(".", 1)[-1]


def test_every_public_name_has_a_production_user():
    modules = sorted(PACKAGE.glob("*.py"))
    sources = modules + sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("tools/*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    used_at = defaultdict(set)
    for path, tree in trees.items():
        for line, name in _uses(tree):
            used_at[name].add((path, line))

    defined, unused = set(), []
    for path in modules:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add(node.name)
                if not used_at[node.name] - {(path, node.lineno)} and node.name not in ALLOWED:
                    unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == [], "public names no production code uses: " + ", ".join(unused)
    assert set(ALLOWED) <= defined, "allow-list names a helper that no longer exists"
