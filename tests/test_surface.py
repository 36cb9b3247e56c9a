"""Production modules hold only what production runs.

Every public top-level function and class in ``src/xtalssl`` must be used
on some other line of the package, of ``perfbench/*.py`` or of
``tools/*.py``: as a name, as an attribute or as an import alias.  A
re-export in the package's ``__init__.py`` is no use: a name that only
``__init__`` and tests import has no production user.  A helper that only
tests call belongs in the tests.  And only ``model`` knows what a
checkpoint holds: no other module spells a checkpoint array name.
"""

import ast
from collections import defaultdict
from pathlib import Path

import numpy as np

from xtalssl.model import ModelConfig, init_params, load_checkpoint, save_checkpoint

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "xtalssl"

# public names that only tests reach, each with the reason it stays
ALLOWED: dict[str, str] = {}


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
        if path == PACKAGE / "__init__.py":
            continue
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


def test_only_model_spells_a_checkpoint_array_name(tmp_path):
    # every name a checkpoint can hold: the full layout and the label statistics
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, init_params(ModelConfig(), np.random.default_rng(0)), (0.0, 1.0))
    names = set(load_checkpoint(path)[1])
    sections = tuple(sorted({name.split(".", 1)[0] + "." for name in names if "." in name}))
    assert sections == ("encoder.", "head.", "projector.")

    spelled = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and (
                    node.value in names or node.value.startswith(sections)):
                spelled.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert spelled == [], "checkpoint array names outside model.py: " + ", ".join(spelled)
