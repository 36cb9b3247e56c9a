"""The package needs nothing at run time beyond the standard library and numpy."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _declared_dependencies() -> list:
    # tomllib is 3.11+; the project table's dependency list is a plain
    # array of strings, which is also a Python literal
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]$(.*?)(?=^\[)", text, re.M | re.S).group(1)
    deps = re.search(r"^dependencies\s*=\s*(\[.*?\])", project, re.M | re.S).group(1)
    return ast.literal_eval(deps)


def test_numpy_is_the_only_declared_dependency():
    assert _declared_dependencies() == ["numpy"]


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for path in sorted((ROOT / "src" / "xtalssl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []
