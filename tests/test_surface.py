"""Every name the package exports has a user besides the tests: a module of the
package other than the one statement that defines it, the bench, or the
README's library quick tour."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "riverdense"


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def _package_uses() -> set[str]:
    """Names read in the package's modules, each outside its own top-level
    definition: ``name`` loaded, or ``obj.name`` looked up."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(statement, "name", None)  # a def or class defines its name
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def _quick_tour() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick tour", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


EXPORTED = _exported()
PACKAGE_USES = _package_uses()
BENCH = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py")))
TOUR = _quick_tour()


def test_the_package_exports_names():
    assert {"input_jacobian", "pairwise_resistances", "train"} <= set(EXPORTED)


@pytest.mark.parametrize("name", EXPORTED)
def test_exported_name_has_a_user_beyond_the_tests(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    assert (name in PACKAGE_USES or word.search(BENCH)
            or re.search(rf"\brd\.{re.escape(name)}\b", TOUR)), \
        f"{name} is exported but only the tests use it"
