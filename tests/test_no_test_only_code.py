"""Guards on what ``src/mkcs`` ships: every function, class and method is
reached from the package itself, and the top level is exactly the
library API of README's "Library" example.  Helpers that only tests
need belong in ``tests/reference_helpers.py``."""

import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

import mkcs

PACKAGE = Path(mkcs.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"

# defined in src/mkcs but called only from outside it, each on purpose
ALLOWED = {
    "write_dimacs": "README's example writes a benchmark instance with it",
    "all_cliques": "perfbench/tracer.py counts the enumerated cliques with it",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def hooks(module, tree):
    """The method names of ``tree``'s classes that Python or a base class
    calls by name: dunders, and overrides like ``argparse``'s ``error``."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            bases = getattr(module, node.name).__mro__[1:]
            found |= {item.name for item in node.body
                      if isinstance(item, DEFINITIONS)
                      and (item.name.startswith("__")
                           or any(hasattr(base, item.name) for base in bases))}
    return found


def test_every_definition_is_used_in_the_package():
    defined = {}
    exempt = set(ALLOWED)
    uses = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        exempt |= hooks(importlib.import_module(f"mkcs.{path.stem}"), tree)
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                uses.add(node.id)
            elif isinstance(node, ast.Attribute):
                uses.add(node.attr)
            elif isinstance(node, ast.alias):
                uses.add(node.name)
    unused = sorted(f"{name} ({where})" for name, where in defined.items()
                    if name not in uses | exempt)
    assert not unused, f"defined in src/mkcs but never used there: {unused}"


def readme_library_names():
    """The names that README's "Library" example imports from ``mkcs``."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    (names,) = re.findall(r"^from mkcs import (.+)$", code, flags=re.M)
    return sorted(name.strip() for name in names.split(","))


def test_top_level_is_the_readme_library_api():
    assert sorted(mkcs.__all__) == readme_library_names()
    public = sorted(name for name, value in vars(mkcs).items()
                    if not name.startswith("_") and not isinstance(value, ModuleType))
    assert public == sorted(mkcs.__all__)
