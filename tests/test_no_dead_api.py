"""Every function, class, method and module-level constant of the package
is used by the package or the benchmark; what tests alone use lives in
``tests/`` (the oracles in ``tests/oracles.py``).

The check is by name: a definition counts as used when its name appears in
``src/reducto/`` or ``perfbench/`` outside the definition itself, as a
variable, an attribute, an imported name or a string (the benchmark's
tracer looks functions up by their names as strings).  So a name shared
with something else passes unchecked; the guard catches an API that
nothing mentions at all.
"""

import ast
import functools
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reducto"
USERS = (PACKAGE, ROOT / "perfbench")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _trees(root: Path):
    return [_tree(path) for path in sorted(root.glob("*.py"))]


def _definitions(package: Path) -> dict:
    """Qualified name -> (name, defining node), for every top-level
    function, class and assigned name and every method of a top-level class,
    the dunder ones excepted."""
    found = {}
    for tree in _trees(package):
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not target.id.startswith("__"):
                        found[target.id] = (target.id, node)
            if not isinstance(node, _DEFS):
                continue
            found[node.name] = (node.name, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS) and not item.name.startswith("__"):
                        found[f"{node.name}.{item.name}"] = (item.name, item)
    return found


def _names(node) -> Counter:
    """Every name mentioned under ``node``."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            counts[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            counts[sub.value] += 1
    return counts


def unused(package: Path, users) -> list:
    """Definitions in ``package`` that no file in ``users`` names outside
    the definition itself."""
    mentions = Counter()
    for root in users:
        for tree in _trees(root):
            mentions += _names(tree)
    return sorted(
        qualified
        for qualified, (name, node) in _definitions(package).items()
        if mentions[name] == _names(node)[name]
    )


def test_no_function_class_or_method_goes_unused():
    dead = unused(PACKAGE, USERS)
    assert dead == [], f"nothing in src/reducto or perfbench uses {dead}"


def test_guard_sees_calls_attributes_imports_strings_and_recursion(tmp_path):
    package, user = tmp_path / "package", tmp_path / "user"
    package.mkdir()
    user.mkdir()
    (package / "mod.py").write_text(
        "__version__ = '1'\nLIMIT = 3\nSPARE: int = LIMIT\nSHOWN = 4\n\n\n"
        "def lonely(n):\n    return lonely(n - 1)\n\n\n"
        "def called():\n    return 1\n\n\n"
        "def traced():\n    return 2\n\n\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def opened(self):\n        return called()\n\n"
        "    def shut(self):\n        return 0\n"
    )
    (user / "bench.py").write_text(
        "from mod import Box, SHOWN\n\nTARGETS = ('traced',)\nBox().opened()\n"
    )
    assert unused(package, (package, user)) == ["Box.shut", "SPARE", "lonely"]
