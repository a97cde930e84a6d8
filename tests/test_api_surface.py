"""Every public top-level function and class of the package has a reader in it.

A name counts as read when some module of src/graphscat loads it (a call or
any other use of the bare name), takes it as an attribute (mod.name), or
imports it (`from .mod import name`, which covers the package's exports).
Names are matched without their module, so a name defined twice is read if
either is. A name that only tests call belongs in a test helper.

Every name a module imports is also read in that module, so a leftover
import does not outlive the code that used it (`__init__.py`, whose imports
are the exports, and `__future__` imports excepted).

No module takes another module's underscore name, by a relative import or
as an attribute of a module it imports from the package (the package's
modules import each other relatively): a leading underscore keeps a name
its own module's, and a name another module needs is public where it is
defined.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "graphscat"

ALLOWED = {
    "layers.gcn_channel": "wrapped by perfbench/tracer.py until ROADMAP item 1's benchmark PR",
}


def _surface():
    """({module.name: name} of public top-level defs, set of names read)."""
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{path.stem}.{node.name}"] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return defined, read


def test_every_public_name_is_read_in_the_package():
    defined, read = _surface()
    unread = sorted(q for q, name in defined.items() if name not in read and q not in ALLOWED)
    assert not unread, f"public names read by no module of the package: {unread}"


def test_every_import_is_read_in_its_module():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, read = [], set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                read.add(node.id)
        unread += [f"{path.stem}: {name}" for name in bound if name not in read]
    assert not unread, f"imported names their module never reads: {unread}"


def test_allowlist_holds_only_unread_names():
    defined, read = _surface()
    for qualified in ALLOWED:
        assert qualified in defined, f"{qualified} is gone; drop it from the allowlist"
        assert defined[qualified] not in read, f"{qualified} has a reader; drop it from the allowlist"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_takes_another_modules_underscore_name():
    taken = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()                 # names bound to modules of the package
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:                             # from . import mod
                    modules.update(alias.asname or alias.name for alias in node.names)
                taken += [f"{path.stem}: from .{node.module} import {alias.name}"
                          for alias in node.names if node.module and _private(alias.name)]
        taken += [f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)]
    assert not taken, f"underscore names taken from another module: {taken}"
