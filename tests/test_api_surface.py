"""Every public top-level function and class of the package has a reader in it.

A name counts as read when some module of src/graphscat loads it (a call or
any other use of the bare name), takes it as an attribute (mod.name), or
imports it (`from .mod import name`, which covers the package's exports).
Names are matched without their module, so a name defined twice is read if
either is. A name that only tests call belongs in a test helper.
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


def test_allowlist_holds_only_unread_names():
    defined, read = _surface()
    for qualified in ALLOWED:
        assert qualified in defined, f"{qualified} is gone; drop it from the allowlist"
        assert defined[qualified] not in read, f"{qualified} has a reader; drop it from the allowlist"
