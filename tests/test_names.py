"""The package defines only what the program reads: every public function,
class and method in src/kwisent is named by some module of the package, of
scripts/ or of perfbench/ (its frozen seedref/ copy aside).  The slow routes
that only tests read live in tests/oracles.py."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kwisent"
READERS = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]
# Read by other means than their name.
EXEMPT = {
    "cube.inverse_wht": "acceptance criterion 7 checks the round trip with it, "
    "and the perfbench tracer names its span in a string",
}


def is_click_command(node: ast.FunctionDef) -> bool:
    """Whether a @<group>.command(...) or @<group>.group(...) decorator
    registers the function, so click reaches it through that decorator."""
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def public_definitions() -> dict[str, str]:
    """{qualified name: name} of the package's public top-level functions and
    classes and of their classes' public methods, click commands left out."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef) and is_click_command(node):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def names_read() -> set[str]:
    """Every name, attribute and imported name in the reader modules."""
    used = set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
    return used


def test_every_public_definition_is_read_by_the_program():
    used = names_read()
    unread = [
        qualified
        for qualified, name in public_definitions().items()
        if name not in used and qualified not in EXEMPT
    ]
    assert unread == []


def test_each_exemption_is_still_a_definition():
    assert set(EXEMPT) <= set(public_definitions())
