"""Count the code lines of the kwisent package, one module per line.

A code line is a physical line that holds at least one token other than a
comment or a line break, and that does not lie inside a docstring: a
statement that is a bare string, such as the one that opens a module, class
or function, or the one under a module constant.  Blank lines, comment lines
and docstrings are left out.

    python scripts/count_loc.py               # src/kwisent
    python scripts/count_loc.py path/to/pkg   # any directory of .py files
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every statement that is a bare string: the docstrings
    of the module, its classes and functions, and attribute docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(directory: Path) -> dict[str, int]:
    """{module file name: code lines} for every .py file in directory."""
    return {
        path.name: code_lines(path.read_text())
        for path in sorted(directory.glob("*.py"))
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", nargs="?", type=Path, default=ROOT / "src" / "kwisent")
    args = parser.parse_args(argv)
    counts = count(args.directory)
    width = max(map(len, counts), default=0)
    for name, lines in counts.items():
        print(f"{name:<{width}} {lines:>6,}")
    print(f"{'total':<{width}} {sum(counts.values()):>6,}")


if __name__ == "__main__":
    main()
