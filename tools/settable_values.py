"""Count the settable values of a source tree: parameter defaults plus
defaulted dataclass fields, read with ``ast``.

    python tools/settable_values.py [SRC_DIR]     # default: src/conespec

Prints one ``module count`` line per module and a ``total`` line.  Every
default is a value a caller may set, so the count is a rough measure of a
library's surface of knobs; a change that removes knobs makes it fall.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def count(source: str) -> int:
    """Parameter defaults of every function and lambda, plus the fields with
    a default of every dataclass, in one module's source."""
    n = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            n += len(node.args.defaults)
            n += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            n += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="?", default=str(ROOT / "src" / "conespec"))
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(Path(args.src).glob("*.py")):
        n = count(path.read_text())
        total += n
        print(f"{path.stem} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
