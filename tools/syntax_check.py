#!/usr/bin/env python
"""Syntax-only lint: compile every Python file under the given paths.

The fallback of ``make lint`` when neither ruff nor pyflakes is
installed.  Unlike ``python -m compileall`` it compiles in memory and
writes no bytecode, so the tree is left exactly as it was.

Usage: ``python tools/syntax_check.py paths...``; exits 1 with one line
per file that does not compile.
"""

from __future__ import annotations

import pathlib
import sys


def main(paths: list[str]) -> int:
    failures = 0
    for root in map(pathlib.Path, paths):
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            try:
                compile(path.read_bytes(), str(path), "exec",
                        dont_inherit=True)
            except (SyntaxError, ValueError) as exc:
                print(f"{path}: {exc}")
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
