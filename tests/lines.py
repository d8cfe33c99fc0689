"""Line counts of the package: physical lines and code-only lines.

Run from anywhere: ``python tests/lines.py``. For each module of
``src/futurecall/`` (sorted by name), then for all of them, it prints
``name lines code``. ``lines`` is the physical line count, as ``wc -l``
gives it. ``code`` leaves out blank lines, comment-only lines and the lines
of module, class and function docstrings, which are found from the AST. A
comment after code on its line leaves that line counted. pytest does not
collect this file: its name does not start with ``test``.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "futurecall"
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(source: str) -> tuple[int, int]:
    """(physical lines, code-only lines) of one module's source."""
    lines = source.splitlines()
    dropped = {n for n, text in enumerate(lines, 1) if not text.strip()}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT and not token.line[: token.start[1]].strip():
            dropped.add(token.start[0])
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            dropped.update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines), len(lines) - len(dropped)


def main() -> None:
    total_lines = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = counts(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name} {lines} {code}")
    print(f"total {total_lines} {total_code}")


if __name__ == "__main__":
    main()
