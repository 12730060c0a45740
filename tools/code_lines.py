"""Count the lines of the kggan package, per module and in total.

    python tools/code_lines.py [DIR]

DIR defaults to src/kggan beside this script's directory. For each
module it prints its line count, as ``wc -l`` gives it, and its code
lines: the lines on which a token starts that is neither a comment nor
part of a docstring (of the module, a class or a function). Blank lines
count only towards the first.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that carry no code: layout, comments and the stream's ends
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set:
    """Every line of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    code = {tok.start[0] for tok in tokens if tok.type not in LAYOUT} - docs
    return source.count("\n"), len(code)


def main(argv) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "kggan"
    rows = [(path.name, *count(path.read_text(encoding="utf-8"))) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(16, *(len(r[0]) + 1 for r in rows))
    print(f"{'module':<{width}}{'lines':>7}{'code':>7}")
    for name, lines, code in rows:
        print(f"{name:<{width}}{lines:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
