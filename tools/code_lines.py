"""Print the code lines of `src/` (or of the trees given as arguments), run from the repository root.

A code line holds a token that is not a comment, a blank or a docstring; a token spanning lines counts each.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    docstrings = {  # where each docstring's token starts
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(path.read_bytes()))
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None
    }
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE and tok.start not in docstrings:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


if __name__ == "__main__":
    roots = [Path(p) for p in sys.argv[1:]] or [Path("src")]
    print(sum(code_lines(f) for root in roots for f in sorted(root.rglob("*.py"))))
