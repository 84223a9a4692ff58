"""Code-line count of each module under src/, run from the root of the
repository:

    python .github/code-lines.py

A code line is a physical line that holds part of a token of a logical
line that is not a docstring: blank lines, comment-only lines and the
lines of a string statement alone on its lines (a module, class or
function docstring, or any other bare string) do not count.  Prints one
count per module and their total.
"""

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    lines: set[int] = set()
    logical: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            logical.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and logical:
            if any(t.type != tokenize.STRING for t in logical):
                for t in logical:
                    lines.update(range(t.start[0], t.end[0] + 1))
            logical = []
    return len(lines)


def main() -> int:
    root = Path("src")
    paths = sorted(root.rglob("*.py"))
    if not paths:
        print("no modules under src/; run from the root of the repository",
              file=sys.stderr)
        return 1
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
