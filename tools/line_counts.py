"""The lines of each module of a package, by kind.

    python tools/line_counts.py [DIR]
    python tools/line_counts.py OLD NEW

DIR defaults to ``src/nldiff`` beside this script's directory.  Prints one
row per ``*.py`` file of DIR, and a total, with its lines counted once each
as code, docstring, comment or blank, in that order of precedence:

* code: a line that holds any token but a comment or a docstring, the
  continuation lines of a multi-line string or expression included;
* docstring: a line of the string that opens a module, class or function;
* comment: a line whose only token is a ``#`` comment;
* blank: every other line.

So the four columns of a row add up to its total, the ``wc -l`` of the
file (for a file that ends in a newline).  Given two directories, it prints
NEW less OLD for each module of either, a module missing from one counting
as empty, then the totals of OLD and of NEW.  To compare with a commit:

    git archive <commit> src/nldiff | tar -x -C <tmp>
    python tools/line_counts.py <tmp>/src/nldiff src/nldiff

Only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict:
    """The lines of one module's ``source``, by kind (:data:`KINDS`)."""
    docstrings = _docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _LAYOUT and not (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            code.update(range(tok.start[0], tok.end[0] + 1))
    kinds = dict.fromkeys(KINDS, 0)
    for line in range(1, len(source.splitlines()) + 1):
        kind = ("code" if line in code else "docstring" if line in docstrings
                else "comment" if line in comments else "blank")
        kinds[kind] += 1
    return kinds


def table(directory: str) -> dict:
    """Module file name to its :func:`count`, for every ``*.py`` of ``directory``."""
    rows = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                rows[name] = count(fh.read())
    return rows


def _total(rows: dict) -> dict:
    return {k: sum(r[k] for r in rows.values()) for k in KINDS}


def _print_row(name: str, width: int, row: dict, sign: str = ""):
    print(f"{name:<{width}}" + "".join(f"{v:{sign}11,}" for v in (*row.values(), sum(row.values()))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "nldiff")
    parser.add_argument("directory", nargs="?", default=default, help="DIR, or OLD before NEW")
    parser.add_argument("new", nargs="?", help="NEW, compared with OLD")
    args = parser.parse_args(argv)
    rows = table(args.directory)
    if args.new is None:
        out, totals, sign = {**rows, "total": _total(rows)}, {}, ""
    else:
        new, zero = table(args.new), dict.fromkeys(KINDS, 0)
        out = {name: {k: new.get(name, zero)[k] - rows.get(name, zero)[k] for k in KINDS}
               for name in sorted({*rows, *new})}
        totals, sign = {"old total": _total(rows), "new total": _total(new)}, "+"
    width = max(map(len, [*out, *totals]))
    print(f"{'module':<{width}}" + "".join(f"{k:>11}" for k in (*KINDS, "total")))
    for name, row in out.items():
        _print_row(name, width, row, sign)
    for name, row in totals.items():
        _print_row(name, width, row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
