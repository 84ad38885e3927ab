#!/usr/bin/env python3
"""Print the size of the package: the lines of each module of
``src/perturbext``, split into code, docstring, comment and blank lines,
the member count of each matrix type and the field count of each config
type.

Every line falls in exactly one class, so the four counts of a module add
up to its lines:
- code: the line holds a token of a statement (a docstring excepted);
- docstring: the line is part of a module, class or function docstring,
  blank lines inside it included;
- comment: the line holds a comment and nothing else;
- blank: the line holds only white space.

The members of a matrix type are the functions defined in its class body:
methods, properties, class methods and dunders alike.  The fields of a
config type are the annotated names in its class body, the values a caller
can set on a dataclass.  Nothing is imported; the counts come from
``tokenize`` and ``ast`` alone.

Usage: python scripts/code_size.py [--src DIR]
Output: a header line, one line per module sorted by name, a ``total``
line, then '<type> members <count>' for SymmetricDense and SparseSymmetric
and '<type> fields <count>' for Selector, KernelSpec, MuPolicy and
ExtensionConfig.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "perturbext"
MATRIX_TYPES = ("SymmetricDense", "SparseSymmetric")
CONFIG_TYPES = ("Selector", "KernelSpec", "MuPolicy", "ExtensionConfig")
COLUMNS = ("code", "docstring", "comment", "blank")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree) -> set:
    """(line, column) of the string that opens each docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def line_counts(text: str) -> dict:
    """The four counts of one module's source text."""
    docstrings = _docstring_starts(ast.parse(text))
    code, doc, comment = set(), set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and tok.start in docstrings:
            doc.update(lines)
        elif tok.type == tokenize.COMMENT:
            comment.update(lines)
        elif tok.type not in NOT_CODE:
            code.update(lines)
    counts = dict.fromkeys(COLUMNS, 0)
    for lineno in range(1, len(text.splitlines()) + 1):
        kind = ("code" if lineno in code else "docstring" if lineno in doc
                else "comment" if lineno in comment else "blank")
        counts[kind] += 1
    return counts


def body_counts(text: str, names, kinds) -> dict:
    """Statements of the given ``ast`` kinds directly in the body of each
    class named in ``names``."""
    return {node.name: sum(isinstance(item, kinds) for item in node.body)
            for node in ast.parse(text).body
            if isinstance(node, ast.ClassDef) and node.name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="package directory (default: src/perturbext)")
    args = parser.parse_args(argv)
    modules = sorted(args.src.glob("*.py"))
    if not modules:
        parser.error(f"no modules in {args.src}")
    row = "{:<18}" + "{:>10}" * (len(COLUMNS) + 1)
    print(row.format("module", *COLUMNS, "lines"))
    total = dict.fromkeys(COLUMNS, 0)
    members, fields = {}, {}
    for path in modules:
        text = path.read_text()
        counts = line_counts(text)
        for key in COLUMNS:
            total[key] += counts[key]
        members.update(body_counts(text, MATRIX_TYPES, (ast.FunctionDef, ast.AsyncFunctionDef)))
        fields.update(body_counts(text, CONFIG_TYPES, ast.AnnAssign))
        print(row.format(path.name, *counts.values(), sum(counts.values())))
    print(row.format("total", *total.values(), sum(total.values())))
    for name in MATRIX_TYPES:
        print(f"{name} members {members.get(name, 0)}")
    for name in CONFIG_TYPES:
        print(f"{name} fields {fields.get(name, 0)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
