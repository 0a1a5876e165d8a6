"""Seeded single-operator mutants of one function, each run against the given tests.

Each mutant changes one site in the named function (its nested functions
included): a comparison operator swapped (< and <=, > and >=, == and !=),
an arithmetic one (+ and -, * and /, // and /, % and //, ** and *), a
boolean one (and, or), or an int literal bumped by +1 or -1.  N of all such
changes are drawn with the seed.  The source tree that holds the module
(the first parent directory without an ``__init__.py``) is copied once;
each mutant is written into the copy, which goes first on PYTHONPATH, and
``pytest -x -q`` runs on the test files, one process at a time.  A mutant
is killed when pytest fails or runs past TIMEOUT seconds.  The unmutated
copy is run first, and must pass.

    python3 tools/mutants.py src/gentropy/thermo.py _joint_solve tests/test_thermo.py -n 40 --seed 1
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==", "+": "-", "-": "+",
         "*": "/", "/": "*", "//": "/", "%": "//", "**": "*", "and": "or", "or": "and"}
OPERATOR = re.compile(r"\*\*|//|<=|>=|==|!=|[-+*/%<>]|\band\b|\bor\b")
TIMEOUT = 600.0


def sites(source: str, name: str) -> list[tuple[int, int, int, str]]:
    """(line, start, end, replacement) for every mutation in the function ``name``; columns are in
    the line's UTF-8 bytes, as ``ast`` gives them."""
    lines = source.encode().splitlines()
    funcs = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.FunctionDef) and node.name == name]
    if not funcs:
        raise SystemExit(f"no function {name!r}")
    found = []

    def between(left, right):  # the operator in the gap between two nodes on one line
        if left.end_lineno == right.lineno:
            gap = lines[right.lineno - 1][left.end_col_offset:right.col_offset].decode()
            match = OPERATOR.search(gap)
            if match and match.group() in SWAPS:
                start = left.end_col_offset + match.start()
                found.append((right.lineno, start, start + len(match.group()), SWAPS[match.group()]))

    for node in ast.walk(funcs[0]):
        if isinstance(node, ast.BinOp):
            between(node.left, node.right)
        elif isinstance(node, ast.AugAssign):
            between(node.target, node.value)
        elif isinstance(node, ast.Compare):
            for left, right in zip([node.left, *node.comparators], node.comparators):
                between(left, right)
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                between(left, right)
        elif isinstance(node, ast.Constant) and type(node.value) is int and node.lineno == node.end_lineno:
            for bump in (1, -1):
                found.append((node.lineno, node.col_offset, node.end_col_offset, str(node.value + bump)))
    return sorted(set(found))


def mutate(source: str, site: tuple[int, int, int, str]) -> tuple[str, str]:
    """The mutated source and its mutated line."""
    line, start, end, new = site
    lines = source.encode().splitlines(keepends=True)
    text = lines[line - 1]
    lines[line - 1] = text[:start] + new.encode() + text[end:]
    return b"".join(lines).decode(), lines[line - 1].decode().strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path)
    parser.add_argument("function")
    parser.add_argument("tests", nargs="+")
    parser.add_argument("-n", type=int, default=40, help="mutants to draw (default 40)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    module = args.module.resolve()
    root = module.parent
    while (root / "__init__.py").exists():
        root = root.parent
    source = module.read_text()
    found = sites(source, args.function)
    drawn = random.Random(args.seed).sample(found, min(args.n, len(found)))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / root.name
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / module.relative_to(root)
        path = [str(copy), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONDONTWRITEBYTECODE="1")

        def killed(text: str) -> bool:
            target.write_text(text)
            try:
                return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                                       *args.tests], env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode != 0
            except subprocess.TimeoutExpired:
                return True

        if killed(source):
            raise SystemExit("the tests fail on the unmutated source")
        kills = 0
        for site in drawn:
            text, line = mutate(source, site)
            dead = killed(text)
            kills += dead
            print(f"{'killed  ' if dead else 'survived'} {args.module}:{site[0]}: {line}", flush=True)
    print(f"{args.function}: {kills} of {len(drawn)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
