"""Regenerate the CLI output corpus, ``cli.tsv`` beside this file.

    python3 tests/corpus/make.py

Runs every command of ``commands()`` through ``gentropy.cli.main`` in this
process and writes one line per command: argv, exit code, stderr and stdout,
each JSON-encoded and separated by tabs.  Input files are written to a
temporary directory first; an argv token ``@name`` names the input ``name``,
and the directory's path reads as ``@`` in the recorded output.
``tests/test_corpus.py`` replays the file.  A regeneration goes in
CHANGES.md with the number of changed lines and the reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli.tsv"

# Float fields match when math.isclose at these tolerances; every other field byte for byte.
REL_TOL = 1e-9
ABS_TOL = 1e-12
HEADER = (
    "# gentropy CLI output corpus, written by tests/corpus/make.py; one command per line.\n"
    f"# float fields: math.isclose(rel_tol={REL_TOL:g}, abs_tol={ABS_TOL:g}); every other field,\n"
    "# stderr and the exit code byte for byte.\n"
    "#argv\texit\tstderr\tstdout\n"
)

def mixed_file() -> bytes:
    """A distribution of 10^4 weights, each written as p/q or as a decimal at random."""
    rng = random.Random(10)
    weights = [rng.randint(1, 1000) for _ in range(10_000)]
    total = sum(weights)
    return "".join(f"{w}/{total}\n" if rng.random() < 0.5 else f"{w / total!r}\n" for w in weights).encode()


# 16 characters a line: 4096 lines fill a chunk of 1 << 16 that the file reader reads at once
PADDED = b"1/8192         \n" * 8192

# name -> bytes of each input file
INPUTS = {
    "p4.txt": b"0.1\n0.2\n0.3\n0.4\n",
    "ratios.txt": b"# thirds and a half\n1/6\n1/3\n\n1/2  # inline\n",
    "crlf.txt": b"0.25\r\n0.25\r\n0.5\r\n",
    "cr.txt": b"0.5\r0.5\r",
    "separators.txt": b"0.25\x0b0.25\x0c0.25\x1c0.25\n",
    "nel.txt": "0.5\x850.5\n".encode(),
    "underscore.txt": b"1_0/30\n2/3\n",
    "long-ratio.txt": b"50000000000000000/100000000000000000\n1/2\n",
    "zero-denominator.txt": b"1/2\n3/0\n",
    "hexfloat.txt": b"0x1p-1\n0.5\n",
    "nan.txt": b"0.5\nnan\n0.5\n",
    "short-sum.txt": b"0.3\n0.3\n",
    "negative.txt": b"-0.5\n1.5\n",
    "not-utf8.txt": b"0.5\n\xff0.5\n",
    "comments-only.txt": b"\n# nothing\n",
    "levels4.txt": b"0\n1\n2\n3\n",
    "levels6.txt": b"0\n0.5\n1.25\n2\n3.5\n5\n",
    "levels-crlf.txt": b"# levels\r\n0\r\n1.5\r\n3\r\n",
    "levels-ratio.txt": b"0\n1/2\n",
    "levels-huge.txt": b"0\n1e200\n3e200\n",
    "levels20.txt": "".join(f"{i}\n" for i in range(20)).encode(),
    "levels-degenerate.txt": b"0.4\n3.1\n3.1\n",
    "mixed-10k.txt": mixed_file(),
    "chunk-aligned.txt": PADDED,  # the first chunk ends at the end of a line
    "chunk-straddle.txt": b"# shifted\n" + PADDED,  # and here inside one
    "long-line.txt": b"0.5" + b"0" * 70_000 + b"\n0.5\n",  # one line longer than a chunk
}

# each kind's parameters as (flag, name in a scan spec, value), at values where its checks and solvers run
SPECS = {
    "bg": [],
    "tsallis": [("--q", "q", "1/2")],
    "kaniadakis": [("--kappa", "kappa", "1/3")],
    "borges_roditi": [("--a", "a", "1/2"), ("--b", "b", "-1/3")],
    "s_cd": [("--c", "c", "1/2"), ("--d", "d", "2")],
    "group_entropy": [("--sigma", "sigma", "1/5"), ("--coeffs", "coeffs", "1:1,-1:-2,-2:1")],
    "s_iii": [("--q", "q", "4/5")],
    "s_iv": [("--q", "q", "1/2")],
    "s_alpha_beta_q": [("--alpha", "alpha", "1"), ("--beta-param", "beta", "1/8"), ("--q", "q", "-1/8")],
    "s_delta": [("--delta", "delta", "3/2")],
    "s_q_delta": [("--q", "q", "1/2"), ("--delta", "delta", "2")],
    "generic": [("--a-sequence", "a", "1,-1/2,1/3")],
}


def scan_spec(kind: str) -> str:
    pairs = [f"{name}={value}" for _, name, value in SPECS[kind]]
    return f"{kind}:{','.join(pairs)}" if pairs else kind


def target_u_commands(spec: list[str]) -> list[list[str]]:
    """maxent --target-u for a kind with a group exponential: with --kb 2 and --scale 2; on 20
    levels 0..19 at 0.25, 0.6 and 0.9 of the way from the lowest level to the mean; on a repeated
    level at 0.6 of that way; and 1e-6 of the span from each extreme of levels4.txt."""
    maxent = ["maxent", *spec, "--target-u"]
    return [
        [*maxent, "0.8", "--energies", "@levels6.txt", "--kb", "2"],
        [*maxent, "0.8", "--energies", "@levels6.txt", "--scale", "2"],
        *([*maxent, target, "--energies", "@levels20.txt"] for target in ("2.375", "5.7", "8.55")),
        [*maxent, "1.48", "--energies", "@levels-degenerate.txt"],
        *([*maxent, target, "--energies", "@levels4.txt"] for target in ("3e-6", "2.999997")),
    ]


def commands() -> list[list[str]]:
    """Every subcommand for every kind, plain, with --kb 2 and with --scale 2, then the edge cases."""
    from gentropy.cli import KINDS

    out = [["catalog"]]
    for kind, params in SPECS.items():
        spec = ["--entropy", kind, *(f"{flag}={value}" for flag, _, value in params)]
        out += [
            ["eval", *spec, "--dist", "uniform:4"],
            ["expand", *spec, "--count", "6"],
            ["group-law", *spec, "--order", "6"],
            ["check", *spec, "--axiom", "all", "--trials", "20"],
            ["maxent", *spec, "--beta", "1", "--energies", "@levels4.txt"],
            ["maxent", *spec, "--target-u", "0.8", "--energies", "@levels6.txt"],
            ["occupation", *spec, "--nmax", "20"],
            ["scan", "--spec", scan_spec(kind), "--points", "5", "--wmax", "1e6"],
        ]
        out += [[*argv, "--kb", "2"] for argv in (
            ["eval", *spec, "--dist", "@p4.txt"],
            ["check", *spec, "--axiom", "all", "--trials", "20"],
            ["occupation", *spec, "--nmax", "20"],
        )]
        out += [[*argv, "--scale", "2"] for argv in (
            ["eval", *spec, "--dist", "uniform:4"],
            ["expand", *spec, "--count", "6"],
            ["maxent", *spec, "--beta", "1", "--energies", "@levels4.txt"],
            ["occupation", *spec, "--nmax", "20"],
        )]
        if KINDS[kind].cls.has_exponential:
            out += target_u_commands(spec)
    out += [
        ["scan", "--spec", scan_spec("bg"), "--spec", scan_spec("tsallis"), "--spec", scan_spec("s_delta"),
         "--points", "7", "--scale", "2", "--digits", "5"],
        ["check", "--entropy", "s_iii", "--q", "4/5", "--axiom", "concavity-condition", "--order", "8"],
        ["check", "--entropy", "kaniadakis", "--kappa", "1/2", "--axiom", "concavity"],
        ["check", "--entropy", "tsallis", "--q", "1/2", "--axiom", "lesche", "--trials", "10"],
        ["check", "--entropy", "s_delta", "--delta", "3/2", "--axiom", "strict-composability",
         "--seed", "3", "--wa", "4", "--wb", "5", "--trials", "37"],
        ["check", "--entropy", "bg", "--axiom", "sk3", "--dist", "@ratios.txt"],
        ["group-law", "--series", "1, -1/2, 1/6", "--order", "5"],
        ["group-law", "--series", "1", "--entropy", "bg"],
        ["eval", "--entropy", "bg", "--dist", "uniform:4", "--digits", "3"],
        ["eval", "--entropy", "bg", "--dist", "uniform:4", "--digits", "19"],
        ["maxent", "--entropy", "bg", "--target-u", "1e200", "--energies", "@levels-huge.txt"],
        ["maxent", "--entropy", "bg", "--beta", "1", "--energies", "@levels-crlf.txt", "--digits", "5"],
        ["occupation", "--entropy", "tsallis", "--q", "3/2", "--nmax", "20"],
        ["occupation", "--entropy", "bg", "--nmax", "0"],
        ["occupation", "--entropy", "bg", "--nmax", "712"],  # W overflows a double past N = 709
        ["check", "--entropy", "s_iii", "--q", "4/5", "--axiom", "strict-composability", "--trials", "20",
         "--witness-file", "@no-such-dir/w.txt"],
    ]
    for name in ("ratios.txt", "crlf.txt", "cr.txt", "separators.txt", "nel.txt", "underscore.txt",
                 "long-ratio.txt", "zero-denominator.txt", "hexfloat.txt", "nan.txt", "short-sum.txt",
                 "negative.txt", "not-utf8.txt", "comments-only.txt", "missing.txt", "mixed-10k.txt",
                 "chunk-aligned.txt", "chunk-straddle.txt", "long-line.txt"):
        out.append(["eval", "--entropy", "bg", "--dist", f"@{name}"])
    for name in ("levels-ratio.txt", "comments-only.txt", "not-utf8.txt", "missing.txt"):
        out.append(["maxent", "--entropy", "bg", "--beta", "1", "--energies", f"@{name}"])
    out += [  # usage errors
        [],
        ["frobnicate"],
        ["eval", "--dist", "uniform:4"],
        ["eval", "--entropy", "nope", "--dist", "uniform:4"],
        ["eval", "--entropy", "tsallis", "--dist", "uniform:4"],
        ["eval", "--entropy", "bg", "--q", "1/2", "--dist", "uniform:4"],
        ["eval", "--entropy", "tsallis", "--q", "1", "--dist", "uniform:4"],
        ["eval", "--entropy", "tsallis", "--q", "x", "--dist", "uniform:4"],
        ["eval", "--entropy", "bg", "--dist", "uniform:0"],
        ["eval", "--entropy", "bg", "--dist", "uniform:x"],
        ["eval", "--entropy", "bg", "--dist", "uniform:4", "--digits", "0"],
        ["eval", "--entropy", "bg", "--scale=1e400", "--dist", "uniform:1"],
        ["eval", "--entropy", "s_cd", "--c", "2", "--d", "1", "--dist", "uniform:4"],
        ["expand", "--entropy", "bg", "--count", "-1"],
        ["expand", "--entropy", "s_iii", "--q", "4/5", "--order", "-3"],
        ["group-law", "--entropy", "tsallis", "--q", "1/2", "--order", "0"],
        ["group-law", "--entropy", "tsallis", "--q", "1/2", "--order", "-1"],
        ["group-law", "--series", "0, 1", "--order", "4"],
        ["check", "--entropy", "bg"],
        ["check", "--entropy", "bg", "--axiom", "nope"],
        ["check", "--entropy", "bg", "--axiom", "sk2", "--states", "0"],
        ["check", "--entropy", "bg", "--axiom", "sk2", "--trials", "-1"],
        ["check", "--entropy", "bg", "--axiom", "sk2", "--seed", "-1"],
        ["check", "--entropy", "bg", "--axiom", "all", "--seed", "-1"],
        ["check", "--entropy", "bg", "--axiom", "sk2", "--wa", "3"],
        ["check", "--entropy", "bg", "--axiom", "weak-composability", "--wa", "0"],
        ["maxent", "--entropy", "bg", "--energies", "@levels4.txt"],
        ["maxent", "--entropy", "bg", "--beta", "1", "--target-u", "1", "--energies", "@levels4.txt"],
        ["occupation", "--entropy", "bg", "--nmax", "-1"],
        ["scan", "--spec", "tsallis:q=1/2,zz=3"],
        ["scan", "--spec", "s_cd:c=1/2,d=x"],
        ["scan", "--spec", "bg", "--points", "2"],
        ["scan", "--spec", "bg", "--order=-2"],
        ["catalog", "--kb", "2"],
        ["expand", "--entropy", "bg", "--kb", "2"],
        ["group-law", "--entropy", "bg", "--scale", "2"],
        ["group-law", "--entropy", "s_cd", "--c", "1/2", "--d", "2"],
    ]
    return out


def write_inputs(directory: Path) -> None:
    for name, data in INPUTS.items():
        (directory / name).write_bytes(data)


def run_command(argv: list[str], directory: Path) -> tuple[int, str, str]:
    """Exit code, stderr and stdout of ``gentropy.cli.main(argv)``, input paths read as ``@``."""
    from gentropy.cli import main

    prefix = f"{directory}{os.sep}"
    argv = [prefix + a[1:] if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage text at the terminal width
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")  # a warning would print a path and line of this machine
            code = main(argv)
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return code, err.getvalue().replace(prefix, "@"), out.getvalue().replace(prefix, "@")


def line(argv: list[str], code: int, err: str, out: str) -> str:
    return "\t".join(json.dumps(field) for field in (argv, code, err, out)) + "\n"


def parse(text: str) -> list[tuple[list[str], int, str, str]]:
    return [tuple(map(json.loads, row.rstrip("\n").split("\t")))
            for row in text.splitlines() if not row.startswith("#")]


def _is_float_field(field: str) -> bool:
    if field.lstrip("-").isdecimal():
        return False
    try:
        float(field)
    except ValueError:
        return False
    return True


def same_output(expected: str, actual: str) -> bool:
    """Equal text, except that a float field may differ within REL_TOL and ABS_TOL."""
    if expected == actual:
        return True
    rows, new_rows = expected.split("\n"), actual.split("\n")
    if len(rows) != len(new_rows):
        return False
    for row, new_row in zip(rows, new_rows):
        fields, new_fields = row.split("\t"), new_row.split("\t")
        if len(fields) != len(new_fields):
            return False
        for a, b in zip(fields, new_fields):
            if a == b:
                continue
            if not (_is_float_field(a) and _is_float_field(b)):
                return False
            if not math.isclose(float(a), float(b), rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return False
    return True


def main() -> int:
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        write_inputs(directory)
        rows = [line(argv, *run_command(argv, directory)) for argv in commands()]
    CORPUS.write_text(HEADER + "".join(rows), encoding="utf-8")
    print(f"wrote {len(rows)} commands to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
