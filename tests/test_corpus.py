"""The CLI's outputs match the committed corpus ``tests/corpus/cli.tsv``.

Every command is replayed in process: exit codes, stderr and every field
that is not a float must match byte for byte, and a float field within the
tolerances the file's header states.  ``tests/corpus/make.py`` regenerates
the file.
"""

import importlib.util
from pathlib import Path

import pytest

MAKE = Path(__file__).resolve().parent / "corpus" / "make.py"


def load_make():
    spec = importlib.util.spec_from_file_location("corpus_make", MAKE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make = load_make()
ROWS = make.parse(make.CORPUS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    make.write_inputs(directory)
    return directory


def test_the_corpus_is_what_make_would_write():
    text = make.CORPUS.read_text(encoding="utf-8")
    assert text.startswith(make.HEADER)
    assert [argv for argv, *_ in ROWS] == make.commands()


@pytest.mark.parametrize("argv, code, err, out", ROWS, ids=[" ".join(row[0]) or "-" for row in ROWS])
def test_cli_output_matches_the_corpus(inputs, argv, code, err, out):
    got_code, got_err, got_out = make.run_command(argv, inputs)
    assert (got_code, got_err) == (code, err)
    assert make.same_output(out, got_out), f"expected\n{out}\ngot\n{got_out}"


@pytest.mark.parametrize("expected, actual, same", [
    ("a\t1.0\n", "a\t1.0000000001\n", True),
    ("a\t1.0\n", "a\t1.001\n", False),
    ("a\t1e-15\n", "a\t2e-15\n", True),
    ("a\t1\n", "a\t2\n", False),  # integers are exact
    ("a\t1/3\n", "a\t0.3333333333333333\n", False),  # so are rationals
    ("a\t1.0\n", "b\t1.0\n", False),
    ("a\t1.0\n", "a\t1.0\t2.0\n", False),
    ("a\t1.0\n", "a\t1.0\nb\n", False),
])
def test_float_fields_compare_within_the_stated_tolerance(expected, actual, same):
    assert make.same_output(expected, actual) is same
