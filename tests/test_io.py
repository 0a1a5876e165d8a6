"""The distribution-file kernel: p/q lines give Fraction's doubles and errors."""

import math
import random
import struct
import sys
from decimal import Context, Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gentropy import io
from gentropy.io import InputFormatError, _parse_number, _read_values, format_float, read_distribution_file


def fraction_parse(token):
    """The reference: each p/q through Fraction, each decimal through float."""
    token = token.strip()
    if "/" in token:
        return float(Fraction(token))
    return float(token)


def outcome(parse, token):
    """The double's bits, or the class of the exception raised."""
    try:
        return struct.pack("<d", parse(token))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc)


# Arabic-Indic three, Bengali four and fullwidth zero are decimal digits that
# int() and Fraction both take; superscript two is a digit neither takes.
DIGITS = "0123456789" + "٣৪０"
# inserted at the slash, or after the denominator
NEAR_MISSES = ("", "", "", " ", "-", "+", "_", "__", "/", ".", ".5", "e3", "²", "/3")
LONG = sys.int_info.str_digits_check_threshold


@st.composite
def digit_runs(draw):
    """Digits in underscore groups as in Python, now and then over int()'s
    length checks (up to past the default 4,300-digit limit)."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from("1٣")) * draw(st.integers(LONG, 5000))
    groups = st.text(alphabet=DIGITS, min_size=1, max_size=12)
    return "_".join(draw(st.lists(groups, min_size=1, max_size=3)))


@st.composite
def ratio_tokens(draw):
    sign = draw(st.sampled_from(("", "-", "+", " ")))
    num, den = draw(digit_runs()), draw(digit_runs())
    before, after, tail = (draw(st.sampled_from(NEAR_MISSES)) for _ in range(3))
    return f"{sign}{num}{before}/{after}{den}{tail}"


decimal_tokens = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(("1e400", "-0.0", "1_000.5", "0x10", ".", "", " 0.25 ")),
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(token=st.one_of(ratio_tokens(), decimal_tokens))
@example(token="1" + "0" * 400 + "/1")  # overflows a float
@example(token="0/0")
@example(token="1/" + "1" * 5000)  # over int()'s digit limit
def test_parse_number_matches_fraction(token):
    assert outcome(_parse_number, token) == outcome(fraction_parse, token)


# splitlines' breaks: text mode reads \r\n and \r as \n, and leaves the others
SEPARATORS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85")
plain_tokens = st.one_of(
    st.builds("{}/{}".format, st.integers(0, 10 ** 16), st.integers(0, 10 ** 16)),
    st.floats(0, 1).map(repr),
)


@st.composite
def file_texts(draw):
    """Lines of tokens, comments and blanks, now and then after about a chunk of p/q lines.

    Half the files hold only plain tokens, and half only the breaks that
    text mode reads as \\n: a bulk reader reads a file of both without help.
    """
    plain = draw(st.booleans())
    tokens = plain_tokens if plain else st.one_of(ratio_tokens(), decimal_tokens, plain_tokens)
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        token = draw(tokens)
        pad, comment = draw(st.sampled_from(("", " ", "\t ", "\x1f"))), draw(st.sampled_from(("", "#", " # c")))
        lines.append(draw(st.sampled_from((f"{pad}{token}{pad}{comment}", "", "   ", "# note"))))
    # 16 characters a line: 4096 lines fill a chunk of 1 << 16
    head = "1/3 # padding\n  " * draw(st.one_of(st.just(0), st.just(0), st.integers(4_080, 4_100)))
    separators = st.sampled_from(draw(st.sampled_from((SEPARATORS[:3], SEPARATORS))))
    return head + "".join(line + draw(separators) for line in lines) + draw(st.sampled_from(("", "0.5")))


def per_line_reference(text, path, parse, noun):
    """The values' bytes, or the message naming the first malformed line."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            try:
                values.append(parse(line))
            except (ValueError, ZeroDivisionError, OverflowError):
                return f"{path}:{lineno}: malformed {noun} {line!r}"
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=file_texts())
@example(text="0.5 # c\x0c0.25")  # one value if comments go before the split at \x0c
@example(text="1/2\r\n 1_0/3\n")
@example(text="0.5\n3/0\n")
@example(text="12/3e3\n0.5\n")
@example(text="0." + "0" * 70_000 + "5\n1/2\n")  # one line longer than a chunk
@example(text="0.5\n# note\n0.25\n1e-1\n0.15")  # no p/q at all: no mask
@example(text="0.5 \n1/2\n")  # a padded line
@example(text="0.5 0.25\n")  # two tokens on one line
@example(text="0.5 # a/b\n0.5\n")  # a slash only in a comment
@example(text="1/2\n\n\n0.5\n")
def test_whole_files_read_as_line_by_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("files") / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    for noun, value, parse in (("distribution", "probability", _parse_number), ("energy", "energy", float)):
        try:
            got = _read_values(str(path), noun).tobytes()
        except InputFormatError as exc:
            got = str(exc)
        assert got == per_line_reference(text, path, parse, value)


def test_benchmark_shaped_file_reads_in_bulk(tmp_path, monkeypatch):
    # a comment header, then half repr(w / total) and half w/total, over three chunks of 1 << 16
    rng = random.Random(41)
    weights = [rng.randint(1, 1000) for _ in range(10_000)]
    total = sum(weights)
    lines = [f"{w}/{total}" if rng.random() < 0.5 else repr(w / total) for w in weights]
    text = "# generated distribution\n" + "\n".join(lines) + "\n"
    assert 2 * io._CHUNK < len(text) < 3 * io._CHUNK
    path = tmp_path / "dist.txt"
    path.write_text(text)
    chunks, parse_lines = [], io._parse_lines

    def spy(*args):
        chunks.append(parse_lines(*args))
        return chunks[-1]

    monkeypatch.setattr(io, "_parse_lines", spy)
    got = _read_values(str(path), "distribution").tobytes()
    assert len(chunks) == 4 and all(values is not None for values in chunks)  # the last, empty, after the final \n
    assert got == per_line_reference(text, path, _parse_number, "probability")


def test_mixed_file_reads_to_the_fraction_floats(tmp_path):
    rng = random.Random(10)
    weights = [rng.randint(1, 1000) for _ in range(10_000)]
    total = sum(weights)
    lines, want = ["# mixed distribution"], []
    for w in weights:
        token = f"{w}/{total}" if rng.random() < 0.5 else repr(w / total)
        want.append(fraction_parse(token))
        lines.append(rng.choice(("{}", "  {}\t", "{}  # inline", "{}#")).format(token))
        if rng.random() < 0.05:
            lines.append(rng.choice(("", "   ", "# comment", "#")))
    path = tmp_path / "mixed.txt"
    path.write_text("\n".join(lines) + "\n")
    assert read_distribution_file(str(path)).p.tolist() == want


# exact: a double and the midpoint after it have at most 1,075 significant digits
EXACT = Context(prec=2_000)


def midpoint(x):
    """The midpoint between x > 0 and the next double up, exactly."""
    return EXACT.divide(EXACT.add(Decimal(x), Decimal(math.nextafter(x, math.inf))), 2)


@st.composite
def midpoint_texts(draw):
    """A midpoint between adjacent doubles, exactly or as its nearest 17 to 19 digits.

    The doubles from 2**49 up have short midpoints, and their 19-digit
    neighbours lie within a long double's rounding of the midpoint.  The
    exponent moves the point by -5 to 5 places.
    """
    x = draw(st.one_of(st.floats(2.0 ** 49, 2.0 ** 63), st.floats(1e-30, 1e30)))
    mid = midpoint(x)
    digits = draw(st.sampled_from((None, 17, 18, 19)))
    if digits is not None:
        mid = mid.quantize(Decimal(1).scaleb(mid.adjusted() - digits + 1), context=EXACT)
    shift = draw(st.integers(-5, 5))
    return format(mid.scaleb(-shift), "f") + (f"e{shift}" if shift else "")


@st.composite
def scaled_texts(draw):
    """[+-](D+[.D*]|.D+)[(e|E)[+-]D+] with long or zero-led mantissas and exponents near and far past +-27."""
    digits = "0" * draw(st.integers(0, 4)) + draw(st.one_of(
        st.text("0123456789", min_size=1, max_size=17),
        st.text("0123456789", min_size=18, max_size=19),
        st.text("0123456789", min_size=20, max_size=40)))
    point = draw(st.one_of(st.none(), st.integers(0, len(digits))))
    mantissa = digits if point is None else f"{digits[:point]}.{digits[point:]}"
    exponent = draw(st.one_of(st.integers(-60, 60), st.integers(-10 ** 25, 10 ** 25), st.none()))
    if exponent is not None:
        sign = draw(st.sampled_from(("", "+"))) if exponent >= 0 else "-"
        mantissa += f"{draw(st.sampled_from('eE'))}{sign}{abs(exponent)}"
    return draw(st.sampled_from(("", "+", "-"))) + mantissa


decimal_files = st.lists(st.one_of(scaled_texts(), midpoint_texts(),
                                   st.floats(allow_nan=False, allow_infinity=False).map(repr),
                                   st.sampled_from(("5.", ".5", "+.5", "-0", "-0.0", "0e999", "1e-400"))),
                         max_size=40).map("\n".join)


# enough lines that the kernel, not the per-line loop, reads the file
FILL = "0.25\n" * io._FEW


def reads_as_line_by_line(tmp_path_factory, text):
    """Each file noun's values of text, or the error naming its first malformed line, are the per-line loop's."""
    path = tmp_path_factory.mktemp("files") / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    for noun, value, parse in (("distribution", "probability", _parse_number), ("energy", "energy", float)):
        try:
            got = _read_values(str(path), noun).tobytes()
        except InputFormatError as exc:
            got = str(exc)
        assert got == per_line_reference(text, path, parse, value)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=decimal_files)
@example(text="5.\n.5\n+.5\n-0")
@example(text="9007199254740993\n9007199254740993e0\n900719925474099.3e1")  # 2**53 + 1, a midpoint
@example(text="0.5965744278944853795e5\n0.002491603593680365103e3")  # long doubles on a midpoint
@example(text="1e27\n1e28\n1e-27\n1e-28\n9223372036854775806\n9223372036854775807\n-9223372036854775808")
@example(text="1e-9223372036854775808\n1e99999999999999999999\n0e-99999999999999999999")
def test_decimals_read_as_float_reads_them(tmp_path_factory, text):
    text = FILL + text
    assert io._parse_lines(text) is not None  # the kernel takes every line
    reads_as_line_by_line(tmp_path_factory, text)


# each once read by a kernel that let one rule of its grammar slip
NEAR_MISS_LINES = (".", "-.", ".e5", "+.e-3", "1.2.3", "1e", "1E+", "e5", "E-3", "1e5e5", "1e5.5", "1-2", "5+",
                   "+", "-", "--5", "1/2/3", "/5", "5/", "1/-2", "-1/2", "+1/2", "1/2e3", "1/2.5", "1/0",
                   "83030920993190389/10094652364241860", "1/1234567890123456", "123456789012345678901/1",
                   "1_000", "0x10", "inf", "nan", "1 2", "1\x1f2")


@pytest.mark.parametrize("line", NEAR_MISS_LINES)
def test_a_line_outside_the_grammar_is_left_to_the_per_line_loop(tmp_path_factory, line):
    text = FILL + line + "\n"
    assert io._parse_lines(text) is None
    reads_as_line_by_line(tmp_path_factory, text)


def test_scaled_takes_every_exact_operand_pair():
    powers = io._tables().powers
    if powers is None:
        pytest.skip("this platform's long double cannot hold 10**27 exactly")
    m = [1, 5, 7, 7, 10 ** 18, 2 ** 63 - 2, -(2 ** 63 - 2), 0, 9007199254740993, 1]
    e = [27, -27, 26, -26, 0, 0, 0, -27, 0, 28]
    d, slow = io._scaled(np.array(m), np.array(e), powers)
    # 2**53 + 1 is a midpoint, and 10**28 no exact long double
    assert slow.tolist() == [False] * 8 + [True, True]
    assert d[:-1].tolist() == [abs(float(Fraction(a) * Fraction(10) ** b)) for a, b in zip(m[:-1], e[:-1])]


def test_long_double_powers_are_exact():
    powers = io._tables().powers
    if powers is None:
        pytest.skip("this platform's long double cannot hold 10**27 exactly")
    assert [int(p) for p in powers] == [10 ** k for k in range(io._POWER + 1)]
    assert 5 ** io._POWER < 2 ** 63


TABLES = io._tables


def float_only():
    """The kernel's tables with the long-double route off, as where long doubles cannot hold 10**27."""
    return TABLES()._replace(powers=None)


@pytest.mark.parametrize("tables", [TABLES, float_only], ids=["long double", "float() only"])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=st.one_of(file_texts(), decimal_files))
@example(text="0.5965744278944853795e5\n1/3\n-0\n")
def test_files_read_the_same_with_the_long_double_route_on_or_off(tmp_path_factory, tables, text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_tables", tables)
        reads_as_line_by_line(tmp_path_factory, FILL + text)


@pytest.mark.parametrize("lines, bulk", [(io._FEW - 1, False), (io._FEW, True)])
def test_a_file_of_few_lines_is_read_line_by_line(tmp_path, monkeypatch, lines, bulk):
    path = tmp_path / "f.txt"
    path.write_text("1/4\n0.75\n" + "0\n" * (lines - 2))
    calls = []
    monkeypatch.setattr(io, "_parse_lines", lambda *args: calls.append(args))
    assert _read_values(str(path), "distribution").tolist() == [0.25, 0.75] + [0.0] * (lines - 2)
    assert bool(calls) == bulk


def test_format_float_non_finite():
    cases = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")]
    assert [format_float(x) for x in cases] == ["nan", "inf", "-inf", "nan", "-inf"]


def test_tsv_table_of_mixed_columns_is_tsv_line_row_by_row():
    # a column of more types than int or float is formatted by "%s" of each value's format_value text
    row = [3, True, "x", Fraction(-1, 3), np.float64(0.1), math.inf]
    columns = [row[k:] + row[:k] for k in range(len(row))]
    for digits in (17, 5):
        lines = [io.tsv_line(*fields, digits=digits) for fields in zip(*columns)]
        assert io.tsv_table(*columns, digits=digits) == "\n".join(lines)
