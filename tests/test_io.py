"""The distribution-file kernel: p/q lines give Fraction's doubles and errors."""

import math
import random
import struct
import sys
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
def test_whole_files_read_as_line_by_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("files") / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    for noun, value, parse in (("distribution", "probability", _parse_number), ("energy", "energy", float)):
        try:
            got = _read_values(str(path), noun).tobytes()
        except InputFormatError as exc:
            got = str(exc)
        assert got == per_line_reference(text, path, parse, value)


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


def test_format_float_non_finite():
    cases = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")]
    assert [format_float(x) for x in cases] == ["nan", "inf", "-inf", "nan", "-inf"]
