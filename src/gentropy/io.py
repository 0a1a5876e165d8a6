"""Parsing of distribution / energy files and TSV formatting helpers."""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from ._lazy import np
from .catalog import Distribution, DistributionError


class InputFormatError(ValueError):
    """Malformed input file or literal; carries the offending location."""


def _parse_number(token: str) -> float:
    """A decimal, or p/q in Fraction's grammar rounded once to a double.

    int / int is correctly rounded: the double of float(Fraction(token)).
    """
    num, slash, den = token.strip().partition("/")
    if not slash:
        return float(num)
    # int() would take the space or sign at the slash that Fraction rejects
    if num[-1:].isdecimal() and den[:1].isdecimal():
        return int(num) / int(den)
    raise ValueError(f"malformed ratio {token!r}")


def parse_distribution(text: str) -> Distribution:
    """A distribution from the 'uniform:W' shorthand or a file path."""
    if text.startswith("uniform:"):
        try:
            W = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise InputFormatError(f"bad uniform shorthand {text!r}") from exc
        return Distribution.uniform(W)
    return read_distribution_file(text)


_CHUNK = 1 << 16
# below this many lines the per-line loop reads a file in less time than the kernel's fixed 0.1 ms or so
_FEW = 256
# the ASCII line breaks of str.splitlines besides \n and \r
_SEPARATORS = "\x0b\x0c\x1c\x1d\x1e"
# the rest of the ASCII whitespace of str.split and str.strip, \n aside
_PADDING = " \t\r\x1f"
_COMMENT = re.compile("#.*")
# a line's digit fields, one a line for np.fromstring: '.' is deleted, and '/', e and E break the line
_FIELDS = bytes.maketrans(b"/eE", b"\n\n\n")

# the classes of a chunk's non-digit bytes: a line break, a sign before a mantissa or after e/E,
# '.', e or E, '/', and any other byte
_N, _S, _X, _P, _E, _R, _BAD = range(7)
_CLASSES = _BAD + 1
_RUN = 16  # digit runs told apart by their length: 0 to 15, and longer
_INT64_MAX = (1 << 63) - 1
# 10**27 = 2**27 5**27 with 5**27 < 2**63, so 10**0..10**27 and M < 2**63 are exact long doubles
_POWER = 27

# file noun -> (value noun, parser of one line)
_FILES = {"distribution": ("probability", _parse_number), "energy": ("energy", float)}


class _Tables(NamedTuple):
    classes: np.ndarray  # each byte's class
    # flat [min(digits between, _RUN), class before, class]: whether the grammar allows the delimiter
    allowed: np.ndarray
    powers: np.ndarray | None  # 10**0..10**_POWER as long doubles; None where those have under 64 bits


@functools.cache
def _tables() -> _Tables:
    """The kernel's tables, built on first use so that importing io executes no numpy."""
    classes = np.full(256, _BAD, np.uint8)
    for chars, cls in ((b"\n", _N), (b"+-", _S), (b".", _P), (b"eE", _E), (b"/", _R)):
        classes[list(chars)] = cls
    # the digits between two delimiters: none, any, at least one, or the 1 to 15 of a ratio operand
    zero, any_, some, operand = slice(0, 1), slice(0, None), slice(1, None), slice(1, 16)
    allowed = np.zeros((_RUN + 1, _CLASSES, _CLASSES), bool)
    for before, cls, digits in ((_N, _N, any_), (_N, _S, zero), (_N, _P, any_), (_N, _E, some),
                                (_S, _P, any_), (_S, _E, some), (_S, _N, some),
                                (_P, _E, any_), (_P, _N, any_),  # a digit on one side of '.' is checked apart
                                (_E, _X, zero), (_E, _N, some), (_X, _N, some),
                                (_N, _R, operand), (_R, _N, operand)):
        allowed[digits, before, cls] = True
    powers = None
    if np.finfo(np.longdouble).nmant >= 63:
        powers = np.cumprod(np.array([1] + [10] * _POWER, np.longdouble))
    return _Tables(classes, allowed.ravel(), powers)


def _scaled(m: np.ndarray, e: np.ndarray, powers: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """|m| 10**e rounded to doubles, and where float() must decide instead.

    Where |m| < 2**63 - 1 and |e| <= _POWER, both operands are exact long
    doubles, so the product or quotient is rounded once to the long double
    and once more to the double.  That is the correctly rounded double unless
    the long double x lies on a midpoint between two doubles, since rounding
    to the long double keeps a value on its side of every such midpoint.
    """
    if powers is None:
        return np.zeros(m.size), np.ones(m.size, bool)
    # np.fromstring reads an int64 field past the range as 2**63 - 1 (or -2**63), which this leaves out
    exact = (m > -_INT64_MAX) & (m < _INT64_MAX) & (e >= -_POWER) & (e <= _POWER)
    k = np.where(exact, e, 0)
    x = np.abs(m).astype(np.longdouble)
    p = powers[np.abs(k)]
    np.multiply(x, p, out=x, where=k > 0)
    np.divide(x, p, out=x, where=k < 0)
    d = x.astype(float)
    # a midpoint x is half a step from d to the next double on its side, so d + 2 (x - d) is that
    # double exactly; for any other x the sum rounds to d or to it, a step other than 2 (x - d)
    twice = 2 * (x - d).astype(float)
    return d, ~exact | ((twice != 0) & (d + twice - d == twice))


def _parse_lines(text: str) -> np.ndarray | None:
    """The values of the \\n-separated lines of text, parsed by one numpy kernel.

    None where the per-line loop of ``_read_values`` must decide: text that
    is not ASCII or holds another line break of str.splitlines, or a line,
    once comments and padding at its ends are cut, that is neither blank nor
    in the kernel's grammar, with D an ASCII digit: a decimal
    [+-](D+[.D*]|.D+)[(e|E)[+-]D+], or a ratio D{1,15}/D{1,15} with a
    nonzero denominator.  The operands of such a ratio are exact doubles, so
    their quotient is the correctly rounded int / int of ``_parse_number``.

    The grammar is checked on the bytes that are no digit, from the digits
    between each and the one before it.  One int64 parse reads every digit
    field; a decimal M 10**e is scaled by ``_scaled``, and float() of its
    own text decides where that cannot.
    """
    if not text.isascii() or any(sep in text for sep in _SEPARATORS):
        return None
    if "#" in text:
        text = _COMMENT.sub("", text)
    if any(pad in text for pad in _PADDING):
        text = "\n".join(map(str.strip, text.split("\n")))
    # blank lines only, as in the empty last piece of each \n-terminated file that _bulk_values passes:
    # the kernel gives the same empty array, but in about 55 us of numpy calls against 1 us here (x86-64)
    if not text or text.isspace():
        return np.empty(0)
    data = text.encode() + b"\n"
    tables = _tables()
    chars = np.frombuffer(data, np.uint8)
    at = (chars - 48 > 9).nonzero()[0]  # the delimiters: every byte that is no digit
    cls = tables.classes.take(chars.take(at))
    digits = at.copy()  # between each delimiter and the one before it
    digits[1:] -= at[:-1] + 1
    before = np.empty_like(cls)
    before[0], before[1:] = _N, cls[:-1]
    signs = ((cls == _S) & (before == _E)).nonzero()[0]
    cls[signs] = before[signs + 1] = _X
    dots = (cls == _P).nonzero()[0]
    pairs = (np.minimum(digits, _RUN) * _CLASSES + before) * _CLASSES + cls
    if not (tables.allowed.take(pairs).all() and (digits[dots] + digits[dots + 1]).all()):
        return None
    breaks = (cls == _N).nonzero()[0]
    ends = at[breaks]
    starts = np.empty_like(ends)
    starts[0], starts[1:] = 0, ends[:-1] + 1
    full = ends > starts
    breaks, starts, ends = breaks[full], starts[full], ends[full]
    # each line's fields: a mantissa or numerator, then an exponent or denominator
    last = before[breaks]
    ratio = last == _R
    exponent = (last == _E) | (last == _X)
    second = ratio | exponent
    first = np.arange(breaks.size) + np.cumsum(second) - second  # a field a line and one more a pair before it
    fields = np.fromstring(data.translate(_FIELDS, b"."), dtype=np.int64, sep="\n")
    m, n = fields[first], fields[first + second]
    if not n[ratio].all():
        return None
    values = np.empty(breaks.size)
    values[ratio] = m[ratio] / n[ratio]
    decimal = (~ratio).nonzero()[0]
    mantissa = (breaks - exponent - (last == _X))[decimal]  # the delimiter after each mantissa
    e = np.where(exponent[decimal], n[decimal], 0) - np.where(before[mantissa] == _P, digits[mantissa], 0)
    scaled, slow = _scaled(m[decimal], e, tables.powers)
    np.negative(scaled, out=scaled, where=chars[starts[decimal]] == ord("-"))
    values[decimal] = scaled
    for i in decimal[slow].tolist():
        values[i] = float(data[starts[i]:ends[i]])
    return values


def _bulk_values(fh) -> np.ndarray | None:
    """``_parse_lines`` of a text file in chunks of whole lines; None where it gives up.

    Text mode reads \\r and \\r\\n as \\n.  A line longer than a chunk is
    also left to the per-line loop, and so is a file shorter than a chunk
    with fewer than _FEW lines, which that loop reads in less time than the
    kernel's hundred-odd numpy calls take.
    """
    parts, carry = [], ""
    while block := fh.read(_CHUNK):
        if not parts and len(block) < _CHUNK and block.count("\n") < _FEW:
            return None
        lines, _, carry = (carry + block).rpartition("\n")
        if len(carry) > _CHUNK:
            return None
        parts.append(_parse_lines(lines))
        if parts[-1] is None:
            return None
    parts.append(_parse_lines(carry))
    return None if parts[-1] is None else np.concatenate(parts)


def _read_values(path: str, file_noun: str) -> np.ndarray:
    """The number on each line of a file; '#' starts a comment.

    Distribution files go to ``_bulk_values``; the per-line loop below reads
    energy files, which are short, and decides every file that
    ``_bulk_values`` gives up on, naming its first malformed line.
    """
    value_noun, parse = _FILES[file_noun]
    try:
        with open(path, encoding="utf-8") as fh:
            values = _bulk_values(fh) if parse is _parse_number else None
            if values is not None:
                return values
            fh.seek(0)
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputFormatError(f"cannot read {file_noun} file {path!r}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{file_noun} file {path!r} is not UTF-8 text") from exc
    values = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        try:
            values.append(parse(line))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise InputFormatError(
                f"{path}:{lineno}: malformed {value_noun} {line!r}"
            ) from exc
    return np.array(values, dtype=float)


def read_distribution_file(path: str) -> Distribution:
    """One probability per line, decimal or p/q; '#' starts a comment."""
    values = _read_values(path, "distribution")
    try:
        return Distribution(values)
    except DistributionError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def read_energy_file(path: str) -> list[float]:
    """One real energy level per line; '#' starts a comment."""
    values = _read_values(path, "energy")
    if not values.size:
        raise InputFormatError(f"{path}: no energy levels found")
    return values.tolist()


_DIGITS = 17


def format_float(x: float, digits: int = _DIGITS) -> str:
    """Stable decimal rendering with a given number of significant digits.

    Round-trips bit-for-bit at the default 17 digits.
    """
    return f"{float(x):.{digits - 1}e}" if digits <= 17 else repr(float(x))


def format_value(x, digits: int = _DIGITS) -> str:
    """Rationals exactly as p/q, everything else through format_float."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, int, str)):
        return str(x)
    return format_float(x, digits)


def _column_spec(column, digits: int) -> tuple[str, list]:
    """A column's % conversion and its values: ints and floats as they are, others as format_value texts."""
    column = column.tolist() if hasattr(column, "tolist") else list(column)  # an array
    types = set(map(type, column))
    if types <= {int}:
        return "%d", column
    if types <= {float}:
        # format_float's text: its .e format gives str() of inf and nan too
        return ("%r" if digits > 17 else f"%.{digits - 1}e"), column
    return "%s", [format_value(x, digits) for x in column]


def tsv_table(*columns, digits: int = _DIGITS) -> str:
    """Tab-separated rows, one per line, of the columns' format_value texts, formatted by one % operation."""
    specs = [_column_spec(c, digits) for c in columns]
    rows = list(zip(*(values for _, values in specs)))
    template = "\t".join(spec for spec, _ in specs)
    return "\n".join([template] * len(rows)) % tuple(chain.from_iterable(rows))


def tsv_line(*fields, digits: int = _DIGITS) -> str:
    """tsv_table of one row: the fields' format_value texts."""
    return "\t".join([format_value(f, digits) for f in fields])
