"""Parsing of distribution / energy files and TSV formatting helpers."""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import chain, compress, repeat

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
# the ASCII line breaks of str.splitlines besides \n and \r
_SEPARATORS = "\x0b\x0c\x1c\x1d\x1e"
# the rest of the ASCII whitespace of str.split and str.strip, \n aside
_PADDING = " \t\r\x1f"
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # inverts a 0/1 byte mask
_COMMENT = re.compile("#.*")
# p/q lines whose operands are exact in int64 and in float64
_RATIOS = re.compile(r"[0-9]{1,15}/[0-9]{1,15}(?:\n[0-9]{1,15}/[0-9]{1,15})*")

# file noun -> (value noun, parser of one line)
_FILES = {"distribution": ("probability", _parse_number), "energy": ("energy", float)}


def _parse_lines(text: str, ratios: bool) -> np.ndarray | None:
    """The values of the \\n-separated lines of text, parsed in C-level batches.

    None where the per-line loop of ``_read_values`` must decide: text that
    is not ASCII or holds another line break of str.splitlines, a line that
    does not parse, or a p/q line that is not 1 to 15 digits over 1 to 15
    digits with a nonzero denominator, or any p/q where ``ratios`` is false.
    The operands of such a p/q are exact doubles, so their quotient is the
    correctly rounded int / int of ``_parse_number``.  Every other line goes
    through float().

    Where no line is padded, one split() gives the tokens; the decimals are
    parsed straight into an array, and into place among the p/q by one byte
    mask.
    """
    if not text.isascii() or any(sep in text for sep in _SEPARATORS):
        return None
    if "#" in text:
        text = _COMMENT.sub("", text)
    if any(pad in text for pad in _PADDING):
        tokens = list(filter(None, map(str.strip, text.split("\n"))))
    else:
        tokens = text.split()
    try:
        if "/" not in text:
            return np.fromiter(map(float, tokens), float, len(tokens))
        slash = bytes(map(operator.contains, tokens, repeat("/")))
        pq = "\n".join(compress(tokens, slash))
        if not ratios or not _RATIOS.fullmatch(pq):
            return None
        num, den = np.fromstring(pq.replace("/", "\n"), dtype=np.int64, sep="\n").reshape(-1, 2).T
        if not den.all():
            return None
        is_ratio = np.frombuffer(slash, dtype=bool)
        values = np.empty(len(tokens))
        values[is_ratio] = num / den
        decimals = compress(tokens, slash.translate(_FLIP))
        values[~is_ratio] = np.fromiter(map(float, decimals), float, len(tokens) - len(num))
    except ValueError:
        return None
    return values


def _bulk_values(fh, ratios: bool) -> np.ndarray | None:
    """``_parse_lines`` of a text file in chunks of whole lines; None where it gives up.

    Text mode reads \\r and \\r\\n as \\n.  A line longer than a chunk is
    also left to the per-line loop.
    """
    parts, carry = [], ""
    while block := fh.read(_CHUNK):
        lines, _, carry = (carry + block).rpartition("\n")
        if len(carry) > _CHUNK:
            return None
        parts.append(_parse_lines(lines, ratios))
        if parts[-1] is None:
            return None
    parts.append(_parse_lines(carry, ratios))
    return None if parts[-1] is None else np.concatenate(parts)


def _read_values(path: str, file_noun: str) -> np.ndarray:
    """The number on each line of a file; '#' starts a comment.

    The per-line loop below decides every file that ``_bulk_values`` gives
    up on, and names its first malformed line.
    """
    value_noun, parse = _FILES[file_noun]
    try:
        with open(path, encoding="utf-8") as fh:
            values = _bulk_values(fh, parse is _parse_number)
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
