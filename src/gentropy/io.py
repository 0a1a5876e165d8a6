"""Parsing of distribution / energy files and TSV formatting helpers."""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

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


def _read_values(path: str, parse, file_noun: str, value_noun: str) -> list[float]:
    """parse() of each line of a file; '#' starts a comment."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise InputFormatError(f"cannot read {file_noun} file {path!r}") from exc
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
    return values


def read_distribution_file(path: str) -> Distribution:
    """One probability per line, decimal or p/q; '#' starts a comment."""
    values = _read_values(path, _parse_number, "distribution", "probability")
    try:
        return Distribution(values)
    except DistributionError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def read_energy_file(path: str) -> list[float]:
    """One real energy level per line; '#' starts a comment."""
    values = _read_values(path, float, "energy", "energy")
    if not values:
        raise InputFormatError(f"{path}: no energy levels found")
    return values


_DIGITS = 17


def format_float(x: float, digits: int = _DIGITS) -> str:
    """Stable decimal rendering with a given number of significant digits.

    Round-trips bit-for-bit at the default 17 digits.
    """
    if isinstance(x, float) and not math.isfinite(x):
        return str(x)
    return f"{float(x):.{digits - 1}e}" if digits <= 17 else repr(float(x))


def format_value(x, digits: int = _DIGITS) -> str:
    """Rationals exactly as p/q, everything else through format_float."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, int, str)):
        return str(x)
    return format_float(x, digits)


def tsv_line(*fields, digits: int = _DIGITS) -> str:
    return "\t".join(format_value(f, digits) for f in fields)
