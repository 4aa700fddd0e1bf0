"""Exact rationals: text parsing and formatting, and integer rows.

All numeric work in this package happens over arbitrary-precision rationals.
Where a value may be minus infinity (a table entry excluded by an indicator,
or the maximum of a family that excludes every state) it is stored as
``None``; integer sweeps read it as a stand-in below every finite total
(``fmdp.elim.Scaled``).  There is no positive infinity.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InvalidInputError

__all__ = ["parse_rational", "format_rational", "over_one_den"]

# Forms ``Fraction`` would take but this package never writes: an exponent
# (a 12-byte "1e999999999" costs a power of ten with a billion digits), a
# digit separator, or a digit outside ASCII.
_REFUSED = re.compile(r"[eE_]|(?![0-9])\d")
_DIGITS = re.compile(r"[0-9]+")


def _digit_limit() -> str:
    return f"Python's limit of {sys.get_int_max_str_digits()} decimal digits per integer"


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer literal, or an exact decimal like "0.9".

    Decimal literals become the exact fraction they denote (0.9 is 9/10),
    never a binary float.  Exponents, ``_`` separators and digits outside
    ASCII are refused, and so is a run of digits longer than Python's
    limit for converting text to an integer.
    """
    try:
        if _REFUSED.search(text):
            raise ValueError(text)
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        limit = sys.get_int_max_str_digits()
        if limit and max(map(len, _DIGITS.findall(text)), default=0) > limit:
            raise InvalidInputError(
                f"not a rational: a {len(text)}-character token exceeds {_digit_limit()}"
            ) from exc
        raise InvalidInputError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction | int) -> str:
    """Render as "p/q", dropping the denominator when it is 1.  A value
    with more digits than Python converts is refused."""
    try:
        return str(Fraction(value))
    except ValueError as exc:
        raise InvalidInputError(f"cannot format a rational: it exceeds {_digit_limit()}") from exc


def over_one_den(
    rows: Sequence[Sequence[Fraction | None]],
) -> tuple[tuple[tuple[int | None, ...], ...], int]:
    """Rational rows as integer rows over their least common denominator,
    with ``None`` (minus infinity) kept: the integer rows and that
    denominator."""
    den = lcm(*{q.denominator for row in rows for q in row if q is not None})
    ints = []
    for r in rows:
        ints.append(tuple([None if q is None else q.numerator * (den // q.denominator) for q in r]))
    return tuple(ints), den
