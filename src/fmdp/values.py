"""Exact rational text: parsing and formatting.

All numeric work in this package happens over arbitrary-precision rationals.
Where a value may be minus infinity (a table entry excluded by an indicator,
or the maximum of a family that excludes every state) it is stored as
``None``; integer sweeps read it as a stand-in below every finite total
(``fmdp.elim.Scaled``).  There is no positive infinity.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidInputError

__all__ = ["parse_rational", "format_rational"]

# Forms ``Fraction`` would take but this package never writes: an exponent
# (a 12-byte "1e999999999" costs a power of ten with a billion digits), a
# digit separator, or a digit outside ASCII.
_REFUSED = re.compile(r"[eE_]|(?![0-9])\d")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer literal, or an exact decimal like "0.9".

    Decimal literals become the exact fraction they denote (0.9 is 9/10),
    never a binary float.  Exponents, ``_`` separators and digits outside
    ASCII are refused.
    """
    try:
        if _REFUSED.search(text):
            raise ValueError(text)
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction | int) -> str:
    """Render as "p/q", dropping the denominator when it is 1."""
    return str(Fraction(value))
