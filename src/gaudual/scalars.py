"""Exact rational scalars.

All ground constants (marked points, frequencies, the parameter mu) are
`fractions.Fraction` values; nothing in the package touches floats.
Coefficient dicts keep a coefficient as `int` when integral and as
`Fraction` otherwise (`normalized`).
"""

from __future__ import annotations

from fractions import Fraction

Q = Fraction


def rat(value) -> Fraction:
    """Coerce ints, strings like ``"-3/2"``, or Fractions to a Fraction; a
    string with a zero denominator raises ValueError, and a bool (an int to
    Python, but a JSON true or false is no rational) raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def normalized(terms: dict) -> dict:
    """Drop zero coefficients and store integral Fractions as ints; other
    coefficients (ints, MultiPolys) are kept as they are."""
    values = terms.values()
    if Fraction in set(map(type, values)):
        return {k: c.numerator if type(c) is Fraction and c.denominator == 1 else c
                for k, c in terms.items() if c}
    return dict(terms) if all(values) else {k: c for k, c in terms.items() if c}
