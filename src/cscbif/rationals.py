"""Small helpers around exact rational arithmetic.

Classification is done end to end in exact arithmetic whenever the
inputs are rational; these helpers centralize parsing and formatting.
Floats that enter through configuration files are converted through their
shortest decimal representation, so `0.05` means 1/20 and not the nearest
binary double.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidArgumentError

def as_rational(value) -> Fraction:
    """Coerce `value` to an exact Fraction.

    Accepts ints, Fractions, and strings such as "3", "1/4", "0.05",
    "5e-4".  Floats are read back through `str`, i.e. by their shortest
    round-tripping decimal literal.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidArgumentError(f"expected a rational number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvalidArgumentError(f"non-finite value {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidArgumentError(f"cannot parse rational {value!r}") from exc
    raise InvalidArgumentError(f"expected a rational number, got {type(value).__name__}")


def fmt_number(value) -> str:
    """Canonical text form: integers plainly, other rationals as "p/q",
    floats with 17 significant digits (round-trip exact)."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    raise InvalidArgumentError(f"cannot format {type(value).__name__} as a number")
