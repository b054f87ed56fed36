"""Exception types shared across the package.

Two failure families are kept apart on purpose: bad input that a caller can
fix (`ValidationError`) and a violated mathematical invariant that signals
corrupt data or a genuine bug (`ConsistencyError`).  The command line maps
them to distinct exit codes.  `describe` renders the numbers in their
messages.
"""

from fractions import Fraction
from typing import Union


class ValidationError(ValueError):
    """Input rejected before any computation ran."""


class ConsistencyError(ArithmeticError):
    """An exact cross-check that is mathematically guaranteed failed."""


def describe(value: Union[int, Fraction, list]) -> str:
    """str(value), with an int past the int-to-str digit limit as <integer of N bits>.

    Never raises, so a message about huge integers can always be built;
    under the limit it is exactly str(value).
    """
    try:
        return str(value)
    except ValueError:
        pass
    if isinstance(value, list):
        return "[" + ", ".join(describe(item) for item in value) + "]"
    if isinstance(value, Fraction):
        text = describe(value.numerator)
        return text if value.denominator == 1 else f"{text}/{describe(value.denominator)}"
    return f"<integer of {value.bit_length()} bits>"
