"""Exception types and the frozen record base shared across the package.

Two failure families are kept apart on purpose: bad input that a caller can
fix (`ValidationError`) and a violated mathematical invariant that signals
corrupt data or a genuine bug (`ConsistencyError`).  The command line maps
them to distinct exit codes.  `describe` renders the numbers in their
messages.  `_Frozen` gives the package's record classes immutable value
semantics in plain methods, so importing the package neither loads a
class generator (the standard library's pulls in inspect, ast and dis)
nor compiles generated methods.
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


class _Frozen:
    """Equality, hash, repr and immutability over a subclass's fields.

    A subclass names its fields, in order, in __match_args__ (which also
    serves `match` statements) and its __init__ stores them in the
    instance __dict__.  Instances then equal only instances of the same
    class with equal fields, hash as the tuple of their fields, repr as
    Name(field=value, ...), and raise AttributeError on assigning or
    deleting an attribute.  pickle and copy restore the __dict__
    directly, so they bypass __setattr__; __slots__ would make them call
    it and fail.
    """

    __match_args__: tuple[str, ...]

    def _values(self) -> tuple:
        fields = self.__dict__
        return tuple([fields[name] for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = self.__dict__
        shown = ", ".join(f"{name}={fields[name]!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
