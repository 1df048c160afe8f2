"""Exact arithmetic building blocks: scalar helpers, the package's record
bases, and the names of the structured values.

This module holds only scalar code, which every command compiles.
`Polynomial`, `RationalFunction`, `poly_gcd` and `PowerSeries` are
defined in `ring`, which runs on first use: a command whose values are
all rational never compiles it.  They are listed in `__all__` here, and
reading one from this module runs `ring`.  Where a value may be
rational, the code below tests for a scalar before it names a ring
class, so rational values never run `ring`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import ring

__all__ = [
    "VariableMismatchError",
    "binomial",
    "Polynomial",
    "poly_gcd",
    "RationalFunction",
    "PowerSeries",
    "exact_divide",
]


def __getattr__(name: str):
    # The names in `__all__` that this module does not define are `ring`'s.
    if name in __all__:
        return getattr(ring, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class VariableMismatchError(ValueError):
    """Two symbolic values used different variable names."""


_set = object.__setattr__


class _Frozen:
    """Base of the package's record classes: `__init__` stores each field
    with `_set`, and any later assignment raises.  `__slots__` lists the
    fields in `__init__` order, so copy and pickle rebuild a record by
    calling its class."""

    __slots__ = ()

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        return type(self), self._fields()


class _Value(_Frozen):
    """A record that compares and hashes by its fields."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, 0 outside the triangle 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _is_scalar(value) -> bool:
    return isinstance(value, (int, Fraction))


def _cleared(*parts):
    """Sequences of ints and Fractions (coefficients, matrix entries, moments)
    as int lists over their lcm, with that scale; any other element leaves
    them as they are, with scale None: the kernels' one test for numbers."""
    if not all(_is_scalar(c) for part in parts for c in part):
        return parts, None
    den = math.lcm(*(c.denominator for part in parts for c in part))
    return [[c.numerator * (den // c.denominator) for c in part] for part in parts], den


def exact_divide(value, divisor):
    """Division that must come out exact; the fraction-free elimination
    steps rely on this and a failure indicates an internal bug."""
    if isinstance(value, int) and isinstance(divisor, int):
        quot, rem = divmod(value, divisor)
        if rem:
            raise ArithmeticError(
                f"inexact integer division: {value} by {divisor} (internal error)"
            )
        return quot
    if _is_scalar(value) or not isinstance(value, ring.Polynomial):
        return value / divisor
    return value.exact_div(divisor)

