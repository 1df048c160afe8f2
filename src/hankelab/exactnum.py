"""Exact arithmetic building blocks: scalar helpers, the package's record
bases, truncated power series, and the names of the polynomial ring.

`Polynomial`, `RationalFunction` and `poly_gcd` are defined in `ring`,
which runs on first use: a command whose values are all rational never
compiles it.  They are listed in `__all__` here, and reading one from
this module runs `ring`.  Where a value may be rational, the code below
tests for a scalar before it names a ring class, so rational values
never run `ring`.
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


def _power(base, exponent: int):
    """base ** exponent for exponent >= 1 by repeated squaring, with no
    product by the unit and no square past the top bit."""
    result = None
    while True:
        if exponent & 1:
            result = base if result is None else result * base
        exponent >>= 1
        if not exponent:
            return result
        base = base * base


def _cleared(*parts):
    """Sequences of ints and Fractions (coefficients, matrix entries,
    moments) as integer lists over one common denominator, with that
    denominator.  Any other element leaves them as they are, over 1."""
    if not all(_is_scalar(c) for part in parts for c in part):
        return parts, 1
    den = math.lcm(*(c.denominator for part in parts for c in part))
    return [[c.numerator * (den // c.denominator) for c in part] for part in parts], den


class PowerSeries:
    """Truncated power series: coefficients 0..order are exact.

    Binary operations truncate to the shorter operand, and equality
    compares the shared prefix only.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        clean = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        if not all(isinstance(c, Fraction) for c in clean):
            kinds = (Fraction, ring.Polynomial, ring.RationalFunction)
            for c in clean:
                if not isinstance(c, kinds):
                    raise TypeError(f"bad series coefficient: {c!r}")
        if not clean:
            raise ValueError("a series needs at least its constant term")
        self.coeffs = tuple(clean)

    @classmethod
    def constant(cls, value, order: int) -> "PowerSeries":
        return cls([value] + [0] * order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls.constant(1, order)

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls.constant(0, order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        return self.coeffs[n]

    def truncate(self, order: int) -> "PowerSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} series to {order}")
        return PowerSeries(self.coeffs[: order + 1])

    # zip stops at the shorter operand, which is the truncation.
    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return PowerSeries([x + y for x, y in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return PowerSeries([x - y for x, y in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            if _is_scalar(other) or isinstance(
                    other, (ring.Polynomial, ring.RationalFunction)):
                return PowerSeries([c * other for c in self.coeffs])
            return NotImplemented
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            for j in range(n + 1 - i):
                out[i + j] = out[i + j] + self.coeffs[i] * other.coeffs[j]
        return PowerSeries(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series power needs an integer exponent >= 0")
        if not exponent:
            return PowerSeries.one(self.order)
        return _power(self, exponent)

    def invert(self) -> "PowerSeries":
        """Multiplicative inverse; the constant term must be a nonzero scalar."""
        a0 = self.coeffs[0]
        if not _is_scalar(a0) and isinstance(a0, ring.Polynomial):
            if a0.degree > 0:
                raise TypeError("series inverse needs a scalar constant term")
            a0 = a0.constant_term
        if not a0:
            raise ZeroDivisionError("series inverse with zero constant term")
        inv0 = Fraction(1) / a0
        out = [inv0]
        for n in range(1, self.order + 1):
            total = Fraction(0)
            for k in range(1, n + 1):
                total = total + self.coeffs[k] * out[n - k]
            out.append(-inv0 * total)
        return PowerSeries(out)

    def shift_up(self, k: int) -> "PowerSeries":
        if k < 0:
            raise ValueError("shift must be >= 0")
        return PowerSeries((Fraction(0),) * k + self.coeffs)

    def shift_down(self, k: int) -> "PowerSeries":
        if k < 0:
            raise ValueError("shift must be >= 0")
        if k > self.order:
            raise ValueError("shift past series order")
        for c in self.coeffs[:k]:
            if c:
                raise ValueError("shift_down would drop a nonzero coefficient")
        return PowerSeries(self.coeffs[k:])

    def compose_monomial(self, scale, k: int) -> "PowerSeries":
        """Substitute z -> scale * z^k (k >= 1)."""
        if k < 1:
            raise ValueError("monomial substitution needs k >= 1")
        out = [Fraction(0)] * (k * self.order + k)
        power = Fraction(1) if _is_scalar(scale) else scale**0
        for n, c in enumerate(self.coeffs):
            out[k * n] = c * power
            power = power * scale
        return PowerSeries(out)

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return all(self.coeffs[i] == other.coeffs[i] for i in range(n + 1))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order >= 6 else ""
        return f"PowerSeries([{head}{tail}] order={self.order})"


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

