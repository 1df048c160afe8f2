"""Polynomials over Q, rational functions and truncated power series.

A polynomial over Q is stored as int numerators over one positive int
denominator, and every ring operation runs on those ints; `Fraction`s
appear only at the API edge (`Polynomial.coeffs`).  Two factors with at
least `_PACKED_MIN` numerators each multiply as one big int (Kronecker
substitution, `_packed_product`), so CPython's Karatsuba does the work of
the schoolbook loop.  A coefficient may also be a `RationalFunction` in
some *other* variable, which is how mixed values (polynomials in x with
coefficients in Q(t)) are handled without a full multivariate layer; such
coefficients stay objects, over 1, in the schoolbook loops.
A `PowerSeries` coefficient is a `Fraction`, a `Polynomial` or a
`RationalFunction`.

The package defers this module like its layers, so a command whose values
are all rational never runs it; all structured arithmetic lives here, and
`exactnum` keeps only scalar code.  Its public names are listed, and handed
out, by `exactnum`; package code reads them from this module object.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .exactnum import VariableMismatchError, _cleared, _is_scalar


# One term of polynomial text.  `Polynomial.parse` compiles it on first
# use (`re` caches the result), so no import pays for the compile.
_TERM = (
    r"\s*([+-])?\s*"
    r"(?:(\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?:([A-Za-z_]\w*)\s*(?:\^\s*(\d+))?)?"
)


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


def _coerced(op):
    """The binary operator op(self, rhs), `rhs` being the other operand made
    this class by `self._wrap_other`.  An operand it will not take gives
    NotImplemented, so Python reflects the operator or raises TypeError."""
    def coerced(self, other):
        rhs = self._wrap_other(other)
        return NotImplemented if rhs is None else op(self, rhs)
    return coerced


class Polynomial:
    """Dense univariate polynomial with exact coefficients.

    Coefficient i is ``nums[i] / den``: int numerators with trailing zeros
    trimmed (zero has none and degree -1) over an int den > 0 coprime to
    them, so equal polynomials store equal fields.  `RationalFunction`
    coefficients stay objects in ``nums``, over 1; `coeffs` is the
    `Fraction` view.  Constants carry no variable name (``var is None``)
    and mix freely with polynomials in any variable; combining two
    polynomials in different variables raises `VariableMismatchError`
    unless one operand is constant.
    """

    __slots__ = ("var", "nums", "den")

    def __init__(self, coeffs=(), var: str | None = None):
        (nums,), den = _cleared([self._coerce(c, var) for c in coeffs])
        if self._store(nums, den or 1, var).var is None and len(self.nums) > 1:
            raise ValueError("a nonconstant polynomial needs a variable")

    def _store(self, nums: list, den: int, var: str | None) -> "Polynomial":
        while nums and not nums[-1]:
            nums.pop()
        if den != 1 and (common := math.gcd(den, *nums)) != 1:
            nums = [c // common for c in nums]
            den //= common
        self.nums = tuple(nums)
        self.den = den
        self.var = var if len(nums) > 1 else None
        return self

    @staticmethod
    def _coerce(c, var):
        if _is_scalar(c):
            return c
        if isinstance(c, RationalFunction):
            if c.variable is None:
                return c.as_fraction()
            if var is not None and c.variable == var:
                raise VariableMismatchError(
                    f"coefficient in {var!r} inside a polynomial in {var!r}"
                )
            return c
        raise TypeError(f"bad polynomial coefficient: {c!r}")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def constant(cls, value) -> "Polynomial":
        return cls((value,))

    @classmethod
    def variable_poly(cls, name: str) -> "Polynomial":
        return cls((0, 1), name)

    @classmethod
    def monomial(cls, name: str, exponent: int, coeff=1) -> "Polynomial":
        if exponent < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls((0,) * exponent + (coeff,), name)

    @classmethod
    def parse(cls, text: str, var: str | None = None) -> "Polynomial":
        """Inverse of str() for rational coefficients: ``1 + 3*t - 2/5*t^3``."""
        src = text.strip()
        if src in ("", "0"):
            return cls.zero()
        terms: dict[int, Fraction] = {}
        term = re.compile(_TERM)
        pos = 0
        first = True
        while pos < len(src):
            m = term.match(src, pos)
            if not m or m.end() == pos or (m.group(2) is None and m.group(3) is None):
                raise ValueError(f"cannot parse polynomial {text!r} at offset {pos}")
            sign, number, name, power = m.groups()
            if sign is None and not first:
                raise ValueError(f"missing +/- in polynomial {text!r} at offset {pos}")
            coeff = Fraction(number) if number else Fraction(1)
            if sign == "-":
                coeff = -coeff
            if name is None:
                exponent = 0
            else:
                if var is None:
                    var = name
                elif name != var:
                    raise VariableMismatchError(
                        f"mixed variables {var!r} and {name!r} in {text!r}"
                    )
                exponent = int(power) if power else 1
            terms[exponent] = terms.get(exponent, Fraction(0)) + coeff
            pos = m.end()
            first = False
        size = max(terms) + 1
        coeffs = [terms.get(i, Fraction(0)) for i in range(size)]
        return cls(coeffs, var)

    # -- structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        return tuple(map(self.coefficient, range(len(self.nums))))

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def constant_term(self):
        return self.coefficient(0)

    def coefficient(self, exponent: int):
        if 0 <= exponent < len(self.nums):
            c = self.nums[exponent]
            return Fraction(c, self.den) if isinstance(c, int) else c
        return Fraction(0)

    @staticmethod
    def _join(a: str | None, b: str | None) -> str | None:
        if a is None:
            return b
        if b is None or a == b:
            return a
        raise VariableMismatchError(f"cannot mix variables {a!r} and {b!r}")

    # -- arithmetic --------------------------------------------------

    def _wrap_other(self, other):
        """Coerce `other` for ring ops; None means 'not ours, reflect'."""
        if _is_scalar(other):
            return Polynomial((other,))
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, RationalFunction):
            if other.variable is not None and self.var in (None, other.variable):
                return None
            # a constant, or a coefficient from another variable
            return Polynomial((other,))
        return None

    @_coerced
    def __add__(self, rhs):
        var = self._join(self.var, rhs.var)
        a, b, den = _aligned(self, rhs)
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return _make(a, den, var)

    __radd__ = __add__

    def __neg__(self):
        return _make([-c for c in self.nums], self.den, self.var)

    __sub__ = _coerced(lambda self, rhs: self + -rhs)
    __rsub__ = _coerced(lambda self, rhs: rhs + -self)

    @_coerced
    def __mul__(self, rhs):
        var = self._join(self.var, rhs.var)
        a, b = self.nums, rhs.nums
        if min(len(a), len(b)) >= _PACKED_MIN and _ints(a) and _ints(b):
            out = _packed_product(a, b)
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _make(out, self.den * rhs.den, var)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_scalar(other):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial power needs an integer exponent >= 0")
        if not exponent:
            return Polynomial.one()
        return _power(self, exponent)

    @_coerced
    def __divmod__(self, rhs):
        if not rhs:
            raise ZeroDivisionError("polynomial division by zero")
        var = self._join(self.var, rhs.var)
        # Over a common denominator D, a/b leaves the quotient of D*a by D*b
        # and D times the remainder, both times `scale` so int steps are exact.
        rem, div, den = _aligned(self, rhs)
        lead, scale = div[-1], 1
        quot = [0] * max(len(rem) - len(div) + 1, 0)
        while len(rem) >= len(div):
            top = rem.pop()
            if not top:
                continue
            shift = len(rem) + 1 - len(div)
            ints = isinstance(top, int) and isinstance(lead, int)
            if ints and top % lead:
                step = abs(lead) // math.gcd(top, lead)
                rem, quot = [c * step for c in rem], [c * step for c in quot]
                top, scale = top * step, scale * step
            quot[shift] = factor = top // lead if ints else top / lead
            for i in range(len(div) - 1):
                rem[shift + i] -= factor * div[i]
        return _make(quot, scale, var), _make(rem, den * scale, var)

    def exact_div(self, other) -> "Polynomial":
        quot, rem = divmod(self, other)
        if rem:
            raise ArithmeticError(
                f"inexact polynomial division: {self} by {other} (internal error)"
            )
        return quot

    def evaluate(self, point):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose(self, other: "Polynomial") -> "Polynomial":
        value = self.evaluate(other)
        if isinstance(value, Polynomial):
            return value
        return Polynomial((value,))

    # -- comparison and display ---------------------------------------

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (self.nums, self.den, self.var) == (other.nums, other.den, other.var)
        if _is_scalar(other):
            return self.degree <= 0 and self.constant_term == other
        return NotImplemented

    def __hash__(self):
        if self.degree <= 0:
            return hash(self.constant_term)
        return hash((self.var, self.nums, self.den))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for exponent, coeff in enumerate(self.coeffs):
            if not coeff:
                continue
            if isinstance(coeff, RationalFunction):
                negative = False
                magnitude = f"({coeff})"
                bare_one = False
            else:
                negative = coeff < 0
                mag = -coeff if negative else coeff
                magnitude = str(mag)
                bare_one = mag == 1
            if exponent == 0:
                body = magnitude
            else:
                power = self.var if exponent == 1 else f"{self.var}^{exponent}"
                body = power if bare_one else f"{magnitude}*{power}"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f" - {body}" if negative else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


# Two factors of at least this many int numerators each are multiplied as
# one big int; shorter factors, and `RationalFunction` coefficients, take
# the schoolbook loop.
_PACKED_MIN = 8


def _ints(nums) -> bool:
    """Whether every numerator is a plain int (as `_cleared` makes them)."""
    return set(map(type, nums)) <= {int}


def _packed_product(a, b) -> list:
    """The coefficients of the product of the int lists a and b, from one
    big-int product (Kronecker substitution: von zur Gathen and Gerhard,
    *Modern Computer Algebra*, 8.4).  Each list is packed at x = 2^w, with
    w whole bytes, wide enough for max|a| max|b| min(len) and a sign bit,
    so no coefficient spills into the next slot (a zero max counts as 1, so
    that each factor fits too); a bias of 2^(w-1) in each slot makes every
    slot nonnegative, and `int.to_bytes` cuts them apart."""
    top = (max(map(abs, a)) or 1) * (max(map(abs, b)) or 1)
    size = (top * min(len(a), len(b))).bit_length() // 8 + 1
    count = len(a) + len(b) - 1
    x = _packed(a, size)
    y = x if b is a else _packed(b, size)
    raw = (x * y + _biases(size, count)).to_bytes(count * size, "little")
    half = 1 << (8 * size - 1)
    return [int.from_bytes(raw[i:i + size], "little") - half
            for i in range(0, count * size, size)]


def _packed(nums, size: int) -> int:
    """The sum of nums[i] * 2^(8 size i), read from the slots' bytes: slot i
    holds nums[i] + 2^(8 size - 1), and the biases come off at once.  The
    bytes cost linear time, where shifting one coefficient in at a time
    would copy the whole sum for each."""
    half = 1 << (8 * size - 1)
    raw = b"".join([(c + half).to_bytes(size, "little") for c in nums])
    return int.from_bytes(raw, "little") - _biases(size, len(nums))


def _biases(size: int, count: int) -> int:
    """2^(8 size - 1) in each of count slots of size bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def _aligned(p: Polynomial, q: Polynomial):
    """Fresh numerator lists of p and q over their common denominator, and it."""
    if p.den == q.den:
        return list(p.nums), list(q.nums), p.den
    den = math.lcm(p.den, q.den)
    return [c * (den // p.den) for c in p.nums], [c * (den // q.den) for c in q.nums], den


def _make(nums: list, den: int, var: str | None) -> Polynomial:
    """The polynomial nums / den, from a fresh list.  Numerators other than
    ints go through the constructor, which turns constant RationalFunctions
    into rationals."""
    if not _ints(nums):
        return Polynomial(nums if den == 1 else [c * Fraction(1, den) for c in nums], var)
    return object.__new__(Polynomial)._store(nums, den, var)


def _int_primitive(coeffs):
    """Primitive part, lead > 0, of the trimmed ints of a `Polynomial`."""
    if not coeffs:
        return coeffs
    content = math.gcd(*coeffs)
    if content > 1:
        coeffs = [c // content for c in coeffs]
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    return coeffs


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """GCD of two rational-coefficient polynomials, monic over Q.

    Each remainder of the Euclidean sequence is cut to its primitive integer
    part, so intermediate coefficients stay small.
    """
    if not isinstance(a, Polynomial):
        a = Polynomial.constant(a)
    if not isinstance(b, Polynomial):
        b = Polynomial.constant(b)
    var = Polynomial._join(a.var, b.var)
    if not _ints(a.nums + b.nums):
        raise TypeError("poly_gcd needs plain rational coefficients")
    # Denominators only scale, so the primitive parts of the numerators do.
    u, v = _int_primitive(list(a.nums)), _int_primitive(list(b.nums))
    if len(u) < len(v):
        u, v = v, u
    while v:
        rem = divmod(_make(u, 1, var), _make(v, 1, var))[1]
        u, v = v, _int_primitive(list(rem.nums))
    if not u:
        return Polynomial.zero()
    return _make(u, u[-1], var)


class RationalFunction:
    """Quotient of two polynomials, kept reduced with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = self._as_poly(num)
        den = self._as_poly(den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        Polynomial._join(num.var, den.var)
        if not num:
            num, den = Polynomial.zero(), Polynomial.one()
        else:
            # The monic gcd with a nonzero constant denominator is 1.
            if den.degree > 0 and (g := poly_gcd(num, den)).degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.coefficient(den.degree)
            if lead != 1:
                num = num / lead
                den = den / lead
        self.num = num
        self.den = den

    @staticmethod
    def _as_poly(value) -> Polynomial:
        if isinstance(value, Polynomial):
            return value
        if _is_scalar(value):
            return Polynomial((value,))
        raise TypeError(f"bad rational function part: {value!r}")

    @classmethod
    def parse(cls, text: str, var: str | None = None) -> "RationalFunction":
        def strip_parens(part: str) -> str:
            part = part.strip()
            if part.startswith("(") and part.endswith(")"):
                return part[1:-1]
            return part

        if " / " in text:
            top, bottom = text.split(" / ", 1)
            return cls(
                Polynomial.parse(strip_parens(top), var),
                Polynomial.parse(strip_parens(bottom), var),
            )
        return cls(Polynomial.parse(strip_parens(text), var))

    @property
    def variable(self) -> str | None:
        return self.num.var if self.num.var is not None else self.den.var

    def as_fraction(self) -> Fraction:
        if self.variable is not None:
            raise ValueError(f"{self} is not constant")
        return self.num.constant_term / self.den.constant_term

    def reciprocal(self) -> "RationalFunction":
        if not self.num:
            raise ZeroDivisionError("reciprocal of zero")
        return RationalFunction(self.den, self.num)

    # -- arithmetic --------------------------------------------------

    def _wrap_other(self, other):
        if _is_scalar(other):
            return RationalFunction(Polynomial((other,)))
        if isinstance(other, Polynomial):
            mine = self.variable
            if other.var is not None and mine is not None and other.var != mine:
                return None  # reflect: the polynomial absorbs us as a coefficient
            return RationalFunction(other)
        if isinstance(other, RationalFunction):
            return other
        return None

    @_coerced
    def __add__(self, rhs):
        return RationalFunction(
            self.num * rhs.den + rhs.num * self.den, self.den * rhs.den
        )

    __radd__ = __add__

    def __neg__(self):
        # -num over the same monic den is still reduced: no gcd needed.
        result = object.__new__(RationalFunction)
        result.num = -self.num
        result.den = self.den
        return result

    __sub__ = _coerced(lambda self, rhs: self + -rhs)
    __rsub__ = _coerced(lambda self, rhs: rhs + -self)

    @_coerced
    def __mul__(self, rhs):
        return RationalFunction(self.num * rhs.num, self.den * rhs.den)

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, rhs):
        if not rhs.num:
            raise ZeroDivisionError("rational function division by zero")
        return RationalFunction(self.num * rhs.den, self.den * rhs.num)

    __rtruediv__ = _coerced(lambda self, rhs: rhs / self)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise ValueError("rational function power needs an integer exponent")
        if exponent < 0:
            return self.reciprocal() ** (-exponent)
        return RationalFunction(self.num**exponent, self.den**exponent)

    # -- comparison and display ---------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, Polynomial):
            if other.var is None and isinstance(
                other.constant_term, RationalFunction
            ):
                return self == other.constant_term
            return self.den == Polynomial.one() and self.num == other
        if _is_scalar(other):
            return self.den == Polynomial.one() and self.num == other
        return NotImplemented

    def __hash__(self):
        if self.den == Polynomial.one():
            return hash(self.num)
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den == Polynomial.one():
            return str(self.num)

        def wrap(poly: Polynomial) -> str:
            text = str(poly)
            return f"({text})" if " " in text else text

        return f"{wrap(self.num)} / {wrap(self.den)}"

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


class PowerSeries:
    """Truncated power series: coefficients 0..order are exact.

    Binary operations truncate to the shorter operand, and equality
    compares the shared prefix only.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        clean = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        for c in clean:
            if not isinstance(c, (Fraction, Polynomial, RationalFunction)):
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

    def _wrap_other(self, other):
        return other if isinstance(other, PowerSeries) else None

    # zip stops at the shorter operand, which is the truncation.
    @_coerced
    def __add__(self, rhs):
        return PowerSeries([x + y for x, y in zip(self.coeffs, rhs.coeffs)])

    __sub__ = _coerced(lambda self, rhs: self + rhs * -1)

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            if isinstance(other, (int, Fraction, Polynomial, RationalFunction)):
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
        """Multiplicative inverse; the constant term must be nonzero, and a
        `Polynomial` one constant (a `RationalFunction` one need not be)."""
        a0 = self.coeffs[0]
        if isinstance(a0, Polynomial):
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

    @_coerced
    def __eq__(self, rhs):
        n = min(self.order, rhs.order)
        return all(self.coeffs[i] == rhs.coeffs[i] for i in range(n + 1))

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order >= 6 else ""
        return f"PowerSeries([{head}{tail}] order={self.order})"
