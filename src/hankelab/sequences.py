"""Sequence families and the small spec grammar that names them.

A spec string is a family with an optional integer parameter followed by a
pipeline of transforms, for example ``catalan``, ``catconv:r=3`` or
``narayana|shift:1|eval:t=-1``.  Families produce either exact rationals
(`Fraction`) or polynomials in ``t`` (`Polynomial`); the kind is tracked so
transforms that only make sense for one kind are rejected at parse time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

from .exactnum import Polynomial, PowerSeries, _Frozen, _set, _Value, binomial

__all__ = [
    "SpecError",
    "Transform",
    "SequenceSpec",
    "parse_spec",
    "terms",
    "RATIONAL",
    "POLYNOMIAL",
    "catalan_number",
    "catalan_convolution",
    "u_number",
    "narayana_poly",
    "narayana_b_poly",
    "conv_poly",
    "fibonacci_number",
    "lucas_number",
    "f_number",
    "fibonacci_poly",
    "lucas_poly",
    "q_integer",
    "catalan_series",
    "narayana_series",
]

RATIONAL = "rational"
POLYNOMIAL = "polynomial"


class SpecError(ValueError):
    """A sequence spec string failed to parse or validate."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.position = position


# -- closed forms and series ------------------------------------------


def _require_integers(values, what: str) -> None:
    """Closed forms below must come out integral; a fraction is a bug."""
    if any(v.denominator != 1 for v in values):
        raise ArithmeticError(f"{what} is not integral (internal error)")


def catalan_number(n: int) -> Fraction:
    value = Fraction(math.comb(2 * n, n), n + 1)
    _require_integers((value,), f"catalan number {n}")
    return value


def catalan_convolution(n: int, r: int) -> Fraction:
    """r-fold Catalan convolution: (r / (2n+r)) * C(2n+r, n)."""
    value = Fraction(r, 2 * n + r) * binomial(2 * n + r, n)
    _require_integers((value,), f"catalan convolution ({n}, {r})")
    return value


def catalan_series(order: int) -> PowerSeries:
    return PowerSeries([catalan_number(n) for n in range(order + 1)])


def _u_prefix(r: int, count: int) -> list[Fraction]:
    """u(0..count-1), from one inversion of 1 - r z C(z)."""
    if not count:
        return []
    cat = catalan_series(count - 1)
    denom = PowerSeries(
        [Fraction(1)] + [-r * cat[k] for k in range(count - 1)]
    )
    values = list(denom.invert().coeffs)
    _require_integers(values, f"u number list for r={r}")
    return values


def u_number(n: int, r: int) -> Fraction:
    """Coefficients of 1 / (1 - r z C(z)) with C the Catalan series.

    Each call builds the prefix 0..n; `terms` builds a run at once.
    """
    return _u_prefix(r, n + 1)[n]


def narayana_poly(n: int) -> Polynomial:
    if n == 0:
        return Polynomial.one()
    coeffs = [
        Fraction(binomial(n, k) * binomial(n - 1, k), k + 1) for k in range(n)
    ]
    _require_integers(coeffs, f"narayana polynomial {n}")
    return Polynomial(coeffs, "t")


def narayana_b_poly(n: int) -> Polynomial:
    return Polynomial([binomial(n, k) ** 2 for k in range(n + 1)], "t")


def narayana_series(order: int) -> PowerSeries:
    """Generating series of the narayana polynomials, built by the
    quadratic recursion its functional equation gives for the coefficients."""
    t = Polynomial.variable_poly("t")
    coeffs: list[Polynomial] = [Polynomial.one()]
    for n in range(1, order + 1):
        square = Polynomial.zero()
        for i in range(n):
            square = square + coeffs[i] * coeffs[n - 1 - i]
        coeffs.append(coeffs[n - 1] - t * coeffs[n - 1] + t * square)
    return PowerSeries(coeffs)


def _conv_prefix(m: int, count: int) -> list[Polynomial]:
    """conv_poly(0..count-1, m), from one power of the narayana series."""
    if not count:
        return []
    full = narayana_series(count)
    start = (full - PowerSeries.one(count)).shift_down(1)
    series = start ** (m // 2)
    if m % 2:
        series = full * series  # a product keeps the shorter order
    return [
        c if isinstance(c, Polynomial) else Polynomial.constant(c)
        for c in series.coeffs
    ]


def conv_poly(n: int, m: int) -> Polynomial:
    """m-fold convolution analogue of the narayana polynomials.

    Each call builds the prefix 0..n; `terms` builds a run at once.
    """
    return _conv_prefix(m, n + 1)[n]


def _seeded(a, b, count: int, x, s) -> list:
    """w(0..count-1) of w(k) = x w(k-1) + s w(k-2), w(0) = a, w(1) = b."""
    out = [a, b][:count]
    while len(out) < count:
        out.append(x * out[-1] + s * out[-2])
    return out


def _f_prefix(r: int, count: int) -> list[Fraction]:
    """f(0..count-1) for f(0) = r, walked in Python ints."""
    return [Fraction(v) for v in _seeded(r, 1, count, 1, 1)]


def fibonacci_number(n: int) -> Fraction:
    return f_number(n, 0)


def lucas_number(n: int) -> Fraction:
    return f_number(n, 2)


def f_number(n: int, r: int) -> Fraction:
    """Fibonacci-like: f(0) = r, f(1) = 1, then the usual two-term sum."""
    return Fraction(_seeded(r, 1, n + 1, 1, 1)[n])


def fibonacci_poly(n: int, x, s):
    """F(0) = 0, F(1) = 1, F(n) = x F(n-1) + s F(n-2); any exact ring."""
    zero = x * 0
    return _seeded(zero, zero + 1, n + 1, x, s)[n]


def lucas_poly(n: int, x, s):
    """L(0) = 2, L(1) = x, L(n) = x L(n-1) + s L(n-2); any exact ring."""
    zero = x * 0
    return _seeded(zero + 2, zero + x, n + 1, x, s)[n]


def q_integer(n: int, q):
    """1 + q + ... + q^(n-1); n must be at least 1."""
    if n < 1:
        raise ValueError("q_integer needs n >= 1")
    total = q * 0
    power = q * 0 + 1
    for _ in range(n):
        total = total + power
        power = power * q
    return total


# -- spec string grammar -----------------------------------------------


class Transform(_Value):
    """A pipeline stage: the name of a `_TRANSFORMS` row and its argument."""

    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: object = None):
        _set(self, "name", name)
        _set(self, "arg", arg)

    @property
    def text(self) -> str:
        if self.name == "eval":
            name, value = self.arg
            return f"eval:{name}={value}"
        if self.arg is None:
            return self.name
        return f"{self.name}:{self.arg}"


class SequenceSpec(_Value):
    """A family, its parameter (None if it takes none) and its transforms."""

    __slots__ = ("family", "param", "transforms")

    def __init__(self, family: str, param: int | None,
                 transforms: tuple[Transform, ...]):
        _set(self, "family", family)
        _set(self, "param", param)
        _set(self, "transforms", transforms)

    @property
    def kind(self) -> str:
        kind = _FAMILIES[self.family].kind
        for tr in self.transforms:
            kind = _row(tr.name)[2] or kind
        return kind

    @property
    def text(self) -> str:
        head = self.family
        if self.param is not None:
            key = getattr(_FAMILIES.get(self.family), "param_key", None)
            head = f"{head}:{key}={self.param}"
        return "|".join([head] + [tr.text for tr in self.transforms])

    def __str__(self) -> str:
        return self.text


class _Family(_Frozen):
    """How a family makes its terms: `produce(param, count)` gives a list."""

    __slots__ = ("kind", "param_key", "produce", "var")

    def __init__(self, kind: str, param_key: str | None, produce,
                 var: str | None = None):
        _set(self, "kind", kind)
        _set(self, "param_key", param_key)
        _set(self, "produce", produce)
        _set(self, "var", var)  # variable of a polynomial family


def _plain(fn):
    return lambda param, count: [fn(n) for n in range(count)]


def _with_param(fn):
    return lambda param, count: [fn(n, param) for n in range(count)]


_FAMILIES: dict[str, _Family] = {
    "catalan": _Family(RATIONAL, None, _plain(catalan_number)),
    "central-binomial": _Family(
        RATIONAL, None, _plain(lambda n: Fraction(math.comb(2 * n, n)))
    ),
    "catconv": _Family(RATIONAL, "r", _with_param(catalan_convolution)),
    "u": _Family(RATIONAL, "r", _u_prefix),
    "fibonacci": _Family(RATIONAL, None, lambda _, count: _f_prefix(0, count)),
    "lucas": _Family(RATIONAL, None, lambda _, count: _f_prefix(2, count)),
    "f-number": _Family(RATIONAL, "r", _f_prefix),
    "narayana": _Family(POLYNOMIAL, None, _plain(narayana_poly), "t"),
    "narayana-b": _Family(POLYNOMIAL, None, _plain(narayana_b_poly), "t"),
    "convpoly": _Family(POLYNOMIAL, "m", _conv_prefix, "t"),
}


def parse_spec(text: str) -> SequenceSpec:
    first, *pieces = text.split("|")
    head = first.strip()
    if ":" in head:
        family, _, param_text = head.partition(":")
        family = family.strip()
    else:
        family, param_text = head, None

    info = _FAMILIES.get(family)
    if info is None:
        raise SpecError(f"unknown family {family!r}", 0)
    if info.param_key is None:
        if param_text is not None:
            raise SpecError(f"family {family!r} takes no parameter", 0)
        param = None
    else:
        if param_text is None:
            raise SpecError(
                f"family {family!r} needs a parameter {info.param_key}=<int>", 0
            )
        key, eq, value = param_text.partition("=")
        if not eq or key.strip() != info.param_key:
            raise SpecError(
                f"family {family!r} expects {info.param_key}=<int>", 0
            )
        try:
            param = int(value)
        except ValueError:
            raise SpecError(f"bad integer {value!r} in {head!r}", 0) from None
        if param < 1:
            raise SpecError(f"parameter {info.param_key} must be >= 1", 0)

    kind = info.kind
    transforms = []
    offset = len(first) + 1
    for piece in pieces:
        name, colon, arg_text = piece.strip().partition(":")
        read, needs, leaves, _ = _row(name, offset)
        if read is None and colon:
            raise SpecError(f"transform {name!r} takes no argument", offset)
        if needs not in (None, kind):
            raise SpecError(f"{name} only applies to {needs} sequences", offset)
        arg = read(arg_text if colon else None, info.var, offset) if read else None
        transforms.append(Transform(name, arg))
        kind = leaves or kind
        offset += len(piece) + 1
    return SequenceSpec(family, param, tuple(transforms))


def terms(spec: SequenceSpec | str, count: int) -> list:
    """First `count` terms of the sequence a spec describes.

    A `SequenceSpec` must equal the parse of its text, and runs as that
    parse, so one built by hand meets every check a spec string meets.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    else:
        parsed = parse_spec(spec.text)
        if parsed != spec:
            raise SpecError(f"spec does not match its text {spec.text!r}")
        spec = parsed
    if count < 0:
        raise ValueError("count must be >= 0")
    stage = partial(_FAMILIES[spec.family].produce, spec.param)
    for tr in spec.transforms:
        stage = partial(_row(tr.name)[3], stage, tr.arg)
    return stage(count) if count else []


# -- transforms ----------------------------------------------------------
#
# A row per transform: (argument reader, or None for no argument; the kind
# it needs and the kind it leaves, None for any and for unchanged; stage).
# A reader gets the text after the colon (None without one), the family's
# variable and the position for errors.  A stage gets the stage below, the
# argument and a count >= 1; it asks below for the terms its count outputs
# need and maps them.


def _row(name: str, position: int = 0) -> tuple:
    row = _TRANSFORMS.get(name)
    if row is None:
        raise SpecError(f"unknown transform {name!r}", position)
    return row


def _ratio(text) -> Fraction | None:
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _read_shift(text, var, position) -> int:
    try:
        amount = int(text) if text is not None else -1
    except ValueError:
        raise SpecError(f"bad shift {text!r}", position) from None
    if amount < 0:
        raise SpecError("shift needs an integer argument >= 0", position)
    return amount


def _read_scale(text, var, position) -> Fraction:
    factor = _ratio(text)
    if factor is None:
        raise SpecError("scale needs a rational argument", position)
    return factor


def _read_eval(text, var, position) -> tuple:
    name, eq, value_text = (text or "").partition("=")
    name = name.strip()
    value = _ratio(value_text) if eq and name else None
    if value is None:
        raise SpecError("eval needs an argument like t=-1", position)
    if name != var:
        raise SpecError(
            f"eval argument {name!r} does not match variable {var!r}", position
        )
    return name, value


def _shift(below, k, count: int) -> list:
    return below(count + k)[k:]


def _double_signed(below, _, count: int) -> list:
    """a0, -a1, -a1, a2, a2, -a3, ...: each a(m) past a0 twice, signed (-1)^m."""
    values = below(count // 2 + 1)
    halves = ((j + 1) // 2 for j in range(count))
    return [-values[m] if m % 2 else values[m] for m in halves]


def _aerate(below, _, count: int) -> list:
    values = below((count + 1) // 2)
    zero = values[0] * 0
    return [zero if j % 2 else values[j // 2] for j in range(count)]


def _consecutive_sum(below, _, count: int) -> list:
    values = below(count + 1)
    return [values[i] + values[i + 1] for i in range(count)]


def _evaluated(value, arg):
    return value.evaluate(arg[1]) if isinstance(value, Polynomial) else value


def _termwise(fn):
    """A stage that asks for as many terms as it gives and maps fn(term, arg)."""
    return lambda below, arg, count: [fn(v, arg) for v in below(count)]


_TRANSFORMS = {
    "shift": (_read_shift, None, None, _shift),
    "double-signed": (None, None, None, _double_signed),
    "aerate": (None, None, None, _aerate),
    "consecutive-sum": (None, None, None, _consecutive_sum),
    "abs": (None, RATIONAL, None, _termwise(lambda v, _: abs(v))),
    "scale": (_read_scale, None, None, _termwise(lambda v, factor: v * factor)),
    "eval": (_read_eval, POLYNOMIAL, RATIONAL, _termwise(_evaluated)),
}
