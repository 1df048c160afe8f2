"""Spans and counters around the public entry points of hankelab's layers.

`Recorder.install()` replaces each traced function by a wrapper in every
`hankelab.*` namespace that holds it, because modules bind entry points by
name (`terms` in hankel, orthopoly and cli; `det_sequence` in registry and
cli; `det_exact` in orthopoly and cli; `exact_divide` in hankel; `fit_spec`
in cli).  Arithmetic dunders are replaced on their classes.  Nothing under
`src/` changes and the wrapped calls return what the originals return, so
stdout stays byte-identical.

Spans cover the public functions of registry, lattice, orthopoly, hankel
and sequences and the text renderers of their report types; exactnum is
counted, not timed, so its time falls to the layer that called it.  Each
span is `[name, start, end, parent]`, with `parent` the index of the
enclosing span or -1.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from fractions import Fraction

SPAN_LAYERS = ("registry", "lattice", "orthopoly", "hankel", "sequences")

# Report renderers are where a CLI command spends its output time; each is
# charged to the layer that defines the report type.
RENDERERS = {
    "registry": ("VerificationReport",),
    "orthopoly": ("JacobiData",),
    "hankel": ("DetSequence",),
}

# Counted calls: (class name, method names, counter).  A subtraction goes
# through `__add__` and `__rtruediv__` through `__truediv__`, so each
# operation is counted once.
COUNTED_METHODS = (
    ("Polynomial", ("__mul__", "__rmul__"), "exactnum.poly_mul_calls"),
    ("Polynomial", ("__add__", "__radd__"), "exactnum.poly_add_calls"),
    ("PowerSeries", ("__mul__", "__rmul__"), "exactnum.series_mul_calls"),
    ("RationalFunction",
     ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__", "__pow__"),
     "exactnum.rf_ops"),
)

# Family generation that `terms` triggers.  `_FAMILIES` holds closures over
# the original `conv_poly` and `u_number`, so their series work is caught at
# the PowerSeries methods and at `narayana_series`, which `conv_poly` looks
# up by name.
SERIES_BUILDERS = (("PowerSeries", "invert"), ("PowerSeries", "__pow__"))


def _bits(value) -> int:
    """Largest numerator bit-length in an exact value."""
    if isinstance(value, Fraction):
        return value.numerator.bit_length()
    if isinstance(value, int):
        return value.bit_length()
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return max((_bits(c) for c in coeffs), default=0)
    return 0


def _hankelab_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "hankelab" or name.startswith("hankelab."))
    ]


class Recorder:
    """Collects spans and counters for one process; install, run, uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.bits_max = 0
        self.values_delivered = 0
        self.zero_values = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.originals: dict[int, object] = {}

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_return = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return self._wraps(wrapper, fn)

    def _counted(self, key: str, fn, inside: str | None = None):
        counts = self.counts
        if inside is None:
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                if self._within(inside):
                    counts[key] += 1
                return fn(*args, **kwargs)
        return self._wraps(wrapper, fn)

    def _exact_divide(self, fn):
        counts = self.counts

        def wrapper(value, divisor):
            counts["hankel.exact_divide_calls"] += 1
            bits = _bits(value)
            if bits > self.bits_max:
                self.bits_max = bits
            return fn(value, divisor)

        return self._wraps(wrapper, fn)

    def _wraps(self, wrapper, fn):
        for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
            setattr(wrapper, attr, getattr(fn, attr))
        wrapper.__wrapped__ = fn
        self.originals[id(fn)] = fn
        return wrapper

    def _within(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    # -- per-span hooks, looked up by span name ------------------------

    def _after_sequences_terms(self, args, kwargs, result):
        self.counts["sequences.values_requested"] += len(result)

    def _after_hankel_det_sequence(self, args, kwargs, result):
        self._delivered(result.values)

    def _after_hankel_det_exact(self, args, kwargs, result):
        self.counts["hankel.det_exact_calls"] += 1
        if not self._within("hankel.det_sequence"):
            self._delivered((result,))

    def _after_orthopoly_fit_recurrence(self, args, kwargs, result):
        self.counts["orthopoly.fit_calls"] += 1

    def _delivered(self, values):
        self.values_delivered += len(values)
        self.zero_values += sum(1 for v in values if not v)

    # -- patching ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in _hankelab_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _replace_method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("recorder already installed")
        import hankelab.cli  # noqa: F401  (binds every alias first)
        from hankelab import exactnum, sequences

        for layer in SPAN_LAYERS:
            module = sys.modules["hankelab." + layer]
            for fname in module.__all__:
                fn = getattr(module, fname)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._replace_everywhere(fn, self._span(f"{layer}.{fname}", fn))
            for cname in RENDERERS.get(layer, ()):
                cls = getattr(module, cname)
                for method in ("csv_text", "json_text"):
                    fn = cls.__dict__[method]
                    self._replace_method(cls, method, self._span(f"{layer}.{cname}.{method}", fn))

        for cname, methods, key in COUNTED_METHODS:
            cls = getattr(exactnum, cname)
            for method in methods:
                self._replace_method(cls, method, self._counted(key, cls.__dict__[method]))
        for cname, method in SERIES_BUILDERS:
            cls = getattr(exactnum, cname)
            fn = cls.__dict__[method]
            self._replace_method(cls, method, self._counted(
                "sequences.series_builds", fn, inside="sequences.terms"))
        # narayana_series already carries a span wrapper; count around it.
        spanned = sequences.narayana_series
        self._replace_everywhere(spanned, self._counted(
            "sequences.series_builds", spanned, inside="sequences.terms"))
        self._replace_everywhere(exactnum.poly_gcd, self._counted(
            "exactnum.poly_gcd_calls", exactnum.poly_gcd))
        self._replace_everywhere(exactnum.exact_divide, self._exact_divide(exactnum.exact_divide))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """What the child process reports: spans and counters."""
        counts = dict(self.counts)
        counts["hankel.divide_bits_max"] = self.bits_max
        counts["hankel.values_delivered"] = self.values_delivered
        counts["hankel.zero_values"] = self.zero_values
        return {"spans": self.spans, "counts": counts}


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per layer: each span minus its child spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start - inner)
    return out
