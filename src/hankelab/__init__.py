"""Exact-arithmetic workbench for Hankel determinants of combinatorial
sequences: sequence specs, fraction-free determinants, three-term
recurrence fitting, lattice-path cross-checks, and a registry of
closed-form evaluations.

The six layers load on first use.  `import hankelab` puts each layer in
`sys.modules` without running it; the first attribute read from a layer
runs its module body.  A public name read from the package comes from
the layer whose `__all__` lists it.
"""

import importlib.util
import sys
import threading
import types

# Held while a layer's body runs, so a thread that reads a layer during
# its first load waits for the whole body.  (Python 3.11's
# `importlib.util.LazyLoader` makes the module plain before running it, so
# there a second thread can read a half-run layer.)
_FIRST_LOAD = threading.RLock()


class _Loading(types.ModuleType):
    """A layer whose body is running: other threads wait for it to end."""

    def __getattribute__(self, attr):
        with _FIRST_LOAD:
            # Not super(): by the time the lock is free, the class is plain.
            return types.ModuleType.__getattribute__(self, attr)


class _Deferred(_Loading):
    """A layer whose body has not run: the first attribute read runs it,
    and the module then becomes a plain module."""

    def __getattribute__(self, attr):
        with _FIRST_LOAD:
            if type(self) is _Deferred:
                self.__class__ = _Loading
                try:
                    self.__spec__.loader.exec_module(self)
                finally:
                    self.__class__ = types.ModuleType
        return getattr(self, attr)


def _defer(name: str) -> types.ModuleType:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    layer = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    layer.__class__ = _Deferred
    return layer


_LAYERS = tuple(map(_defer, ("exactnum", "hankel", "lattice", "orthopoly", "registry",
                              "sequences")))
exactnum, hankel, lattice, orthopoly, registry, sequences = _LAYERS


def __getattr__(name: str):
    if name == "__all__":
        # Each layer's `__all__` is its list of public names; the package
        # re-exports each list, sorted, in layer order.
        return [public for layer in _LAYERS for public in sorted(layer.__all__)]
    for layer in _LAYERS:
        if name in layer.__all__:
            return getattr(layer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})


__version__ = "0.1.0"
