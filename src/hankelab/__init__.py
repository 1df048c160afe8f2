"""Exact-arithmetic workbench for Hankel determinants of combinatorial
sequences: sequence specs, fraction-free determinants, three-term
recurrence fitting, lattice-path cross-checks, and a registry of
closed-form evaluations."""

from .exactnum import *
from .hankel import *
from .lattice import *
from .orthopoly import *
from .registry import *
from .sequences import *

# Each layer's `__all__` is its list of public names; the star imports
# bind the layers as submodules, and the package re-exports each list.
__all__ = [name for layer in (exactnum, hankel, lattice, orthopoly, registry, sequences)
           for name in sorted(layer.__all__)]

__version__ = "0.1.0"
