"""Exact-arithmetic workbench for Hankel determinants of combinatorial
sequences: sequence specs, fraction-free determinants, three-term
recurrence fitting, lattice-path cross-checks, and a registry of
closed-form evaluations."""

from types import ModuleType as _Module

from .exactnum import (
    Polynomial,
    PowerSeries,
    RationalFunction,
    VariableMismatchError,
    binomial,
    exact_divide,
    poly_gcd,
)
from .hankel import (
    DetSequence,
    HankelMatrix,
    csv_cell,
    det_cofactor,
    det_exact,
    det_sequence,
    hankel_matrix,
)
from .lattice import (
    LGV_LIMIT,
    dual_sum,
    dual_sum_closed,
    dual_sum_total,
    lgv_bruteforce,
    lgv_matrix,
    weighted_triangle_entry,
)
from .orthopoly import (
    JacobiData,
    PencilCheck,
    Triangle,
    ZeroHankelMinorError,
    aerated_triangle,
    aeration_collapse,
    det_product_formula,
    fit_recurrence,
    fit_spec,
    moment_functional,
    moments_from_recurrence,
    ortho_value,
    pencil_identity_check,
    poly_from_recurrence,
    shifted_det,
    triangle,
)
from .registry import (
    Counterexample,
    FormulaInfo,
    ReportEntry,
    VerificationReport,
    binomial_sum_identity,
    binomial_sum_series,
    closed_form,
    formula_ids,
    formula_info,
    scan,
    verify,
)
from .sequences import (
    SequenceSpec,
    SpecError,
    Transform,
    catalan_convolution,
    catalan_number,
    catalan_series,
    conv_poly,
    f_number,
    fibonacci_number,
    fibonacci_poly,
    lucas_number,
    lucas_poly,
    narayana_b_poly,
    narayana_poly,
    narayana_series,
    parse_spec,
    q_integer,
    terms,
    u_number,
)

# The public names are the ones the imports above bind, in their order;
# the submodules those imports load are left out.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _Module)]

__version__ = "0.1.0"
