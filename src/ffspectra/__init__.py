"""Exact differential and second-order zero differential spectra over GF(p^n)."""

from .field import (
    Field,
    FieldElement,
    FieldError,
    make_field,
    omega,
    quadratic_character,
    solve_quadratic,
    special_elements,
    trace,
)
from .functions import (
    FunctionError,
    FunctionUnderTest,
    GammaTraceInverse,
    InversePlusTrace,
    Monomial,
    TableFunction,
    canonical_exponent,
    parse_function,
)
from .closed_forms import (
    THEOREMS,
    HypothesisError,
    TheoremVerdict,
    kloosterman,
    predict,
    s6_count_formula,
    vanishing_count_formula,
    verify,
)

__version__ = "1.0.0"

__all__ = [
    "Field", "FieldElement", "FieldError", "make_field", "omega",
    "quadratic_character", "solve_quadratic", "special_elements", "trace",
    "FunctionError", "FunctionUnderTest", "GammaTraceInverse", "InversePlusTrace",
    "Monomial", "TableFunction", "canonical_exponent", "parse_function",
    "THEOREMS", "HypothesisError", "TheoremVerdict", "kloosterman", "predict",
    "s6_count_formula", "vanishing_count_formula", "verify",
]
