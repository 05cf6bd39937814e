"""Exact differential and second-order zero differential spectra over GF(p^n).

The submodules are loaded lazily: each is registered in ``sys.modules`` and
set as an attribute of this package at import, but its source runs on first
attribute access, so a CLI command runs only the modules it uses.  The
names re-exported in ``_EXPORTS`` resolve through the module ``__getattr__``.
"""

import importlib.util
import sys

_EXPORTS = {
    "field": ("Field", "FieldElement", "FieldError", "make_field", "omega",
              "quadratic_character", "solve_quadratic", "trace"),
    "functions": ("FunctionError", "FunctionUnderTest", "GammaTraceInverse",
                  "InversePlusTrace", "Monomial", "TableFunction", "canonical_exponent",
                  "parse_function"),
    "algebra": ("kloosterman",),
    "closed_forms": ("THEOREMS", "HypothesisError", "TheoremVerdict", "predict", "verify"),
    "count_claims": ("s6_count_formula", "vanishing_count_formula"),
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names}


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


field = _lazy("field")
functions = _lazy("functions")
spectra = _lazy("spectra")
flats = _lazy("flats")
algebra = _lazy("algebra")
closed_forms = _lazy("closed_forms")
cell_claims = _lazy("cell_claims")
count_claims = _lazy("count_claims")
spectrum_claims = _lazy("spectrum_claims")


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.0.0"

__all__ = list(_HOME)
