"""Links of braid index at most three and binary quadratic forms.

The class number h(t) of integral binary quadratic forms of
discriminant t^2 - 4 (t != +-2) equals a window sum of counts of
isotopy classes of links distinguished by writhe and by the special
value of the Alexander/Jones polynomial at -1.  This package computes
both sides exactly and exposes every intermediate pipeline: exact
Laurent arithmetic, the reduced Burau representation of B3, SL2(Z)
generator decomposition, form reduction and class enumeration, and the
exceptional-fiber bookkeeping of the braid closure map.
"""

__version__ = "1.0.0"

#: Each module's public names; a name loads its module on first use (PEP 562).
_EXPORTS = {
    "birman_menasco": ("ExceptionalWitness", "class_excess", "family_iii_trace_exp",
                       "family_iv_trace_exp", "shared_closure_count", "witnesses"),
    "braid3": ("BraidParseError", "BraidWord", "BurauMat", "alexander", "burau",
               "exponent_sum", "garside_power", "jones", "phi", "special_value", "trace_b3"),
    "counts": ("ClassWithExponent", "CountsRow", "LinkCountError", "MainIdentityReport",
               "SymmetryReport", "braid_census", "check_main_identity",
               "check_window_symmetry", "class_count", "counts_row", "link_count",
               "trace_classes"),
    "laurent": ("GaussInt", "HalfLaurent", "NonDivisibleError", "monomial_pow"),
    "quadforms": ("FormClassKey", "QForm", "act", "class_number", "enumerate_classes",
                  "equivalent", "form_of_matrix", "is_conjugate", "matrix_of_form", "reduce"),
    "sl2z": ("Mat2Z", "decompose_st", "exponent_mod12", "st_product"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
