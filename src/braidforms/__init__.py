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

from .braid3 import (BraidParseError, BraidWord, BurauMat, alexander, burau,
                     exponent_sum, garside_power, jones, phi, special_value,
                     trace_b3)
from .birman_menasco import (ExceptionalWitness, class_excess,
                             family_iii_trace_exp, family_iv_trace_exp,
                             shared_closure_count, witnesses)
from .counts import (ClassWithExponent, CountsRow, LinkCountError,
                     MainIdentityReport, SymmetryReport, braid_census,
                     check_main_identity, check_window_symmetry, class_count,
                     counts_row, link_count, trace_classes)
from .laurent import (GaussInt, HalfLaurent, NonDivisibleError, monomial_pow)
from .quadforms import (FormClassKey, QForm, act, class_number,
                        enumerate_classes, equivalent, form_of_matrix,
                        is_conjugate, matrix_of_form, reduce)
from .sl2z import Mat2Z, decompose_st, exponent_mod12, st_product

__version__ = "1.0.0"

# The public API is every class and function that the imports above bind.
__all__ = sorted(name for name, value in globals().items()
                 if getattr(value, "__module__", "").startswith(__name__ + "."))
