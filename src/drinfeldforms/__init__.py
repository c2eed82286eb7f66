"""Exact u-expansion arithmetic for Drinfeld modular forms over F_q[theta].

The package computes truncated u-expansions of the classical forms and
their t-deformations with coefficients in F_q[theta, t], evaluates
Pellarin L-series partial sums as exact rational data, and verifies the
finite identities relating them: power identities of A-expansions,
tau-recurrences, shadowed-partition approximations, and the underlying
character-sum lemmas over F_q.
"""

from .errors import PrecisionError, ResourceLimitError
from .fields import FiniteField, canonical_modulus, extension_field, finite_field
from .forms import FormCatalog, bracket_twisted, t_minus_theta_pow
from .identities import (BruteForceInstance, PartialLValue, check_lvals,
                         goss_degenerate_check, lemma1_check, lemma2_check,
                         lemma3_bruteforce, pellarin_partial)
from .polynomials import BiPoly, UniPoly, enumerate_monic, monic_below
from .series import USeries, carlitz_phi, u_c_expansion
from .shadowed import (check_d2_approx, enumerate_shadowed, g1k_shadowed,
                       is_shadowed_partition)
from .taurec import (TauOperator, g_sequence, matrix_det, operator_l1, operator_l2,
                     sym_power_matrix)

__version__ = "0.1.0"

__all__ = [
    "BiPoly", "BruteForceInstance", "FiniteField", "FormCatalog", "PartialLValue",
    "PrecisionError", "ResourceLimitError", "TauOperator", "UniPoly",
    "USeries", "bracket_twisted", "canonical_modulus",
    "carlitz_phi", "check_d2_approx", "check_lvals", "enumerate_monic",
    "enumerate_shadowed", "extension_field", "finite_field", "g1k_shadowed",
    "g_sequence", "goss_degenerate_check", "is_shadowed_partition", "lemma1_check",
    "lemma2_check", "lemma3_bruteforce", "matrix_det", "monic_below", "operator_l1",
    "operator_l2", "pellarin_partial", "sym_power_matrix", "t_minus_theta_pow",
    "u_c_expansion",
]
