"""The public names of the package, pinned: adding or removing one is a
visible decision, made here and in __init__.py together."""

import drinfeldforms

PUBLIC = [
    "BiPoly", "BruteForceInstance", "FiniteField", "FormCatalog", "PartialLValue",
    "PrecisionError", "ResourceLimitError", "TauOperator", "USeries",
    "UniPoly", "bracket_twisted", "canonical_modulus", "carlitz_phi", "check_d2_approx",
    "check_lvals", "enumerate_monic", "enumerate_shadowed", "extension_field",
    "finite_field", "g1k_shadowed", "g_sequence", "goss_degenerate_check",
    "is_shadowed_partition", "lemma1_check", "lemma2_check", "lemma3_bruteforce",
    "matrix_det", "monic_below", "operator_l1", "operator_l2", "pellarin_partial",
    "sym_power_matrix", "t_minus_theta_pow", "u_c_expansion",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC) == 34
    assert sorted(drinfeldforms.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(drinfeldforms, name) is not None
