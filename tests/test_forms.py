import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldforms.errors import PrecisionError
from drinfeldforms.fields import finite_field
from drinfeldforms.forms import FormCatalog, bracket_twisted, power_weight, t_minus_theta_pow
from drinfeldforms.polynomials import BiPoly, UniPoly, monic_below
from drinfeldforms.series import USeries, u_c_expansion
from test_polynomials import at_t_theta

F2 = finite_field(2)
F3 = finite_field(3)
F4 = finite_field(2, 2)
F5 = finite_field(5)

CATALOGS = {}


def catalog(field, prec):
    key = (field.p, field.e, prec)
    if key not in CATALOGS:
        CATALOGS[key] = FormCatalog(field, prec)
    return CATALOGS[key]


def theta_minus_t(field):
    return BiPoly(field, {(1, 0): 1, (0, 1): field.neg(1)})


# -- leading terms --------------------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_g_leading_terms(field):
    q = field.q
    g = catalog(field, 30).g
    assert g.coefficient(0) == BiPoly.one(field)
    assert g.coefficient(q - 1) == BiPoly(field, {(q, 0): field.neg(1), (1, 0): 1})
    for j in range(1, q - 1):
        assert g.coefficient(j).is_zero


def test_g_at_precision_one_is_constant():
    g = FormCatalog(F3, 1).g
    assert g == USeries.one(F3, 1)


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_h_and_delta(field):
    q = field.q
    cat = catalog(field, 30)
    assert cat.h.val() == 1
    assert cat.h.coefficient(1) == BiPoly.one(field)
    assert (cat.delta + (cat.h ** (q - 1)).truncate(30)).is_zero
    assert cat.delta.val() == q - 1


@pytest.mark.parametrize("field", [F2, F3])
def test_false_eisenstein_against_direct_sum(field):
    # independent truncated-sum oracle, built term by term from u_c
    prec = 20
    cat = catalog(field, 30)
    total = USeries.zero(field, prec)
    for c in monic_below(field, 6):
        term = u_c_expansion(c, prec)
        total = total + term.scale(c.to_bipoly())
    assert cat.e.truncate(prec) == total
    assert cat.e.coefficient(1) == BiPoly.one(field)


# -- d2 ----------------------------------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_d2_paper_coefficients(field):
    q = field.q
    prec = (q - 1) * (q * q - q + 1) + 2
    d2 = catalog(field, prec).d2
    assert d2.coefficient(0) == BiPoly.one(field)
    assert d2.coefficient(q - 1) == theta_minus_t(field)
    assert d2.coefficient((q - 1) * (q * q - q + 1)) == theta_minus_t(field)
    deg = d2.t_degree()
    assert deg is not None and deg >= 1


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_d2_satisfies_difference_equation(field):
    q = field.q
    cat = catalog(field, 30)
    d2 = cat.d2
    residual = (d2 - cat.g * d2.tau(1).truncate(30)
                - (cat.delta * d2.tau(2).truncate(30)).scale(t_minus_theta_pow(field, q)))
    assert residual.is_zero
    assert residual.prec >= 30


@pytest.mark.parametrize("field", [F2, F3])
def test_d2_specialized_at_t_theta(field):
    d2 = at_t_theta(catalog(field, 30).d2)
    assert d2.coefficient(0) == BiPoly.one(field)
    assert d2.coefficient(field.q - 1).is_zero


def test_d2_precision_consistency():
    assert FormCatalog(F3, 40).d2.truncate(20) == FormCatalog(F3, 20).d2


D2_GRID = [(F2, 64), (F3, 81), (F4, 64), (F5, 50)]


@pytest.mark.parametrize("field, prec", D2_GRID, ids=lambda v: str(getattr(v, "q", v)))
def test_d2_solves_its_recurrence_exactly(field, prec):
    cat = catalog(field, prec)
    d2 = cat.d2
    rhs = (cat.g * d2.tau(1).truncate(prec)
           + (cat.delta * d2.tau(2).truncate(prec)).scale(t_minus_theta_pow(field, field.q)))
    assert rhs.prec == prec
    assert rhs == d2


@pytest.mark.parametrize("field, prec", D2_GRID, ids=lambda v: str(getattr(v, "q", v)))
def test_d2_truncates_back_from_double_precision(field, prec):
    assert FormCatalog(field, 2 * prec).d2.truncate(prec) == catalog(field, prec).d2


def d2_fixed_point_reference(cat):
    """d2 by the former construction: iterate X -> g X^(1) + delta (t - theta**q) X^(2)
    from X = 1 until it stabilises.  Each pass multiplies the valuation of
    the correction by at least q, so prec passes are far more than enough."""
    field, prec = cat.field, cat.prec
    scaled_delta = cat.delta.scale(t_minus_theta_pow(field, field.q))
    x = USeries.one(field, prec)
    for _ in range(prec):
        nxt = (cat.g * x.tau(1).truncate(prec)
               + scaled_delta * x.tau(2).truncate(prec)).truncate(prec)
        if nxt == x:
            return x
        x = nxt
    pytest.fail("fixed-point iteration did not stabilise")


@pytest.mark.parametrize("field, prec", [(F2, 32), (F3, 27), (F4, 32), (F5, 25)],
                         ids=lambda v: str(getattr(v, "q", v)))
def test_d2_matches_fixed_point_iteration(field, prec):
    cat = FormCatalog(field, prec)
    assert cat.d2 == d2_fixed_point_reference(cat)


# -- powers of u_c --------------------------------------------------------------------------


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])
@settings(max_examples=8)
@given(prec=st.integers(min_value=1, max_value=48))
def test_u_c_power_walk_matches_dense_power(p, e, prec):
    # q = 7 takes both walks: up for l <= 4, down from u_c**7 for l >= 5
    field = finite_field(p, e)
    cat = FormCatalog(field, prec)
    for d in cat.summation_degrees(1):
        for c in cat.monic(d):
            for l in range(1, field.q + 2):
                assert cat.u_c(c, l) == (cat.u_c(c) ** l).truncate(prec)


# -- ee -----------------------------------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_ee_basics(field):
    cat = catalog(field, 30)
    assert cat.ee.coefficient(1) == BiPoly.one(field)
    assert at_t_theta(cat.ee) == cat.e


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_ee_equals_h_tau_d2_with_pinned_sign(field):
    report = catalog(field, 30).check_ee_h_tau_d2()
    assert report["pass"], report


# -- power identities -----------------------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_check_ee_power_in_range(field):
    cat = catalog(field, field.q ** 3)
    for l in range(1, field.q + 1):
        report = cat.check_ee_power(l)
        assert report["equal"], report


@pytest.mark.parametrize("field", [F2, F3])
def test_check_ee_power_beyond_range_reports_difference(field):
    report = catalog(field, 30).check_ee_power(field.q + 1)
    assert not report["equal"]
    assert report["first_difference"] is not None
    assert report["first_difference"] < 30


def test_f_1_0_is_false_eisenstein():
    cat = catalog(F3, 30)
    assert cat.f_l_nu(1, 0).first_difference(cat.e) is None


@pytest.mark.parametrize("field", [F2, F3])
def test_f_closed_forms(field):
    q = field.q
    cat = catalog(field, 30)
    for l in range(1, q + 1):
        assert cat.f_l_nu(l, 1).first_difference(cat.h ** l) is None
        assert cat.f_l_nu(l, 2).first_difference((cat.h ** l) * (cat.g ** (l * q))) is None


@pytest.mark.parametrize("field", [F2, F3])
def test_check_f_power(field):
    cat = catalog(field, 30)
    for l in range(1, field.q + 1):
        for nu in (1, 2):
            assert cat.check_f_power(l, nu)["equal"]


def test_check_f_power_specific_case():
    # l = q, nu = 2 at higher precision
    assert FormCatalog(F2, 64).check_f_power(2, 2)["equal"]


@pytest.mark.parametrize("field", [F2, F3, F4, F5], ids=lambda f: f"F{f.q}")
def test_f_q_nu_is_the_frobenius_image_of_the_brute_force_sum(field):
    # f_l_nu(l, nu) = f_{1, nu}**l (for l = q a Frobenius image) is the
    # brute-force sum at every 1 <= l <= q
    q = field.q
    cat = FormCatalog(field, 2 * q ** 2 + 3)
    for nu in range(3):
        for l in range(1, q + 1):
            assert cat.f_l_nu(l, nu) == cat.a_expansion(l, power_weight(l * q ** nu)), (l, nu)


def test_f_l_nu_range_validation():
    cat = catalog(F3, 30)
    with pytest.raises(ValueError):
        cat.f_l_nu(4, 1)
    with pytest.raises(ValueError):
        cat.f_l_nu(0, 1)
    with pytest.raises(ValueError):
        cat.check_f_power(1, 0)


# -- f_s -------------------------------------------------------------------------------------


def test_f_s_basics():
    cat = catalog(F3, 30)
    fs = cat.f_s(1)
    assert fs.val() == 1
    assert fs.coefficient(1) == BiPoly.one(F3)
    deg = fs.t_degree()
    assert deg is None or deg == 0
    # s = 1 degenerates to h: exponent 1 + (q-1) = q
    assert fs.first_difference(cat.h) is None
    with pytest.raises(ValueError):
        cat.f_s(0)


@pytest.mark.parametrize("field", [F2, F3, F4], ids=lambda f: f"F{f.q}")
def test_f_s_at_a_power_of_q_is_the_closed_form(field):
    # 1 + s(q-1) = q**nu for s = (q**nu - 1) / (q - 1): f_s is f_{1, nu}
    q = field.q
    cat = FormCatalog(field, q ** 3 + 2)
    for nu in (1, 2, 3):
        s = (q ** nu - 1) // (q - 1)
        assert cat.f_s(s) is cat.f_l_nu(1, nu)
        assert cat.f_s(s) == cat.a_expansion(1, power_weight(q ** nu)), nu


# -- recursion resolution -----------------------------------------------------------------------


def test_resolve_recursive_nu2_reproduces_closed_form():
    cat = catalog(F3, 30)
    report = cat.resolve_recursive(2)
    by_key = {(c["inner"], c["bracket_twist"]): c for c in report["candidates"]}
    # the bracket factor vanishes at nu = 2, so every inner-1 variant matches
    for twist in (0, 1, 2):
        assert by_key[(1, twist)]["equal"]
        assert not by_key[(2, twist)]["equal"]
    assert cat.f_l_nu(1, 2).first_difference(cat.h * (cat.g ** cat.field.q)) is None


def test_resolve_recursive_nu3_unique_winner():
    report = FormCatalog(F2, 128).resolve_recursive(3)
    assert len(report["matching"]) == 1
    winner = report["candidates"][report["matching"][0]]
    assert winner["inner"] == 1 and winner["bracket_twist"] == 2
    for i, cand in enumerate(report["candidates"]):
        if i not in report["matching"]:
            assert cand["first_difference"] is not None
            assert cand["first_difference"] < 128


@pytest.mark.parametrize("field", [F2, F3, F4])
def test_delta_t_is_built_once(field):
    cat = FormCatalog(field, 20)
    first = cat.delta_t
    assert first == cat.delta.scale(t_minus_theta_pow(field, field.q))
    assert cat.delta_t is first


def test_bracket_twisted_vanishes_at_zero():
    assert bracket_twisted(F3, 0, 2).is_zero
    q = F3.q
    assert bracket_twisted(F3, 1, 1) == BiPoly(
        F3, {(q * q, 0): 1, (q, 0): F3.neg(1)})


# -- f_s conjecture -------------------------------------------------------------------------------


def test_conjecture_fs_small_range():
    cat = FormCatalog(F3, 80)
    assert cat.conjecture_fs(1)["equal"]
    report = cat.conjecture_fs(cat.field.q + 1)
    # outcome beyond s = q is recorded, never asserted
    assert isinstance(report["equal"], bool)
    # when the comparison holds, specializing t -> theta must keep it holding
    s = 2
    assert cat.conjecture_fs(s)["equal"]
    lhs = at_t_theta(cat.f_s(s) * cat.d2)
    exp = s * (cat.field.q - 1)
    rhs = cat.a_expansion(1, lambda c: (c ** (1 + exp)).to_bipoly())
    assert lhs.first_difference(rhs) is None


# -- catalog plumbing ----------------------------------------------------------------------------


def test_summation_cutoff_is_exact():
    # adding one more degree to a sum must not change anything below prec
    cat = FormCatalog(F3, 20)
    extra = USeries.zero(F3, 20)
    beyond = cat.summation_degrees(1)[-1] + 1
    from drinfeldforms.polynomials import enumerate_monic
    for c in enumerate_monic(F3, beyond):
        extra = extra + u_c_expansion(c, 20).scale((c ** F3.q).to_bipoly())
    assert extra.is_zero


def test_precision_consistency_of_forms():
    for name in ("g", "h", "delta", "e", "ee"):
        high = getattr(FormCatalog(F3, 40), name)
        low = getattr(FormCatalog(F3, 17), name)
        assert high.truncate(17) == low


def test_catalog_rejects_bad_precision():
    with pytest.raises(PrecisionError):
        FormCatalog(F3, 0)
