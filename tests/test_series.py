import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldforms import series
from drinfeldforms.errors import PrecisionError
from drinfeldforms.fields import finite_field
from drinfeldforms.polynomials import BiPoly, UniPoly, enumerate_monic
from drinfeldforms.series import USeries, carlitz_phi, u_c_expansion, u_c_power

F2 = finite_field(2)
F3 = finite_field(3)
F4 = finite_field(2, 2)
F5 = finite_field(5)


def scalar_series(field, prec, terms):
    """The series with the F_q-scalar coefficients {n: c}."""
    return USeries(field, prec, {n: BiPoly.scalar(field, c) for n, c in terms.items()})


def compose(f, g):
    """Twisted product of two coefficient tuples, tau * c = c**q * tau:
    the oracle for phi_(ab) = phi_a phi_b."""
    field = f[0].field
    out = [UniPoly.zero(field)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b.tau_twist(i)
    return tuple(out)


def rand_series(field, rng, prec, max_coeff_deg=2, unit=False):
    coeffs = {}
    for n in range(prec):
        if rng.random() < 0.5:
            terms = {(rng.randrange(max_coeff_deg + 1), rng.randrange(max_coeff_deg + 1)):
                     rng.randrange(field.q) for _ in range(2)}
            coeffs[n] = BiPoly(field, terms)
    if unit:
        coeffs[0] = BiPoly.scalar(field, rng.randrange(1, field.q))
    return USeries(field, prec, coeffs)


# -- ring operations -----------------------------------------------------------------


def test_mul_one_minus_u_squared():
    one_plus = scalar_series(F3, 10, {0: 1, 1: 1})
    one_minus = scalar_series(F3, 10, {0: 1, 1: F3.neg(1)})
    assert one_plus * one_minus == scalar_series(F3, 10, {0: 1, 2: F3.neg(1)})


def test_mul_by_zero():
    rng = random.Random(1)
    f = rand_series(F3, rng, 12)
    z = USeries.zero(F3, 12)
    prod = f * z
    assert prod.is_zero
    # zero at precision P has valuation P, so the product gains precision
    assert prod.prec == 12 + f.val()


@pytest.mark.parametrize("field", [F2, F3, F5])
def test_cube_of_u_plus_u_squared(field):
    # (u + u^2)^3 = u^3 + 3u^4 + 3u^5 + u^6, truncated below u^6
    f = scalar_series(field, 6, {1: 1, 2: 1})
    three = field.scalar(3)
    expected = scalar_series(field, 8, {3: 1, 4: three, 5: three})
    cube = f ** 3
    assert cube.truncate(6) == expected.truncate(6)


def test_add_and_mul_precision_rules():
    f = scalar_series(F3, 10, {0: 1, 1: 2})
    g = scalar_series(F3, 7, {0: 1})
    assert (f + g).prec == 7
    assert (f * g).prec == 7
    shifted = scalar_series(F3, 10, {3: 1})   # valuation 3
    assert (f * shifted).prec == min(10 + 3, 10 + 0)
    assert (shifted * shifted).prec == 13


def test_pow_zero_and_negative():
    f = scalar_series(F3, 5, {0: 1, 1: 1})
    assert f ** 0 == USeries.one(F3, 5)
    with pytest.raises(ValueError):
        f ** -1


# -- division ---------------------------------------------------------------------------


def test_inv_one():
    assert USeries.one(F3, 6) / USeries.one(F3, 6) == USeries.one(F3, 6)


def test_inv_geometric():
    theta = BiPoly(F3, {(1, 0): 1})
    f = USeries(F3, 4, {0: BiPoly.one(F3), 1: theta})
    expected = USeries(F3, 4, {0: BiPoly.one(F3),
                               1: -theta,
                               2: theta * theta,
                               3: -(theta * theta * theta)})
    assert USeries.one(F3, 4) / f == expected


def test_inv_round_trip_random():
    rng = random.Random(42)
    for _ in range(50):
        f = rand_series(F3, rng, 9, unit=True)
        assert f * (USeries.one(F3, 9) / f) == USeries.one(F3, 9)


def test_inv_requires_unit_scalar_constant():
    one = USeries.one(F3, 5)
    with pytest.raises(ValueError):
        one / scalar_series(F3, 5, {1: 1})
    with pytest.raises(ValueError):
        one / USeries(F3, 5, {0: BiPoly(F3, {(1, 0): 1})})


# -- tau and Frobenius ---------------------------------------------------------------------


def test_tau_on_u():
    u = scalar_series(F3, 4, {1: 1})
    assert u.tau(1) == scalar_series(F3, 12, {3: 1})


@pytest.mark.parametrize("field", [F2, F3])
def test_tau_on_theta_minus_t_term(field):
    q = field.q
    coeff = BiPoly(field, {(1, 0): 1, (0, 1): field.neg(1)})
    f = USeries(field, q, {q - 1: coeff})
    image = f.tau(1)
    expected_coeff = BiPoly(field, {(q, 0): 1, (0, 1): field.neg(1)})
    assert image == USeries(field, q * q, {q * (q - 1): expected_coeff})


def test_tau_composes_and_respects_products():
    rng = random.Random(8)
    f = rand_series(F3, rng, 6)
    g = rand_series(F3, rng, 6)
    assert f.tau(1).tau(2) == f.tau(3)
    assert (f * g).tau(1) == f.tau(1) * g.tau(1)


def test_frobenius_is_qth_power():
    rng = random.Random(12)
    for field in (F2, F3):
        f = rand_series(field, rng, 5)
        direct = USeries.one(field, f.prec)
        for _ in range(field.q):
            direct = direct * f
        assert f.frobenius(1).truncate(direct.prec) == direct


def test_pow_matches_repeated_multiplication():
    rng = random.Random(13)
    f = rand_series(F3, rng, 5, unit=True)
    direct = f
    for _ in range(8):
        direct = direct * f
    assert (f ** 9).truncate(direct.prec) == direct


# -- truncation and shifting ----------------------------------------------------------------


def test_truncation_consistency_u_c():
    theta = UniPoly.gen(F3)
    high = u_c_expansion(theta, 40)
    low = u_c_expansion(theta, 20)
    assert high.truncate(20) == low


def test_truncate_cannot_extend():
    f = USeries.one(F3, 5)
    with pytest.raises(PrecisionError):
        f.truncate(6)
    with pytest.raises(PrecisionError):
        f.truncate(0)


def test_shift_validation():
    f = scalar_series(F3, 6, {2: 1})
    assert f.shift(-2) == scalar_series(F3, 4, {0: 1})
    with pytest.raises(ValueError):
        f.shift(-3)
    with pytest.raises(PrecisionError):
        USeries.zero(F3, 6).shift(-6)


def test_constructor_rejects_nonpositive_precision():
    with pytest.raises(PrecisionError):
        USeries.zero(F3, 0)


# -- the precision property ------------------------------------------------------------------

PROPERTY_FIELDS = [finite_field(2), finite_field(3), finite_field(2, 2), F5]


@st.composite
def series_pairs(draw, field, low, high, unit=False):
    """(series at precision low, the same series known to precision high): a
    sparse draw with gaps, often of positive valuation."""
    val = 0 if unit else draw(st.integers(0, min(3, high - 1)))
    exps = draw(st.sets(st.integers(val, high - 1), max_size=6))
    coeffs = {}
    for n in exps:
        terms = draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 1)),
                                     st.integers(1, field.q - 1), min_size=1, max_size=3))
        coeffs[n] = BiPoly(field, terms)
    if unit:
        coeffs[0] = BiPoly.scalar(field, draw(st.integers(1, field.q - 1)))
    return USeries(field, low, coeffs), USeries(field, high, coeffs)


def truncates_back(high, low):
    return high.prec >= low.prec and high.truncate(low.prec) == low


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=lambda f: f"F{f.q}")
@settings(max_examples=40)
@given(data=st.data())
def test_recomputing_at_higher_precision_truncates_back(field, data):
    # the README's promise for every USeries operation: for P < P', the
    # result at P' truncated to the precision of the result at P is it
    low = data.draw(st.integers(1, 12))
    high = low + data.draw(st.integers(1, 8))
    a, a_hi = data.draw(series_pairs(field, low, high))
    b, b_hi = data.draw(series_pairs(field, low, high))
    k = data.draw(st.sampled_from([0, 1, 2, 3, field.q, field.q + 1]))
    assert truncates_back(a_hi * b_hi, a * b)
    assert truncates_back(a_hi ** k, a ** k)
    for j in (1, 2):
        assert truncates_back(a_hi.tau(j), a.tau(j))
        assert truncates_back(a_hi.frobenius(j), a.frobenius(j))
    m = data.draw(st.integers(-min(a.val(), low - 1), 4))
    assert truncates_back(a_hi.shift(m), a.shift(m))
    c, c_hi = data.draw(series_pairs(field, low, high, unit=True))
    assert truncates_back(USeries.one(field, high) / c_hi, USeries.one(field, low) / c)
    assert truncates_back(a_hi / c_hi, a / c)


@pytest.mark.parametrize("field", [F2, F3, F4, F5, finite_field(3, 2)], ids=lambda f: f"F{f.q}")
@settings(max_examples=25)
@given(data=st.data())
def test_modular_power_is_the_truncated_power(field, data):
    # pow(x, k, prec) is (x**k).truncate(prec) at every prec up to the
    # precision of x**k, for any valuation of x (prec itself: no term left);
    # above it, or at prec 0, both raise the same PrecisionError
    prec = data.draw(st.integers(1, 10))
    val = data.draw(st.integers(0, prec))
    exps = data.draw(st.sets(st.integers(val, prec - 1), max_size=5)) if val < prec else set()
    coeffs = {n: BiPoly(field, data.draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 1)), st.integers(1, field.q - 1),
        min_size=1, max_size=3))) for n in exps | ({val} if val < prec else set())}
    x = USeries(field, prec, coeffs)
    k = data.draw(st.integers(0, 3 * field.q))
    power = x ** k
    for p in range(1, power.prec + 1):
        assert pow(x, k, p) == power.truncate(p), p
    for p in (0, power.prec + 1, power.prec + field.q):
        with pytest.raises(PrecisionError) as truncated:
            power.truncate(p)
        with pytest.raises(PrecisionError) as modular:
            pow(x, k, p)
        assert str(modular.value) == str(truncated.value)


# -- Carlitz module --------------------------------------------------------------------------


def test_phi_theta():
    theta = UniPoly.gen(F3)
    assert carlitz_phi(theta) == (theta, UniPoly.one(F3))


def test_phi_constant():
    assert carlitz_phi(UniPoly.one(F3)) == (UniPoly.one(F3),)


@pytest.mark.parametrize("field", [F2, F3])
def test_phi_theta_squared(field):
    theta = UniPoly.gen(field)
    expected_mid = theta.tau_twist(1) + theta   # theta^q + theta
    assert carlitz_phi(theta * theta) == (theta * theta, expected_mid, UniPoly.one(field))


@pytest.mark.parametrize("field", [F2, F3])
def test_phi_is_multiplicative_exhaustive(field):
    polys = []
    for d in (1, 2):
        polys.extend(enumerate_monic(field, d))
    for a in polys:
        for b in polys:
            assert carlitz_phi(a * b) == compose(carlitz_phi(a), carlitz_phi(b))


@pytest.mark.parametrize("field", [F2, F3])
def test_phi_coefficient_invariants(field):
    for d in (1, 2, 3):
        for a in enumerate_monic(field, d):
            phi = carlitz_phi(a)
            assert len(phi) == d + 1
            assert phi[0] == a
            assert phi[d] == UniPoly.one(field)


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_phi_theta_powers_match_the_composed_chain(field):
    # the recurrence [theta**k, i] = theta [theta**(k-1), i] + tau([theta**(k-1), i-1])
    # is phi_theta composed with phi_{theta**(k-1)}
    phi_theta = (UniPoly.gen(field), UniPoly.one(field))
    chained = (UniPoly.one(field),)
    for k in range(6):
        assert series._phi_theta_power(field, k) == chained
        chained = compose(phi_theta, chained)


def test_phi_theta_chain_is_built_once_per_field():
    # carlitz_phi combines cached phi_{theta**k}; only a longer chain builds more
    series._phi_theta_power.cache_clear()
    theta = UniPoly.gen(F3)
    a = theta * theta * theta + theta
    first = carlitz_phi(a)
    # phi_{theta**k} for k = 0..3
    assert series._phi_theta_power.cache_info().misses == 4
    assert carlitz_phi(a + UniPoly.one(F3)) == (first[0] + UniPoly.one(F3), *first[1:])
    assert series._phi_theta_power.cache_info().misses == 4
    carlitz_phi(a * theta * theta)
    assert series._phi_theta_power.cache_info().misses == 6
    # each phi_a still equals the composition it is defined by
    phi_theta = (theta, UniPoly.one(F3))
    chained = (UniPoly.one(F3),)
    for _ in range(3):
        chained = compose(phi_theta, chained)
    assert carlitz_phi(theta * theta * theta) == chained


def test_phi_rejects_zero():
    with pytest.raises(ValueError):
        carlitz_phi(UniPoly.zero(F3))


# -- u_c ----------------------------------------------------------------------------------------


def test_u_one_is_u():
    assert u_c_expansion(UniPoly.one(F3), 7) == scalar_series(F3, 7, {1: 1})


@pytest.mark.parametrize("field", [F2, F3])
def test_u_theta_alternating_pattern(field):
    q = field.q
    prec = 4 * q
    series = u_c_expansion(UniPoly.gen(field), prec)
    expected = {}
    k = 0
    while q + k * (q - 1) < prec:
        coeff = field.pow(field.neg(1), k)
        theta_pow = BiPoly(field, {(k, 0): coeff})
        expected[q + k * (q - 1)] = theta_pow
        k += 1
    assert series == USeries(field, prec, expected)


@pytest.mark.parametrize("field", [F2, F3])
def test_u_c_leading_terms(field):
    q = field.q
    prec = q ** 3 + 2
    for d in (0, 1, 2, 3):
        for c in enumerate_monic(field, d):
            series = u_c_expansion(c, prec)
            if q ** d >= prec:
                assert series.is_zero
                continue
            assert series.val() == q ** d
            assert series.coefficient(q ** d) == BiPoly.one(field)
            deg = series.t_degree()
            assert deg is None or deg == 0


def test_u_c_requires_monic():
    f = UniPoly(F3, (0, 2))  # 2*theta
    with pytest.raises(ValueError):
        u_c_expansion(f, 10)


def test_u_c_power_rejects_exponents_outside_one_to_q():
    theta = UniPoly.gen(F3)
    uc = u_c_expansion(theta, 20)
    assert u_c_power(uc, theta, 3) == uc.frobenius(1).truncate(20)
    for l in (0, 4):
        with pytest.raises(ValueError):
            u_c_power(uc, theta, l)
