"""The relaxed solver behind USeries division (u_c, the steps of u_c**l,
unit inverses) and d2, against the dense index loops it replaced (kept
here as references)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldforms import polynomials
from drinfeldforms.fields import finite_field
from drinfeldforms.forms import FormCatalog, t_minus_theta_pow
from drinfeldforms.polynomials import BiPoly, UniPoly, enumerate_monic
from drinfeldforms.series import USeries, _relaxed_solve, _reversed_phi

FIELDS = [finite_field(2), finite_field(3), finite_field(2, 2), finite_field(5),
          finite_field(7)]
FIELD_IDS = [f"F{f.q}" for f in FIELDS]


# -- dense references: one kernel call per exponent below the precision -------------------


def times_u_qd_over_pc_reference(y, qd, terms):
    field = y.field
    one = BiPoly.one(field)
    neg_terms = [(s, -a) for s, a in terms]
    z = {}
    for n in range(y.val() + qd, y.prec):
        pairs = [(a, z[n - s]) for s, a in neg_terms if n - s in z]
        yn = y.coeffs.get(n - qd)
        if yn is not None:
            pairs.append((one, yn))
        zn = BiPoly.sum_of_products(field, pairs)
        if not zn.is_zero:
            z[n] = zn
    return USeries(field, y.prec, z)


def times_pc_over_u_qd_reference(y, qd, terms):
    field = y.field
    full = [(0, BiPoly.one(field))] + terms
    z = {}
    for m in range(y.val() - qd, y.prec - qd):
        pairs = [(a, y.coeffs[m + qd - s]) for s, a in full if m + qd - s in y.coeffs]
        zm = BiPoly.sum_of_products(field, pairs)
        if not zm.is_zero:
            z[m] = zm
    return USeries(field, y.prec - qd, z)


def inv_reference(y):
    f = y.field
    inv0 = f.inv(y.coeffs[0].terms[(0, 0)])
    a_items = sorted((n, c) for n, c in y.coeffs.items() if n > 0)
    b = {0: BiPoly.scalar(f, inv0)}
    for n in range(1, y.prec):
        acc = BiPoly.sum_of_products(
            f, [(ak, b[n - k]) for k, ak in a_items if k <= n and n - k in b])
        if not acc.is_zero:
            b[n] = acc.scale(f.neg(inv0))
    return USeries(f, y.prec, b)


def d2_reference(cat):
    field, prec, q = cat.field, cat.prec, cat.field.q
    g = cat.g.coeffs
    scaled_delta = cat.delta.scale(t_minus_theta_pow(field, q)).coeffs
    one = BiPoly.one(field)
    x = {0: one}
    twisted = [(0, one, one)]
    for n in range(1, prec):
        pairs = []
        for k, tau1, tau2 in twisted:
            if k * q > n:
                break
            a = g.get(n - k * q)
            if a is not None:
                pairs.append((a, tau1))
            b = scaled_delta.get(n - k * q * q)
            if b is not None:
                pairs.append((b, tau2))
        xn = BiPoly.sum_of_products(field, pairs)
        if not xn.is_zero:
            x[n] = xn
            twisted.append((n, xn.tau_twist(1), xn.tau_twist(2)))
    return USeries(field, prec, x)


# -- random inputs ------------------------------------------------------------------------


def rand_coeff(field, rng):
    out = BiPoly(field, {(rng.randrange(3), rng.randrange(3)): rng.randrange(1, field.q)
                         for _ in range(rng.randrange(1, 4))})
    return out if not out.is_zero else BiPoly.one(field)


def rand_series(field, rng, prec, val, density):
    """A series with valuation val (when val < prec) and gaps elsewhere."""
    coeffs = {n: rand_coeff(field, rng) for n in range(val + 1, prec) if rng.random() < density}
    if val < prec:
        coeffs[val] = rand_coeff(field, rng)
    return USeries(field, prec, coeffs)


def rand_monic(field, rng, d):
    return UniPoly(field, [rng.randrange(field.q) for _ in range(d)] + [1])


def rand_unit(field, rng, prec, density):
    """A series whose constant term is a random nonzero F_q scalar."""
    return rand_series(field, rng, prec, 1, density) + USeries(
        field, prec, {0: BiPoly.scalar(field, rng.randrange(1, field.q))})


def reversed_phi_terms(field, rng, d):
    """(q**d, P_c as a dict, the terms of P_c other than its constant 1)
    for a random monic c of degree d."""
    qd, pc = _reversed_phi(rand_monic(field, rng, d))
    return qd, pc, [(s, a) for s, a in sorted(pc.items()) if s]


def up_step(y, qd, pc):
    """y u**(q**d) / P_c at the precision of y."""
    field, prec = y.field, y.prec
    return (USeries(field, prec, {n + qd: c for n, c in y.coeffs.items()})
            / USeries(field, prec, pc))


series_cases = dict(field=st.sampled_from(FIELDS), seed=st.integers(0, 2 ** 32 - 1),
                    prec=st.integers(1, 40), density=st.sampled_from([0.1, 0.4, 1.0]))


@settings(max_examples=60)
@given(val=st.integers(0, 12), d=st.integers(0, 3), **series_cases)
def test_u_c_up_step_matches_dense_loop(field, seed, prec, density, val, d):
    rng = random.Random(seed)
    qd, pc, terms = reversed_phi_terms(field, rng, d)
    y2 = rand_series(field, rng, 2 * prec, val, density)
    y = y2.truncate(prec)
    assert up_step(y, qd, pc) == times_u_qd_over_pc_reference(y, qd, terms)
    assert up_step(y2, qd, pc).truncate(prec) == up_step(y, qd, pc)


@settings(max_examples=60)
@given(extra=st.integers(0, 12), d=st.integers(0, 3), **series_cases)
def test_u_c_down_step_matches_dense_loop(field, seed, prec, density, extra, d):
    rng = random.Random(seed)
    qd, pc, terms = reversed_phi_terms(field, rng, d)
    prec += qd
    y2 = rand_series(field, rng, 2 * prec, qd + extra, density)
    y = y2.truncate(prec)
    z = (y * USeries(field, prec, pc)).shift(-qd)
    assert z == times_pc_over_u_qd_reference(y, qd, terms)
    assert (y2 * USeries(field, 2 * prec, pc)).shift(-qd).truncate(prec - qd) == z


@settings(max_examples=60)
@given(**series_cases)
def test_inv_matches_dense_loop(field, seed, prec, density):
    rng = random.Random(seed)
    y2 = rand_unit(field, rng, 2 * prec, density)
    y = y2.truncate(prec)
    inv = USeries.one(field, prec) / y
    assert inv == inv_reference(y)
    assert (USeries.one(field, 2 * prec) / y2).truncate(prec) == inv


@settings(max_examples=80)
@given(val=st.integers(0, 12), den_prec=st.integers(1, 40), **series_cases)
def test_division_precision_reference_and_round_trip(field, seed, prec, density, val,
                                                     den_prec):
    # a / b for b with any nonzero scalar constant term, a of valuation 0..12
    # (zero when val >= prec): the precision of a * (1 / b), its value, and
    # the README's promise that recomputing at higher precision truncates back
    rng = random.Random(seed)
    a2 = rand_series(field, rng, 2 * prec, val, density)
    b2 = rand_unit(field, rng, 2 * den_prec, density)
    a, b = a2.truncate(prec), b2.truncate(den_prec)
    quotient = a / b
    assert quotient.prec == min(a.prec, b.prec + a.val())
    assert quotient == a * inv_reference(b)
    back = quotient * b
    assert back == a.truncate(back.prec)
    assert (a2 / b2).truncate(quotient.prec) == quotient
    # a constant term of 0, theta or t is no unit scalar
    rest = {n: c for n, c in b.coeffs.items() if n}
    for constant in ({}, {0: BiPoly(field, {(1, 0): 1})}, {0: BiPoly(field, {(0, 1): 1})}):
        with pytest.raises(ValueError):
            a / USeries(field, den_prec, {**rest, **constant})


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=6)
@given(prec=st.integers(1, 60))
def test_d2_matches_dense_loop(field, prec):
    cat = FormCatalog(field, prec)
    assert cat.d2 == d2_reference(cat)
    assert FormCatalog(field, 2 * prec).d2.truncate(prec) == cat.d2


# -- the solver itself --------------------------------------------------------------------


def test_contribution_landing_on_its_source_is_left_to_the_seed():
    # x_n = tau(x_(n/2)) [n even] + tau(x_((n-1)/2)) [n odd] over F_2, from
    # x_0 = 1: the offset-0 term lands x_0 on itself, which must neither loop
    # nor change x_0
    field = finite_field(2)
    one = BiPoly.one(field)
    x = _relaxed_solve(field, 40, {0: one}, [(1, [(0, one), (1, one)])])
    assert x == {n: one for n in range(40)}


def test_transforms_run_once_per_found_coefficient(monkeypatch):
    field = finite_field(3)
    one = BiPoly.one(field)
    theta = BiPoly(field, {(1, 0): 1})
    twists = []
    tau_twist = BiPoly.tau_twist

    def counted(x, k=1):
        twists.append(k)
        return tau_twist(x, k)

    monkeypatch.setattr(BiPoly, "tau_twist", counted)
    # x_n = seed_n + theta tau(x_k) for n = 3k + 1 and n = 3k + 2: both
    # offsets share one twist of each x_k that reaches below the precision
    x = _relaxed_solve(field, 60, {0: one}, [(1, [(1, theta), (2, theta)])])
    assert twists == [1] * len([n for n in x if 3 * n + 1 < 60]) == [1] * 11
    # division is the term i = 0: x_n = seed_n + x_(n-1) + x_(n-2), each
    # found x_n twisted once by tau**0
    twists.clear()
    y = _relaxed_solve(field, 20, {0: one}, [(0, [(1, one), (2, one)])])
    assert twists == [0] * len([n for n in y if n + 1 < 20])
    monkeypatch.undo()
    assert x[4] == x[5] == theta * theta.tau_twist(1)


def test_unreached_exponents_make_no_kernel_call(monkeypatch):
    # every degree-7 monic over F_2 at precision 256: u_c = u**128 / P_c has
    # 8 nonzero coefficients, where a dense loop makes one call per exponent;
    # u**128 itself is reached by the seed alone and costs no call, and the
    # constant term 1 of P_c makes its other terms offsets with no product
    field, prec = finite_field(2), 256
    calls = []
    kernel = polynomials._product_sum

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    for c in enumerate_monic(field, 7):
        qd, pc = _reversed_phi(c)
        num, den = USeries(field, prec, {qd: BiPoly.one(field)}), USeries(field, prec, pc)
        calls.clear()
        monkeypatch.setattr(polynomials, "_product_sum", counted)
        uc = num / den
        monkeypatch.setattr(polynomials, "_product_sum", kernel)
        reached = {qd} | {n + s for n in uc.coeffs for s in pc if s and n + s < prec}
        assert len(calls) == len(reached) - 1 == 7
