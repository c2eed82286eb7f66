import random

import pytest

from drinfeldforms.fields import finite_field
from drinfeldforms.polynomials import BiPoly, UniPoly, enumerate_monic, monic_below
from drinfeldforms.series import USeries
from test_taurec import lucas_binom

F2 = finite_field(2)
F3 = finite_field(3)


def at_t_theta(x):
    """x at t = theta: theta**i t**j -> theta**(i + j) in a BiPoly, or in
    every coefficient of a USeries (dropping the ones that vanish)."""
    if isinstance(x, USeries):
        return USeries(x.field, x.prec, {n: at_t_theta(c) for n, c in x.coeffs.items()})
    return BiPoly.from_pairs(x.field, (((i + j, 0), v) for (i, j), v in x.terms.items()))


def rand_unipoly(field, rng, max_deg):
    return UniPoly(field, [rng.randrange(field.q) for _ in range(max_deg + 1)])


def rand_bipoly(field, rng, max_deg=3, terms=4):
    return BiPoly(field, {(rng.randrange(max_deg + 1), rng.randrange(max_deg + 1)):
                          rng.randrange(field.q) for _ in range(terms)})


# -- monic enumeration ------------------------------------------------------------


def test_enumerate_monic_degree_zero():
    assert enumerate_monic(F2, 0) == [UniPoly.one(F2)]


def test_enumerate_monic_degree_one_q2():
    theta = UniPoly.gen(F2)
    assert enumerate_monic(F2, 1) == [theta, theta + UniPoly.one(F2)]


def test_enumerate_monic_count_and_shape():
    polys = enumerate_monic(F3, 2)
    assert len(polys) == 9
    assert len(set(p.coeffs for p in polys)) == 9
    for p in polys:
        assert p.is_monic and p.degree == 2


def test_enumerate_monic_deterministic_lexicographic():
    first = enumerate_monic(F3, 2)
    again = enumerate_monic(F3, 2)
    assert first == again
    vectors = [p.coeffs[:-1] for p in first]
    assert vectors == sorted(vectors)


def test_monic_below():
    assert len(monic_below(F3, 3)) == 1 + 3 + 9


# -- chi_t ------------------------------------------------------------------------


def test_chi_t_examples():
    theta = UniPoly.gen(F2)
    assert (theta * theta + theta).chi_t() == BiPoly(F2, {(0, 2): 1, (0, 1): 1})
    assert UniPoly.one(F3).chi_t() == BiPoly.one(F3)


def test_chi_t_is_ring_homomorphism_exhaustive():
    polys = []
    for d in range(4):
        polys.extend(enumerate_monic(F2, d))
    for a in polys:
        for b in polys:
            assert (a * b).chi_t() == a.chi_t() * b.chi_t()
            assert (a + b).chi_t() == a.chi_t() + b.chi_t()


# -- tau on coefficients ------------------------------------------------------------


def test_tau_coeff_examples():
    q = F3.q
    theta_minus_t = BiPoly(F3, {(1, 0): 1, (0, 1): F3.neg(1)})
    assert theta_minus_t.tau_twist(1) == BiPoly(F3, {(q, 0): 1, (0, 1): F3.neg(1)})
    rng = random.Random(5)
    c = rand_bipoly(F3, rng)
    assert c.tau_twist(0) == c


def test_tau_coeff_is_ring_homomorphism():
    rng = random.Random(17)
    for _ in range(25):
        c = rand_bipoly(F3, rng, max_deg=5)
        d = rand_bipoly(F3, rng, max_deg=5)
        assert (c * d).tau_twist(1) == c.tau_twist(1) * d.tau_twist(1)
        assert (c + d).tau_twist(2) == c.tau_twist(2) + d.tau_twist(2)


def test_tau_coeff_composes():
    rng = random.Random(23)
    c = rand_bipoly(F3, rng)
    assert c.tau_twist(1).tau_twist(2) == c.tau_twist(3)


@pytest.mark.parametrize("method", ["tau_twist", "frobenius"])
def test_negative_twist_is_rejected(method):
    # theta**3 + 2 theta t; a negative k once gave float exponents
    c = BiPoly(F3, {(3, 0): 1, (1, 1): 2})
    with pytest.raises(ValueError):
        getattr(c, method)(-1)


def test_bipoly_mul_against_integer_oracle():
    # independent dense convolution over F_p, p prime
    rng = random.Random(3)
    for _ in range(20):
        a = rand_bipoly(F3, rng)
        b = rand_bipoly(F3, rng)
        expected = {}
        for (i1, j1), v1 in a.terms.items():
            for (i2, j2), v2 in b.terms.items():
                key = (i1 + i2, j1 + j2)
                expected[key] = (expected.get(key, 0) + v1 * v2) % 3
        expected = {k: v for k, v in expected.items() if v}
        assert (a * b).terms == expected


def test_bipoly_frobenius_is_qth_power():
    rng = random.Random(29)
    for field in (F2, F3, finite_field(2, 2)):
        c = rand_bipoly(field, rng)
        direct = BiPoly.one(field)
        for _ in range(field.q):
            direct = direct * c
        assert c.frobenius(1) == direct


def test_bipoly_subs_t_theta():
    # theta - t vanishes at t = theta; theta + t collapses to 2 theta
    tm = BiPoly(F3, {(1, 0): 1, (0, 1): F3.neg(1)})
    assert at_t_theta(tm).is_zero
    tp = BiPoly(F3, {(1, 0): 1, (0, 1): 1})
    assert at_t_theta(tp) == BiPoly(F3, {(1, 0): 2})


# -- univariate helpers ------------------------------------------------------------


def test_unipoly_pow_q_fast_path():
    rng = random.Random(9)
    a = rand_unipoly(F3, rng, 4)
    slow = UniPoly.one(F3)
    for _ in range(9):
        slow = slow * a
    assert a ** 9 == slow


def test_zero_polynomial_degree_is_sentinel():
    assert UniPoly.zero(F3).degree is None
    assert BiPoly.zero(F3).theta_degree() is None


# -- Lucas binomials (the binomial-mod-p reference of tests/test_taurec.py) -------------


def test_lucas_examples():
    assert lucas_binom(6, 3, 2) == 0
    assert lucas_binom(6, 2, 3) == 0
    for p in (2, 3, 5):
        for n in range(10):
            assert lucas_binom(n, 0, p) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lucas_against_pascal(p):
    # independent Pascal-triangle oracle mod p
    limit = 64
    row = [1]
    for n in range(limit + 1):
        for i in range(n + 1):
            assert lucas_binom(n, i, p) == row[i]
        row = [1] + [(row[i] + row[i + 1]) % p for i in range(n)] + [1]


def test_lucas_vanishing_witness():
    # C(l(q-1), i(q-1)) = 0 mod p inside the stated range, q = 3, l = 3, i = 1
    assert lucas_binom(3 * 2, 1 * 2, 3) == 0
