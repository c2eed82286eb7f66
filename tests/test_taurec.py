import random
from itertools import permutations
from math import comb

import pytest

from drinfeldforms.fields import finite_field
from drinfeldforms.forms import FormCatalog
from drinfeldforms.polynomials import BiPoly
from drinfeldforms.series import USeries
from drinfeldforms.shadowed import g1k_shadowed
from drinfeldforms import taurec
from drinfeldforms.taurec import (TauOperator, g_sequence, matrix_det, operator_l1,
                                  operator_l2, sym_det_trials, sym_power_matrix)

F2 = finite_field(2)
F3 = finite_field(3)
F4 = finite_field(2, 2)
F5 = finite_field(5)


def rand_bipoly(field, rng, max_deg=2, terms=3):
    out = BiPoly(field, {(rng.randrange(max_deg + 1), rng.randrange(max_deg + 1)):
                         rng.randrange(1, field.q) for _ in range(terms)})
    return out if not out.is_zero else BiPoly.one(field)


# -- operators and sequences -------------------------------------------------------


def test_identity_operator_fixes_sequences():
    cat = FormCatalog(F3, 20)
    op = TauOperator([USeries.one(F3, 20)])
    seq = g_sequence(cat, 1, 3)
    image = op.apply(seq)
    assert len(image) == len(seq)
    for k, entry in enumerate(image):
        assert entry.first_difference(seq[k]) is None


@pytest.mark.parametrize("field", [F2, F3, finite_field(2, 2), F5])
def test_l1_annihilates_constant_d2(field):
    cat = FormCatalog(field, min(field.q ** 3, 40))
    image = operator_l1(cat).apply([cat.d2] * 5)
    assert len(image) == 3
    for entry in image:
        assert entry.is_zero
        assert entry.prec >= cat.prec


def test_annihilates_needs_zero_entries_at_the_certified_precision():
    cat = FormCatalog(F3, 27)
    op = operator_l1(cat)
    assert op.annihilates([cat.d2] * 5, cat.prec)
    assert not op.annihilates([cat.d2] * 5, cat.prec + 1)
    assert not op.annihilates([cat.g] * 5, cat.prec)


@pytest.mark.parametrize("field", [F2, F3])
def test_l1_annihilates_closed_form_sequence(field):
    cat = FormCatalog(field, field.q ** 3)
    image = operator_l1(cat).apply(g_sequence(cat, 1, 5))
    for entry in image:
        assert entry.is_zero


@pytest.mark.parametrize("field", [F2, F3])
def test_l2_annihilates_squared_sequence(field):
    cat = FormCatalog(field, field.q ** 3)
    image = operator_l2(cat).apply(g_sequence(cat, 2, 5))
    for entry in image:
        assert entry.is_zero
        assert entry.prec >= cat.prec


def test_operator_orders_and_leading_coefficients():
    cat = FormCatalog(F3, 27)
    l1, l2 = operator_l1(cat), operator_l2(cat)
    assert l1.order == 2 and l2.order == 3
    assert l1.coeffs[0] == USeries.one(F3, 27)
    assert l2.coeffs[0] == USeries.one(F3, 27)


def test_operator_rejects_zero_ends():
    with pytest.raises(ValueError):
        TauOperator([USeries.zero(F3, 5), USeries.one(F3, 5)])
    with pytest.raises(ValueError):
        TauOperator([USeries.one(F3, 5), USeries.zero(F3, 5)])


def test_window_too_short():
    cat = FormCatalog(F3, 27)
    seq = [cat.d2] * 3
    with pytest.raises(ValueError):
        operator_l2(cat).apply(seq)


def test_l2_needs_enough_precision():
    from drinfeldforms.errors import PrecisionError
    # the tau^3 coefficient has valuation (1 + 2q)(q - 1) = 14 for q = 3
    with pytest.raises(PrecisionError):
        operator_l2(FormCatalog(F3, 9))


# -- g_sequence ----------------------------------------------------------------------


def test_g_sequence_entries():
    cat = FormCatalog(F3, 20)
    seq1 = g_sequence(cat, 1, 2)
    assert (seq1[1] + cat.g).is_zero
    seq2 = g_sequence(cat, 2, 2)
    minus_one = USeries.one(F3, 20).scale(BiPoly.scalar(F3, F3.neg(1)))
    assert seq2[0] == minus_one
    # entry k of the squared sequence is minus the square of the base entry
    base = g1k_shadowed(cat, 2)
    assert (seq2[2] + (base * base).truncate(20)).is_zero


def test_g_sequence_range_check():
    cat = FormCatalog(F3, 10)
    with pytest.raises(ValueError):
        g_sequence(cat, 4, 3)


# -- symmetric powers ------------------------------------------------------------------


def test_sym_power_l1_is_the_matrix():
    rng = random.Random(4)
    a, b, c, d = (rand_bipoly(F3, rng) for _ in range(4))
    m = sym_power_matrix(a, b, c, d, 1)
    assert m == [[a, b], [c, d]]


def test_sym_power_of_identity():
    one, zero = BiPoly.one(F3), BiPoly.zero(F3)
    m = sym_power_matrix(one, zero, zero, one, 2)
    assert m == [[one, zero, zero], [zero, one, zero], [zero, zero, one]]


@pytest.mark.parametrize("field", [F2, F3, F5])
def test_sym_power_determinant(field):
    rng = random.Random(field.q)
    for l in (1, 2, 3, 4):
        for _ in range(8):
            a, b, c, d = (rand_bipoly(field, rng) for _ in range(4))
            det = matrix_det(sym_power_matrix(a, b, c, d, l))
            assert det == (a * d - b * c) ** ((l * l + l) // 2)


def test_sym_det_trials(monkeypatch):
    assert sym_det_trials(F3, 3, 5, random.Random(1))
    with pytest.raises(ValueError):
        sym_det_trials(F3, 3, 0, random.Random(1))
    # a wrong determinant is caught
    monkeypatch.setattr(taurec, "matrix_det", lambda matrix: BiPoly.zero(F3))
    assert not sym_det_trials(F3, 3, 5, random.Random(1))


@pytest.mark.parametrize("l", [2, 3])
def test_sym_power_multiplicative(l):
    rng = random.Random(100 + l)
    a, b, c, d = (rand_bipoly(F3, rng) for _ in range(4))
    a2, b2, c2, d2 = (rand_bipoly(F3, rng) for _ in range(4))
    m = sym_power_matrix(a, b, c, d, l)
    n = sym_power_matrix(a2, b2, c2, d2, l)
    mn = sym_power_matrix(a * a2 + b * c2, a * b2 + b * d2,
                          c * a2 + d * c2, c * b2 + d * d2, l)
    zero = BiPoly.zero(F3)
    for i in range(l + 1):
        for j in range(l + 1):
            entry = zero
            for k in range(l + 1):
                entry = entry + m[i][k] * n[k][j]
            assert entry == mn[i][j]


def lucas_binom(n, i, p):
    """Binomial coefficient C(n, i) mod p, digit by digit in base p."""
    if n < 0 or i < 0:
        raise ValueError("arguments must be >= 0")
    res = 1
    while n or i:
        ni, ii = n % p, i % p
        if ii > ni:
            return 0
        res = res * comb(ni, ii) % p
        n //= p
        i //= p
    return res


def sym_power_reference(a, b, c, d, l):
    """The entry-by-entry triple loop: entry (r, s) sums, over j,
    C(l-s, j) C(s, l-r-j) a**j c**(l-s-j) b**(l-r-j) d**(s-l+r+j), with
    Lucas binomials mod p."""
    field = a.field
    p = field.p
    pows = {}
    for name, poly in (("a", a), ("b", b), ("c", c), ("d", d)):
        row = [BiPoly.one(field)]
        for _ in range(l):
            row.append(row[-1] * poly)
        pows[name] = row
    matrix = []
    for r in range(l + 1):
        row = []
        for s in range(l + 1):
            entry = BiPoly.zero(field)
            for j in range(max(0, l - r - s), min(l - s, l - r) + 1):
                coef = (lucas_binom(l - s, j, p) * lucas_binom(s, l - r - j, p)) % p
                if coef:
                    left = pows["a"][j] * pows["c"][l - s - j]
                    right = pows["b"][l - r - j] * pows["d"][s - l + r + j]
                    entry = entry + (left * right).scale(field.scalar(coef))
            row.append(entry)
        matrix.append(row)
    return matrix


@pytest.mark.parametrize("field", [F3, F4, F5])
def test_sym_power_matches_triple_loop_reference(field):
    rng = random.Random(200 + field.q)
    zero = BiPoly.zero(field)
    for l in range(1, 7):
        for trial in range(3):
            a, b, c, d = (rand_bipoly(field, rng) for _ in range(4))
            if trial == 2:
                b = zero  # a zero corner leaves zero binomial rows
            assert sym_power_matrix(a, b, c, d, l) == sym_power_reference(a, b, c, d, l)


def leibniz_det(matrix):
    """sum over permutations s of sign(s) * prod_i matrix[i][s(i)]."""
    n = len(matrix)
    field = matrix[0][0].field
    total = BiPoly.zero(field)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = BiPoly.one(field)
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def sparse_matrix(field, rng, n):
    """An n x n matrix whose rows have independently drawn densities, so
    that the sparsest-first order of the rows is any permutation."""
    zero = BiPoly.zero(field)
    rows = []
    for _ in range(n):
        density = rng.random()
        rows.append([rand_bipoly(field, rng) if rng.random() < density else zero
                     for _ in range(n)])
    return rows


@pytest.mark.parametrize("field", [F2, F3, F4, F5])
def test_matrix_det_matches_leibniz(field):
    rng = random.Random(300 + field.q)
    zero = BiPoly.zero(field)
    for n in range(1, 6):
        for trial in range(12):
            m = sparse_matrix(field, rng, n)
            if trial == 1:
                m[rng.randrange(n)] = [zero] * n
            elif trial == 2:
                col = rng.randrange(n)
                for row in m:
                    row[col] = zero
            assert matrix_det(m) == leibniz_det(m)


def test_matrix_det_sign_of_reordered_rows():
    # an upper triangular matrix lists its rows densest first, so sparsest
    # first is the reverse order: odd for n = 2 and 3, even for n = 4 and 5.
    # Its determinant is the product of the diagonal.
    rng = random.Random(7)
    zero = BiPoly.zero(F3)
    for n in range(2, 6):
        m = [[rand_bipoly(F3, rng) if j >= i else zero for j in range(n)] for i in range(n)]
        diagonal = BiPoly.one(F3)
        for i in range(n):
            diagonal = diagonal * m[i][i]
        assert matrix_det(m) == diagonal == leibniz_det(m)


def test_matrix_det_prunes_lucas_sparse_sym_power(monkeypatch):
    # over F_3, Sym^3 has (a + cZ)**3 = a**3 + c**3 Z**3 and (b + dZ)**3 =
    # b**3 + d**3 Z**3 in columns 0 and 3, so rows 1 and 2 are nonzero only
    # in columns 1 and 2.  Expanded from those rows, the minors left are
    # {0,1,2,3}, {0,2,3}, {0,1,3} and {0,3}, one sum each, and {0} and {3},
    # which are entries: 4 expanded minors, against the 2**4 - 1 - 4 = 11
    # minors of size >= 2 of a dense 4 x 4 and 10 in the given row order.
    a, b = BiPoly(F3, {(1, 0): 1}), BiPoly(F3, {(0, 1): 1})
    c, d = BiPoly.one(F3), BiPoly(F3, {(1, 1): 1})
    m = sym_power_matrix(a, b, c, d, 3)
    assert [[not x.is_zero for x in row] for row in m] == [
        [True, True, True, True], [False, True, True, False],
        [False, True, True, False], [True, True, True, True]]
    calls = []
    real = BiPoly.sum_of_products.__func__
    monkeypatch.setattr(BiPoly, "sum_of_products",
                        classmethod(lambda cls, field, pairs:
                                    calls.append(1) or real(cls, field, pairs)))
    assert matrix_det(m) == (a * d - b * c) ** 6
    assert len(calls) == 4


def test_sym_power_rejects_bad_l():
    one = BiPoly.one(F3)
    with pytest.raises(ValueError):
        sym_power_matrix(one, one, one, one, 0)
