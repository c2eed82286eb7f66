import random

import pytest

from drinfeldforms import identities
from drinfeldforms.fields import extension_field, finite_field
from drinfeldforms.identities import (BruteForceInstance, PartialLValue,
                                      check_lvals, goss_degenerate_check,
                                      lemma1_check, lemma2_check,
                                      lemma3_bruteforce, lemma3_trials,
                                      pellarin_partial)
from drinfeldforms.polynomials import BiPoly, UniPoly, monic_below
from test_polynomials import at_t_theta

F2 = finite_field(2)
F3 = finite_field(3)
F4 = finite_field(2, 2)
F5 = finite_field(5)

ALL_Q = [F2, F3, F4, F5]


# -- rational identities over F_q -----------------------------------------------------


@pytest.mark.parametrize("field", ALL_Q)
def test_lemma1(field):
    assert lemma1_check(field)


def test_lemma1_x_equals_y_specialization():
    # both cross-multiplied sides collapse to the same polynomial at X = Y
    for field in (F2, F3):
        q = field.q
        from drinfeldforms.identities import _products_excluding, _x_plus_u, _y_plus_u
        pi, pi_except = _products_excluding(
            field, [_y_plus_u(field, u) for u in field.elements()])
        n_sum = BiPoly.zero(field)
        for idx, u in enumerate(field.elements()):
            n_sum = n_sum + _x_plus_u(field, u) * pi_except[idx]
        yq_minus_y = BiPoly(field, {(0, q): 1, (0, 1): field.neg(1)})
        yq_minus_x = BiPoly(field, {(0, q): 1, (1, 0): field.neg(1)})
        lhs = at_t_theta((pi + n_sum) * yq_minus_y)
        rhs = at_t_theta(yq_minus_x * pi)
        assert lhs == rhs


@pytest.mark.parametrize("field", ALL_Q)
def test_lemma2_in_range(field):
    for l in range(1, field.q + 1):
        assert lemma2_check(field, l)


def test_lemma2_negative_control():
    # outside 1 <= l <= q the identity genuinely fails
    assert not lemma2_check(F2, 3)


def test_lemma2_rejects_nonpositive_l():
    with pytest.raises(ValueError):
        lemma2_check(F3, 0)


@pytest.mark.parametrize("field", ALL_Q)
def test_goss_degenerate(field):
    for l in range(1, field.q + 1):
        assert goss_degenerate_check(field, l)


def test_goss_specific_cases():
    assert goss_degenerate_check(F2, 2)
    assert goss_degenerate_check(F5, 5)


# -- brute-force character sums ----------------------------------------------------------


def test_lemma3_n1_both_sides_equal_minus_ratio_power():
    ext, embed = extension_field(F3, 4)
    rng = random.Random(2)
    for l in (1, 2, 3):
        v = rng.randrange(ext.q)
        w = rng.randrange(1, ext.q)
        inst = BruteForceInstance(F3, ext, embed, [v], [w], l)
        assert lemma3_bruteforce(inst)
        # closed form: sum' over u of (uV/uW)^l is -(V/W)^l
        lhs = 0
        for u in range(1, F3.q):
            s = embed[u]
            ratio = ext.mul(ext.mul(s, v), ext.inv(ext.mul(s, w)))
            lhs = ext.add(lhs, ext.pow(ratio, l))
        expected = ext.neg(ext.pow(ext.mul(v, ext.inv(w)), l))
        assert lhs == expected


def test_lemma3_l1_is_trivially_true():
    inst = BruteForceInstance.random(F4, 3, 1, rng=random.Random(9))
    assert lemma3_bruteforce(inst)


def test_lemma3_sweep_q3():
    rng = random.Random(77)
    for _ in range(8):
        inst = BruteForceInstance.random(F3, 2, 2, rng=rng)
        assert lemma3_bruteforce(inst)


def test_lemma3_trials_draws_like_the_loop_and_stops_at_a_failure(monkeypatch):
    rng = random.Random(77)
    drawn = [BruteForceInstance.random(F3, 2, 2, rng=rng) for _ in range(2)]
    seen = []

    def fails_second(inst):
        seen.append((inst.vs, inst.ws))
        return len(seen) < 2
    monkeypatch.setattr(identities, "lemma3_bruteforce", fails_second)
    assert not lemma3_trials(F3, 2, 2, 5, random.Random(77))
    assert seen == [(inst.vs, inst.ws) for inst in drawn]


def test_lemma3_trials_rejects_zero_trials():
    with pytest.raises(ValueError):
        lemma3_trials(F3, 2, 2, 0, random.Random(0))


def test_lemma3_allows_zero_v_entries():
    ext, embed = extension_field(F2, 4)
    inst = BruteForceInstance(F2, ext, embed, [0, 3], [1, 2], 2)
    assert lemma3_bruteforce(inst)


def test_dependent_w_rejected():
    ext, embed = extension_field(F3, 4)
    w = 7
    dependent = ext.add(w, w)  # 2*w is in the F_3-span of w
    with pytest.raises(ValueError):
        BruteForceInstance(F3, ext, embed, [1, 1], [w, dependent], 2)


def test_random_instance_is_reproducible():
    a = BruteForceInstance.random(F3, 2, 2, rng=random.Random(5))
    b = BruteForceInstance.random(F3, 2, 2, rng=random.Random(5))
    assert (a.vs, a.ws) == (b.vs, b.ws)
    c = BruteForceInstance.random(F3, 2, 2, rng=random.Random(6))
    assert (a.vs, a.ws) != (c.vs, c.ws)


# (p, e, n, seed) -> (vs, ws), drawn when the span was still built twice
PINNED_DRAWS = {
    (3, 1, 2, 0): ((5, 33), (49, 53)),
    (2, 2, 3, 1): ((60, 253, 230), (68, 32, 130)),
    (5, 1, 3, 7): ((49, 74, 548), (331, 154, 404)),
    (2, 1, 4, 11): ((5, 3, 14, 9), (14, 6, 5, 15)),
}


@pytest.mark.parametrize("key", PINNED_DRAWS, ids=str)
def test_random_instance_draws_are_pinned(key):
    p, e, n, seed = key
    inst = BruteForceInstance.random(finite_field(p, e), n, 2, rng=random.Random(seed))
    assert (inst.vs, inst.ws) == PINNED_DRAWS[key]


def test_random_instances_from_one_rng_are_pinned():
    rng = random.Random(3)
    drawn = [BruteForceInstance.random(F3, 3, 1, rng=rng) for _ in range(3)]
    assert [(inst.vs, inst.ws) for inst in drawn] == [
        ((16, 47, 77), (30, 75, 69)), ((8, 77, 1), (60, 80, 74)),
        ((29, 24, 60), (60, 33, 70))]


def test_random_instance_builds_one_span(monkeypatch):
    built = []
    span = identities._Span

    def counted(*args):
        built.append(1)
        return span(*args)
    monkeypatch.setattr(identities, "_Span", counted)
    BruteForceInstance.random(F3, 3, 2, rng=random.Random(4))
    assert len(built) == 1


def test_random_instance_rejects_bad_l():
    with pytest.raises(ValueError):
        BruteForceInstance.random(F3, 2, 0, rng=random.Random(1))


@pytest.mark.parametrize("n", [0, -1])
def test_random_instance_rejects_no_variables(n):
    # an empty W would make lemma3_bruteforce compare 0 with 0
    with pytest.raises(ValueError):
        BruteForceInstance.random(F3, n, 2, rng=random.Random(1))


def test_instance_rejects_empty_or_unequal_lists():
    ext, embed = extension_field(F3, 4)
    with pytest.raises(ValueError):
        BruteForceInstance(F3, ext, embed, [], [], 2)
    with pytest.raises(ValueError):
        BruteForceInstance(F3, ext, embed, [1], [1, 3], 2)


def test_random_instance_raises_m_for_large_n():
    inst = BruteForceInstance.random(F2, 5, 1, rng=random.Random(1))
    assert inst.ext.q == 2 ** 5


# -- Pellarin partial sums ------------------------------------------------------------------


def test_partial_sum_n1_is_one():
    value = pellarin_partial(F3, 1, 1, 1)
    assert value.num == BiPoly.one(F3)
    assert value.den == UniPoly.one(F3)


@pytest.mark.parametrize("field", [F2, F3])
def test_partial_sum_n2_closed_form(field):
    # 1 + sum_gamma (t + gamma)/(theta + gamma) = (theta^q - t)/(theta^q - theta)
    q = field.q
    value = pellarin_partial(field, 1, 1, 2)
    closed_num = BiPoly(field, {(q, 0): 1, (0, 1): field.neg(1)})
    closed_den = BiPoly(field, {(q, 0): 1, (1, 0): field.neg(1)})
    assert value.num * closed_den == closed_num * value.den.to_bipoly()


def test_partial_sum_power_relation_at_every_truncation():
    p113 = pellarin_partial(F2, 1, 1, 3)
    p223 = pellarin_partial(F2, 2, 2, 3)
    assert p223.num * (p113.den ** 2).to_bipoly() == (p113.num ** 2) * p223.den.to_bipoly()


def exact_quotient(a, b):
    """a / b in F_q[theta] by long division over the field's element operations;
    b must divide a."""
    f = a.field
    rem, db = list(a.coeffs), b.degree
    quo = [0] * (len(rem) - db)
    inv_lead = f.inv(b.leading)
    for shift in range(len(quo) - 1, -1, -1):
        c = f.mul(rem[shift + db], inv_lead)
        quo[shift] = c
        for i, cb in enumerate(b.coeffs):
            rem[shift + i] = f.add(rem[shift + i], f.neg(f.mul(c, cb)))
    assert not any(rem), "not an exact division"
    return UniPoly(f, quo)


@pytest.mark.parametrize("field,alpha,beta,n", [(F2, 1, 1, 4), (F3, 3, 3, 3), (F4, 2, 1, 3),
                                                (F5, 1, 2, 2)])
def test_partial_sum_is_division_free(field, alpha, beta, n):
    # the earlier form: den = prod a**beta, and each den / a**beta by exact division
    den = UniPoly.one(field)
    for a in monic_below(field, n):
        den = den * a ** beta
    num = BiPoly.zero(field)
    for a in monic_below(field, n):
        num = num + a.chi_t() ** alpha * exact_quotient(den, a ** beta).to_bipoly()
    value = pellarin_partial(field, alpha, beta, n)
    assert value.den == den and value.num == num


def test_partial_sum_input_validation():
    with pytest.raises(ValueError):
        pellarin_partial(F3, 0, 1, 2)
    with pytest.raises(ValueError):
        pellarin_partial(F3, 1, 1, 0)


# -- L-value power relations ---------------------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3])
def test_check_lvals(field):
    for l in range(1, field.q + 1):
        for n in (1, 2, 3, 4):
            assert check_lvals(field, l, n)
            # the same relation for the monic sums: pp(l, l, n) == pp(1, 1, n)**l
            p1 = pellarin_partial(field, 1, 1, n)
            pl = pellarin_partial(field, l, l, n)
            assert pl.num * (p1.den ** l).to_bipoly() == (p1.num ** l) * pl.den.to_bipoly()


def test_check_lvals_specific_cases():
    assert check_lvals(F3, 2, 3)
    assert check_lvals(F2, 2, 4)


def test_check_lvals_range_enforced():
    with pytest.raises(ValueError):
        check_lvals(F2, 3, 2)
    with pytest.raises(ValueError):
        check_lvals(F3, 2, 0)


def test_partial_lvalue_rejects_zero_denominator():
    with pytest.raises(ValueError):
        PartialLValue(F3, 1, 1, 1, BiPoly.one(F3), UniPoly.zero(F3))
