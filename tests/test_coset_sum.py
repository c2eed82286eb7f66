"""The closed-form A-expansion sum (series.coset_sum, one per degree in
FormCatalog.linear_a_expansion) against its twin, the brute-force
a_expansion, which divides once per monic c.  Both take the same
arguments, so every comparison here makes the same call to each."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldforms import forms, series
from drinfeldforms.cli import main
from drinfeldforms.fields import finite_field
from drinfeldforms.forms import FormCatalog, power_weight
from drinfeldforms.polynomials import BiPoly, UniPoly, enumerate_monic
from drinfeldforms.series import USeries

FIELDS = [finite_field(2), finite_field(3), finite_field(2, 2), finite_field(5),
          finite_field(7)]

# (label, power, weight as a function of q); weight None is the weight 1
# of g, whose per-degree sum of u_c**(q-1) is the power of sum u_c
WEIGHTS = {
    "g": lambda q: (q - 1, None),
    "E": lambda q: (1, power_weight(1)),
    "h": lambda q: (1, power_weight(q)),
    "f_1_2": lambda q: (1, power_weight(q ** 2)),
    "EE": lambda q: (1, UniPoly.chi_t),
    "unweighted-l": lambda q: (q, None),
}


@st.composite
def linear_weights(draw, field):
    """An F_q-linear weight c -> sum c_k w_k, given by random values w_k
    on the basis theta**k, k <= 3."""
    values = [BiPoly(field, draw(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 2)), st.integers(1, field.q - 1),
        max_size=3))) for _ in range(4)]

    def coefficient_of(c):
        total = BiPoly.zero(field)
        for ck, w in zip(c.coeffs, values):
            total = total + w.scale(ck)
        return total
    return coefficient_of


@settings(max_examples=80)
@given(field=st.sampled_from(FIELDS), name=st.sampled_from(sorted(WEIGHTS)),
       d=st.integers(0, 3), prec=st.integers(1, 90), extra=st.integers(1, 40))
def test_coset_sum_matches_brute_force_and_truncates_back(field, name, d, prec, extra):
    q = field.q
    power, weight = WEIGHTS[name](q)
    while d and power * q ** d >= prec + extra:
        d -= 1  # the largest degree whose sum survives at the higher precision
    low = FormCatalog(field, prec)
    high = FormCatalog(field, prec + extra)
    closed = low.linear_a_expansion(power, weight, [d])
    assert closed.prec == prec
    assert closed == low.a_expansion(power, weight, [d])
    assert high.linear_a_expansion(power, weight, [d]).truncate(prec) == closed


# a degree whose terms all vanish at the drawn precision is allowed
@settings(max_examples=120)
@given(data=st.data(), field=st.sampled_from(FIELDS), d=st.integers(0, 3),
       prec=st.integers(1, 70), extra=st.integers(1, 40))
def test_twins_agree_on_a_random_linear_weight(data, field, d, prec, extra):
    weight = data.draw(linear_weights(field), label="weight")
    low, high = FormCatalog(field, prec), FormCatalog(field, prec + extra)
    closed = low.linear_a_expansion(1, weight, [d])
    assert closed.prec == prec
    assert closed == low.a_expansion(1, weight, [d])
    assert high.linear_a_expansion(1, weight, [d]).truncate(prec) == closed


@settings(max_examples=60)
@given(field=st.sampled_from(FIELDS), d=st.integers(0, 3), prec=st.integers(1, 70),
       extra=st.integers(1, 40))
def test_twins_agree_on_the_weight_one_at_every_power(field, d, prec, extra):
    low, high = FormCatalog(field, prec), FormCatalog(field, prec + extra)
    for power in range(1, field.q + 1):
        closed = low.linear_a_expansion(power, None, [d])
        assert closed.prec == prec
        assert closed == low.a_expansion(power, None, [d]), power
        assert high.linear_a_expansion(power, None, [d]).truncate(prec) == closed, power


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"F{f.q}")
def test_catalog_forms_truncate_back(field):
    prec = 2 * field.q ** 2 + 1
    low, high = FormCatalog(field, prec), FormCatalog(field, 2 * prec)
    for name in ("g", "h", "e", "ee"):
        assert getattr(high, name).truncate(prec) == getattr(low, name)
    assert high.f_l_nu(1, 2).truncate(prec) == low.f_l_nu(1, 2)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"F{f.q}")
def test_linear_a_expansion_is_the_brute_force_sum(field):
    q = field.q
    cat = FormCatalog(field, q ** 2 + 2)
    for name in ("g", "E", "h", "f_1_2", "EE"):
        power, weight = WEIGHTS[name](q)
        expected = cat.a_expansion(power, weight)
        assert cat.linear_a_expansion(power, weight) == expected, name


def test_weighted_powers_are_rejected():
    cat = FormCatalog(finite_field(3), 20)
    with pytest.raises(ValueError):
        cat.linear_a_expansion(2, power_weight(1), [1])
    with pytest.raises(ValueError):
        cat.linear_a_expansion(4, None, [1])


@pytest.mark.parametrize("field, prec", [(finite_field(2), 256), (finite_field(3), 243),
                                         (finite_field(2, 2), 64), (finite_field(5), 125)],
                         ids=lambda v: str(getattr(v, "q", v)))
def test_one_relaxed_division_per_degree_and_no_u_c(monkeypatch, field, prec):
    solve = series._relaxed_solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(series, "_relaxed_solve", counted)
    for name, power in (("ee", 1), ("h", 1), ("e", 1), ("g", field.q - 1)):
        cat = FormCatalog(field, prec)
        calls.clear()
        getattr(cat, name)
        assert len(calls) == len(cat.summation_degrees(power)), name
        assert not [key for key in cat._cache if key[:1] == ("u_c",)], name


def test_coset_sum_check_names_form_degree_and_exponent(monkeypatch, capsys):
    # a degree-1 sum off by u**(prec - 1) must be reported at degree 1,
    # exponent prec - 1, for every weighted form
    real = forms.coset_sum

    def broken(chain, weights):
        out = real(chain, weights)
        # the chain has one step per degree; g's unweighted sum has
        # weights [0, 1] at degree 1; every weighted form here has w(1) = 1
        if len(chain[0]) == 1 and not weights[0].is_zero:
            out = out + USeries(out.field, out.prec, {out.prec - 1: BiPoly.one(out.field)})
        return out

    monkeypatch.setattr(forms, "coset_sum", broken)
    code = main(["check", "--identity", "coset-sum", "--p", "3", "--uprec", "27"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 1 and obj["pass"] is False
    rows = {(r["form"], r.get("nu")): r for r in obj["result"]}
    assert rows[("g", None)]["pass"]
    for key in (("h", None), ("E", None), ("EE", None), ("f", 1), ("f", 2)):
        assert (rows[key]["pass"], rows[key]["degree"], rows[key]["first_difference"]) == (
            False, 1, 26), key


def test_coset_sum_check_compares_against_the_brute_force_sum(monkeypatch, capsys):
    # the other side of every row is a_expansion over one degree: off by
    # u**(prec - 1) at degree 1, every form fails there
    real = FormCatalog.a_expansion

    def broken(self, power, coefficient_of=None, degrees=None):
        out = real(self, power, coefficient_of, degrees)
        if degrees == [1]:
            out = out + USeries(self.field, self.prec, {self.prec - 1: BiPoly.one(self.field)})
        return out

    monkeypatch.setattr(FormCatalog, "a_expansion", broken)
    code = main(["check", "--identity", "coset-sum", "--p", "3", "--uprec", "27"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [(r["pass"], r["degree"], r["first_difference"]) for r in obj["result"]] == [
        (False, 1, 26)] * 6


# (q, prec) at which the chain is checked against the product of the P_c
CHAIN_CASES = [(finite_field(2), 64), (finite_field(3), 81), (finite_field(2, 2), 64),
               (finite_field(5), 125)]


def chain_degrees(field, prec):
    return [d for d in range(prec) if field.q ** d < prec]


@pytest.mark.parametrize("field, prec", CHAIN_CASES, ids=lambda v: str(getattr(v, "q", v)))
def test_chain_ends_in_the_product_of_the_p_c(field, prec):
    for d in chain_degrees(field, prec):
        product = USeries.one(field, prec)
        for c in enumerate_monic(field, d):
            product = (product * USeries(field, prec, series._reversed_phi(c)[1])).truncate(prec)
        assert series.coset_denominators(field, d, prec)[1] == product, d


def truncated_chain(chain, work):
    steps, den = chain
    return (tuple((a.truncate(work), b.truncate(work), tuple(r.truncate(work) for r in rest))
                  for a, b, rest in steps), den.truncate(work))


@pytest.mark.parametrize("field, prec", CHAIN_CASES, ids=lambda v: str(getattr(v, "q", v)))
def test_chain_truncates_back(field, prec):
    for d in chain_degrees(field, prec):
        work = prec - field.q ** d
        if work >= 2:
            high = series.coset_denominators(field, d, work)
            low = series.coset_denominators(field, d, work // 2)
            assert truncated_chain(high, work // 2) == low, d


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f"F{f.q}")
def test_weighted_forms_share_one_chain_per_degree(monkeypatch, field):
    built = []
    real = forms.coset_denominators

    def counted(field, d, work):
        built.append((d, work))
        return real(field, d, work)

    monkeypatch.setattr(forms, "coset_denominators", counted)
    prec = 2 * field.q ** 2 + 1
    cat = FormCatalog(field, prec)
    for form in (cat.h, cat.e, cat.ee, cat.f_l_nu(1, 2), cat.f_l_nu(1, 3)):
        assert form.prec == prec
    assert sorted(built) == [(d, prec - field.q ** d) for d in cat.summation_degrees(1)]
    # g's unweighted sum of the u_c**(q-1) is a power of the sum of the u_c,
    # which takes the same chain as the weighted forms
    shared = list(built)
    assert cat.g.prec == prec
    assert built == shared
