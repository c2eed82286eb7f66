"""The closed-form sum over the monic of one degree (series.coset_sum, wired
through FormCatalog.coset_sum) against the brute-force a_expansion, which
divides once per monic c."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeldforms import forms, series
from drinfeldforms.cli import main
from drinfeldforms.fields import finite_field
from drinfeldforms.forms import FormCatalog, power_weight
from drinfeldforms.polynomials import BiPoly, UniPoly
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


def brute(cat, d, power, weight):
    one = BiPoly.one(cat.field)
    return cat.a_expansion(power, weight or (lambda c: one), [d])


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
    closed = low.coset_sum(d, power, weight)
    assert closed.prec == prec
    assert closed == brute(low, d, power, weight)
    assert high.coset_sum(d, power, weight).truncate(prec) == closed


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
        expected = cat.a_expansion(power, weight or (lambda c: BiPoly.one(field)))
        assert cat.linear_a_expansion(power, weight) == expected, name


def test_weighted_powers_are_rejected():
    cat = FormCatalog(finite_field(3), 20)
    with pytest.raises(ValueError):
        cat.coset_sum(1, 2, power_weight(1))
    with pytest.raises(ValueError):
        cat.coset_sum(1, 4)


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

    def broken(field, d, prec, weights):
        out = real(field, d, prec, weights)
        # g's unweighted sum has weights [0, 1] at degree 1; every weighted
        # form here has w(1) = 1
        if d == 1 and not weights[0].is_zero:
            out = out + USeries(field, prec, {prec - 1: BiPoly.one(field)})
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
