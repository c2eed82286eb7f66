import json
from itertools import product

import pytest

from drinfeldforms.fields import canonical_modulus, finite_field
from drinfeldforms.forms import FormCatalog
from drinfeldforms.identities import pellarin_partial
from drinfeldforms.polynomials import BiPoly, UniPoly
from drinfeldforms.series import USeries
from drinfeldforms.serialize import (bipoly_from_obj, bipoly_to_obj, bipoly_tsv_rows,
                                     canonical_json, lvalue_to_obj,
                                     useries_from_obj, useries_to_obj,
                                     useries_tsv_rows)

F3 = finite_field(3)
F4 = finite_field(2, 2)


def test_bipoly_round_trip():
    poly = BiPoly(F3, {(2, 1): 2, (0, 0): 1, (1, 3): 1})
    obj = bipoly_to_obj(poly)
    assert obj["p"] == 3 and obj["e"] == 1
    assert obj["monomials"] == sorted(obj["monomials"])
    assert bipoly_from_obj(obj) == poly


def test_bipoly_digits_little_endian_extension_field():
    # element 2 of F_4 is the class of x: digits (0, 1)
    poly = BiPoly(F4, {(1, 0): 2})
    obj = bipoly_to_obj(poly)
    assert obj == {"p": 2, "e": 2, "monomials": [[1, 0, [0, 1]]]}
    assert bipoly_from_obj(obj, F4) == poly


def test_useries_round_trip():
    series = FormCatalog(F3, 15).d2
    obj = useries_to_obj(series)
    assert obj["prec"] == 15
    assert [t[0] for t in obj["terms"]] == sorted(t[0] for t in obj["terms"])
    assert useries_from_obj(obj) == series


@pytest.mark.parametrize("p, e", [(3, 1), (2, 2), (2, 3), (3, 2), (251, 1)])
def test_monomials_read_off_any_layout(p, e):
    # the encoder reads the digit planes; it must not depend on the stride
    # a polynomial carries, nor on how many rows it has
    field = finite_field(p, e)
    top = field.q - 1
    poly = BiPoly(field, {(0, 0): 1, (2, 1): top, (1, 3): field.q // 2 + 1})
    wide = BiPoly(field, {(40, 0): 1})
    u = UniPoly(field, [0, top, 1])
    for b in (poly, (poly + wide) - wide, poly.tau_twist(2), poly.frobenius(1) * poly,
              u, u ** 5, u.chi_t(), BiPoly.zero(field)):
        expected = [[i, j, list(field.digits(v))] for (i, j), v in sorted(b.terms.items())]
        assert bipoly_to_obj(b)["monomials"] == expected
        assert bipoly_tsv_rows(b, "x") == ["\t".join(map(str, ["x", i, j, *ds]))
                                          for i, j, ds in expected]


def test_useries_tsv_rows_align_with_json():
    series = FormCatalog(F3, 15).g
    rows = [line.split("\t") for line in useries_tsv_rows(series)]
    obj = useries_to_obj(series)
    flattened = []
    for n, poly in obj["terms"]:
        for i, j, digits in poly["monomials"]:
            flattened.append([str(n), str(i), str(j)] + [str(d) for d in digits])
    assert rows == flattened


def test_lvalue_to_obj_schema():
    value = pellarin_partial(F3, 2, 2, 2)
    obj = lvalue_to_obj(value)
    assert set(obj) == {"alpha", "beta", "n", "num", "den"}
    assert obj["alpha"] == 2 and obj["n"] == 2
    # the denominator is t-free
    assert all(j == 0 for _, j, _ in obj["den"]["monomials"])


def test_canonical_json_is_stable_and_parseable():
    payload = {"b": [3, 1], "a": {"y": 2, "x": 1}}
    text = canonical_json(payload)
    assert text == canonical_json(payload)
    assert text.endswith("\n")
    assert json.loads(text) == payload


SMALL_FIELDS = [(p, e) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23) for e in (1, 2, 3, 4)
                if p ** e <= 27]


def irreducible_moduli(p, e):
    """Every monic irreducible of degree e over F_p, as a coefficient tuple."""
    moduli = []
    for lows in product(range(p), repeat=e):
        try:
            moduli.append(finite_field(p, e, lows + (1,)).modulus)
        except ValueError:  # reducible
            pass
    return moduli


@pytest.mark.parametrize("p,e", SMALL_FIELDS, ids=[f"{p}^{e}" for p, e in SMALL_FIELDS])
def test_json_round_trip_for_every_modulus(p, e):
    moduli = irreducible_moduli(p, e)
    assert canonical_modulus(p, e) in moduli
    for modulus in moduli:
        field = finite_field(p, e, modulus)
        # every element appears as a coefficient
        poly = BiPoly(field, {(a % 3, a // 3): a for a in range(1, field.q)})
        series = USeries(field, 7, {0: BiPoly.one(field), 2: poly, 5: poly * poly})
        poly_obj = json.loads(canonical_json(bipoly_to_obj(poly)))
        assert ("modulus" in poly_obj) == (modulus != canonical_modulus(p, e))
        back = bipoly_from_obj(poly_obj)
        assert back.field == field and back == poly
        back = useries_from_obj(json.loads(canonical_json(useries_to_obj(series))))
        assert back.field == field and back == series


def test_h_over_a_non_canonical_f9_round_trips():
    h = FormCatalog(finite_field(3, 2, (2, 1, 1)), 30).h
    assert useries_from_obj(useries_to_obj(h)) == h
