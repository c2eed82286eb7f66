import io
import json
import tracemalloc
from functools import reduce
from itertools import product
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from drinfeldforms.fields import canonical_modulus, finite_field
from drinfeldforms.forms import FormCatalog
from drinfeldforms.identities import PartialLValue, pellarin_partial
from drinfeldforms.polynomials import BiPoly, UniPoly
from drinfeldforms.series import USeries
from drinfeldforms.serialize import (bipoly_from_obj, canonical_json, useries_from_obj,
                                     write_lvalue, write_useries)

F3 = finite_field(3)
F4 = finite_field(2, 2)


# -- the object-tree encoder, kept as the byte oracle of the text encoder ----------


def _monomials(poly):
    """[i, j, base-p digits] for each nonzero term theta**i t**j, sorted,
    read straight off the digit planes (slot i + j * stride, see BiPoly)."""
    pk, stride, rows = poly.field.packing, poly._stride, poly._rows
    planes = [pk.slot_values(x, rows * stride) for x in poly._planes]
    # a slot is occupied when any plane has a nonzero digit there
    occupied = pk.slot_values(reduce(or_, poly._planes), rows * stride)
    slots = sorted((k for k, v in enumerate(occupied) if v),
                   key=lambda k: k % stride * rows + k // stride)
    digits = map(list, zip(*[[plane[k] for k in slots] for plane in planes]))
    return [[k % stride, k // stride, ds] for k, ds in zip(slots, digits)]


def bipoly_to_obj(poly):
    field = poly.field
    obj = {"p": field.p, "e": field.e, "monomials": _monomials(poly)}
    if field.modulus != canonical_modulus(field.p, field.e):
        obj["modulus"] = list(field.modulus)
    return obj


def useries_to_obj(series):
    return {
        "prec": series.prec,
        "terms": [[n, bipoly_to_obj(c)] for n, c in sorted(series.coeffs.items())],
    }


def useries_tsv_rows(series):
    """One row per stored monomial: n, i, j, then the base-p digits."""
    return ["\t".join(map(str, [n, i, j, *digits]))
            for n, c in sorted(series.coeffs.items()) for i, j, digits in _monomials(c)]


def bipoly_tsv_rows(poly, label=None):
    head = [] if label is None else [label]
    return ["\t".join(map(str, head + [i, j, *digits])) for i, j, digits in _monomials(poly)]


def lvalue_to_obj(value):
    return {
        "alpha": value.alpha,
        "beta": value.beta,
        "n": value.n,
        "num": bipoly_to_obj(value.num),
        "den": bipoly_to_obj(value.den),
    }


# -- the text encoder -----------------------------------------------------------------


def text_of(write_fn, obj, fmt="json"):
    buf = io.StringIO()
    write_fn(buf.write, obj, fmt)
    return buf.getvalue()


def oracle_json(obj):
    return canonical_json(obj)[:-1]


def oracle_tsv(rows):
    return "".join(row + "\n" for row in rows)


def series_of(poly):
    return USeries(poly.field, 3, {1: poly})


def test_bipoly_round_trip():
    poly = BiPoly(F3, {(2, 1): 2, (0, 0): 1, (1, 3): 1})
    obj = json.loads(text_of(write_useries, series_of(poly)))["terms"][0][1]
    assert obj["p"] == 3 and obj["e"] == 1
    assert obj["monomials"] == sorted(obj["monomials"])
    assert bipoly_from_obj(obj) == poly


def test_bipoly_digits_little_endian_extension_field():
    # element 2 of F_4 is the class of x: digits (0, 1)
    poly = BiPoly(F4, {(1, 0): 2})
    text = text_of(write_useries, series_of(poly))
    assert text == '{"prec":3,"terms":[[1,{"e":2,"monomials":[[1,0,[0,1]]],"p":2}]]}'
    obj = json.loads(text)["terms"][0][1]
    assert bipoly_from_obj(obj, F4) == poly
    assert text_of(write_useries, series_of(poly), "tsv") == "1\t1\t0\t0\t1\n"


def test_useries_round_trip():
    series = FormCatalog(F3, 15).d2
    obj = json.loads(text_of(write_useries, series))
    assert obj == useries_to_obj(series)
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
        assert _monomials(b) == expected
        value = PartialLValue(field, 1, 1, 1, b, UniPoly.one(field))
        assert json.loads(text_of(write_lvalue, value))["num"]["monomials"] == expected
        den = [0, 0, list(field.digits(1))]
        assert text_of(write_lvalue, value, "tsv") == oracle_tsv(
            ["\t".join(map(str, [label, i, j, *ds]))
             for label, rows in (("num", expected), ("den", [den])) for i, j, ds in rows])


def test_useries_tsv_rows_align_with_json():
    series = FormCatalog(F3, 15).g
    rows = [line.split("\t") for line in text_of(write_useries, series, "tsv").splitlines()]
    obj = json.loads(text_of(write_useries, series))
    flattened = []
    for n, poly in obj["terms"]:
        for i, j, digits in poly["monomials"]:
            flattened.append([str(n), str(i), str(j)] + [str(d) for d in digits])
    assert rows == flattened


def test_lvalue_to_obj_schema():
    value = pellarin_partial(F3, 2, 2, 2)
    obj = json.loads(text_of(write_lvalue, value))
    assert obj == lvalue_to_obj(value)
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
        text = text_of(write_useries, series)
        assert text == oracle_json(useries_to_obj(series))
        assert text_of(write_useries, series, "tsv") == oracle_tsv(useries_tsv_rows(series))
        obj = json.loads(text)
        poly_obj = obj["terms"][1][1]
        assert ("modulus" in poly_obj) == (modulus != canonical_modulus(p, e))
        back = bipoly_from_obj(poly_obj)
        assert back.field == field and back == poly
        back = useries_from_obj(obj)
        assert back.field == field and back == series


def test_h_over_a_non_canonical_f9_round_trips():
    h = FormCatalog(finite_field(3, 2, (2, 1, 1)), 30).h
    assert useries_from_obj(json.loads(text_of(write_useries, h))) == h


# -- the text encoder against the oracle, over random polynomials ---------------------

# every field with q <= 27 (under a drawn modulus) and F_251
ALL_FIELDS = SMALL_FIELDS + [(251, 1)]
FIELD_IDS = [f"{p}^{e}" for p, e in ALL_FIELDS]


@st.composite
def polynomials(draw, field):
    """A BiPoly of a few rows, possibly zero, laid out as plain, twisted
    (a stride q**k times wider) or widened by a cancelled far term."""
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 3)),
                                 st.integers(1, field.q - 1), max_size=8))
    poly = BiPoly(field, terms)
    layout = draw(st.sampled_from(["plain", "twisted", "widened", "product"]))
    if layout == "twisted":
        return poly.tau_twist(draw(st.integers(1, 2 if field.q < 30 else 1)))
    if layout == "widened":
        wide = BiPoly(field, {(draw(st.integers(7, 60)), 0): 1})
        return (poly + wide) - wide
    if layout == "product":
        return poly * BiPoly(field, {(0, 0): 1, (1, 2): field.q - 1})
    return poly


@st.composite
def series_and_lvalues(draw, p, e):
    field = finite_field(p, e, draw(st.sampled_from(irreducible_moduli(p, e))))
    prec = draw(st.integers(1, 8))
    coeffs = draw(st.dictionaries(st.integers(0, prec - 1), polynomials(field), max_size=4))
    den = UniPoly(field, draw(st.lists(st.integers(0, field.q - 1), max_size=4)) + [1])
    value = PartialLValue(field, draw(st.integers(1, 5)), draw(st.integers(1, 5)),
                          draw(st.integers(1, 5)), draw(polynomials(field)), den)
    return USeries(field, prec, coeffs), value


@pytest.mark.parametrize("p,e", ALL_FIELDS, ids=FIELD_IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_text_equals_the_object_encoder(p, e, data):
    series, value = data.draw(series_and_lvalues(p, e))
    assert text_of(write_useries, series) == oracle_json(useries_to_obj(series))
    assert text_of(write_useries, series, "tsv") == oracle_tsv(useries_tsv_rows(series))
    assert text_of(write_lvalue, value) == oracle_json(lvalue_to_obj(value))
    assert text_of(write_lvalue, value, "tsv") == oracle_tsv(
        bipoly_tsv_rows(value.num, "num") + bipoly_tsv_rows(value.den.to_bipoly(), "den"))


@pytest.mark.parametrize("p,e", ALL_FIELDS, ids=FIELD_IDS)
@settings(max_examples=20)
@given(data=st.data())
def test_decoders_round_trip_the_text(p, e, data):
    series, value = data.draw(series_and_lvalues(p, e))
    obj = json.loads(text_of(write_useries, series))
    if series.coeffs:
        assert useries_from_obj(obj) == series
    else:
        assert obj["terms"] == []
    assert useries_from_obj(obj, series.field) == series
    obj = json.loads(text_of(write_lvalue, value))
    assert bipoly_from_obj(obj["num"]) == value.num
    assert bipoly_from_obj(obj["den"]) == value.den


def test_writing_ee_peaks_below_twice_its_output():
    # the encoder holds one coefficient's text at a time, not the whole
    # output as a tree of lists (10 MB here for 0.56 MB of JSON)
    ee = FormCatalog(finite_field(2), 256).ee
    buf = io.StringIO()
    tracemalloc.start()
    try:
        write_useries(buf.write, ee)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = len(buf.getvalue())
    assert size > 500_000
    assert peak < 2 * size, (peak, size)
