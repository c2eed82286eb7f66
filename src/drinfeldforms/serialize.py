"""Stable JSON/TSV encodings for polynomials, series, and L-values.

Field elements serialize as little-endian base-p digit vectors, so the
encodings are independent of the int packing used internally.  A
polynomial names the modulus of its field only when it is not the
canonical one, and decoding builds the field from it.  All monomial
lists are sorted lexicographically and JSON is emitted with sorted
keys, which makes every output byte-stable across runs.
"""

import json

from .fields import canonical_modulus, finite_field
from .polynomials import BiPoly
from .series import USeries


def bipoly_to_obj(poly):
    field = poly.field
    obj = {
        "p": field.p,
        "e": field.e,
        "monomials": [[i, j, list(field.digits(v))]
                      for (i, j), v in poly.sorted_terms()],
    }
    if field.modulus != canonical_modulus(field.p, field.e):
        obj["modulus"] = list(field.modulus)
    return obj


def bipoly_from_obj(obj, field=None):
    if field is None:
        field = finite_field(obj["p"], obj["e"], obj.get("modulus"))
    terms = {}
    for i, j, digits in obj["monomials"]:
        terms[(i, j)] = field.from_digits(digits)
    return BiPoly(field, terms)


def useries_to_obj(series):
    return {
        "prec": series.prec,
        "terms": [[n, bipoly_to_obj(c)] for n, c in sorted(series.coeffs.items())],
    }


def useries_from_obj(obj, field=None):
    terms = obj["terms"]
    if field is None:
        if not terms:
            raise ValueError("cannot infer the field of an empty series")
        head = terms[0][1]
        field = finite_field(head["p"], head["e"], head.get("modulus"))
    coeffs = {n: bipoly_from_obj(c, field) for n, c in terms}
    return USeries(field, obj["prec"], coeffs)


def useries_tsv_rows(series):
    """One row per stored monomial: n, i, j, then the base-p digits."""
    field = series.field
    rows = []
    for n, c in sorted(series.coeffs.items()):
        for (i, j), v in c.sorted_terms():
            rows.append("\t".join(
                [str(n), str(i), str(j)] + [str(d) for d in field.digits(v)]))
    return rows


def bipoly_tsv_rows(poly, label=None):
    field = poly.field
    rows = []
    for (i, j), v in poly.sorted_terms():
        cells = [str(i), str(j)] + [str(d) for d in field.digits(v)]
        if label is not None:
            cells.insert(0, label)
        rows.append("\t".join(cells))
    return rows


def lvalue_to_obj(value):
    return {
        "alpha": value.alpha,
        "beta": value.beta,
        "n": value.n,
        "num": bipoly_to_obj(value.num),
        "den": bipoly_to_obj(value.den.to_bipoly()),
    }


def canonical_json(obj):
    """Deterministic (byte-stable) JSON rendering."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
