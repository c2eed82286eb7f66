"""Stable JSON/TSV encodings for polynomials, series, and L-values.

Field elements serialize as little-endian base-p digit vectors, so the
encodings are independent of the int packing used internally.  A
polynomial names the modulus of its field only when it is not the
canonical one, and decoding builds the field from it.  All monomial
lists are sorted lexicographically and JSON is emitted with sorted
keys, which makes every output byte-stable across runs.
"""

import json
from functools import reduce
from operator import or_

from .fields import canonical_modulus, finite_field
from .polynomials import BiPoly
from .series import USeries


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


def canonical_json(obj):
    """Deterministic (byte-stable) JSON rendering."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
