"""Stable JSON/TSV encodings for polynomials, series, and L-values.

Field elements serialize as little-endian base-p digit vectors, so the
encodings are independent of the int packing used internally.  A
polynomial names the modulus of its field only when it is not the
canonical one, and decoding builds the field from it.  All monomial
lists are sorted lexicographically and JSON is emitted with sorted
keys, which makes every output byte-stable across runs.

The encoder writes text, never an object tree: `write_useries` and
`write_lvalue` read each coefficient's monomials off its digit planes
and hand its text to a `write` callable, one coefficient at a time.
Their JSON is exactly what `canonical_json` makes of the objects that
`useries_from_obj` and `bipoly_from_obj` read (without the final
newline): a series is {"prec", "terms": [[n, polynomial], ...]} and a
polynomial {"e", "modulus"?, "monomials": [[i, j, digits], ...], "p"}.
Their TSV is one row per monomial: a label (n, or num/den), i, j, then
the digits.  Reports of checks and experiments are small objects and go
through `canonical_json`.
"""

import json

from .fields import canonical_modulus, finite_field
from .polynomials import BiPoly
from .series import USeries


def _cells(poly, sep):
    """(i, j, digits joined by sep) of each nonzero term theta**i t**j,
    sorted by (i, j), read straight off the digit planes (slot
    i + j * stride, see BiPoly)."""
    pk, stride = poly.field.packing, poly._stride
    slots = poly._rows * stride
    planes = [pk.slot_values(x, slots) for x in poly._planes]
    # the text of each slot's digits, "" where every plane is zero
    if len(planes) == 1:
        texts = [str(d) if d else "" for d in planes[0]]
    else:
        texts = [sep.join(map(str, ds)) if any(ds) else "" for ds in zip(*planes)]
    if poly._rows < 2:
        return [(i, 0, s) for i, s in enumerate(texts) if s]
    return [(i, j, s) for i in range(stride) for j, s in enumerate(texts[i::stride]) if s]


def _json_frame(field):
    """The JSON text of a polynomial over field before and after its monomials."""
    head = '{"e":%d,' % field.e
    if field.modulus != canonical_modulus(field.p, field.e):
        head += '"modulus":[%s],' % ",".join(map(str, field.modulus))
    return head + '"monomials":[', '],"p":%d}' % field.p


def _poly_json(poly, frame):
    head, tail = frame
    return head + ",".join([f"[{i},{j},[{s}]]" for i, j, s in _cells(poly, ",")]) + tail


def _poly_tsv(poly, label):
    return "".join([f"{label}\t{i}\t{j}\t{s}\n" for i, j, s in _cells(poly, "\t")])


def write_useries(write, series, fmt="json"):
    """Write series through write, one coefficient at a time: its JSON
    object, or its TSV rows n, i, j, digits in (n, i, j) order."""
    coeffs = sorted(series.coeffs.items())
    if fmt == "tsv":
        for n, c in coeffs:
            write(_poly_tsv(c, n))
        return
    frame = _json_frame(series.field)
    write('{"prec":%d,"terms":[' % series.prec)
    for k, (n, c) in enumerate(coeffs):
        write(f'{"," if k else ""}[{n},{_poly_json(c, frame)}]')
    write("]}")


def write_lvalue(write, value, fmt="json"):
    """Write a PartialLValue through write: its JSON object {"alpha", "beta",
    "den", "n", "num"}, or the TSV rows of num, then of den."""
    if fmt == "tsv":
        write(_poly_tsv(value.num, "num"))
        write(_poly_tsv(value.den, "den"))
        return
    frame = _json_frame(value.field)
    write('{"alpha":%d,"beta":%d,"den":%s,"n":%d,"num":%s}' % (
        value.alpha, value.beta, _poly_json(value.den, frame), value.n,
        _poly_json(value.num, frame)))


def bipoly_from_obj(obj, field=None):
    if field is None:
        field = finite_field(obj["p"], obj["e"], obj.get("modulus"))
    terms = {}
    for i, j, digits in obj["monomials"]:
        terms[(i, j)] = field.from_digits(digits)
    return BiPoly(field, terms)


def useries_from_obj(obj, field=None):
    terms = obj["terms"]
    if field is None:
        if not terms:
            raise ValueError("cannot infer the field of an empty series")
        head = terms[0][1]
        field = finite_field(head["p"], head["e"], head.get("modulus"))
    coeffs = {n: bipoly_from_obj(c, field) for n, c in terms}
    return USeries(field, obj["prec"], coeffs)


def canonical_json(obj):
    """Deterministic (byte-stable) JSON rendering."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
