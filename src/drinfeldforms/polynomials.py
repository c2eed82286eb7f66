"""Polynomial rings over F_q: bivariate F_q[theta, t] and its subring F_q[theta].

BiPoly is the bivariate coefficient ring F_q[theta, t] used by all
u-expansions.  UniPoly is the one-row BiPoly (t-degree 0): the base ring
A = F_q[theta], whose monic elements are the summation domain of every
form.  It inherits every ring operation and adds only what belongs to A
(coefficients, degree, monicity, theta, chi_t).  An operation returns a
UniPoly when its operands are UniPoly, and a BiPoly otherwise.  Both are
immutable by convention: every operation returns a fresh object.

A BiPoly is packed (Kronecker substitution): theta**i t**j is slot
i + j * stride of one int per base-p digit plane, with the slot width,
the no-carry invariant and the reduction mod p of fields._SlotPacking.
A product is then one big-int multiply per pair of planes (or, when
both operands have several t-rows, one per row of the operand with fewer
rows), and _product_sum, the one coefficient kernel, adds the raw
products of many pairs before it reduces once.  Sums, negation and
scaling are plane operations too.

A raising-to-the-q trick is used throughout: in characteristic p with
q = p**e a power f**(q**k) is plain exponent scaling (F_q-scalars are
fixed by x -> x**q), so large q-power exponents cost nothing.
"""

from itertools import product


def _same_field(a, b):
    if a.field is not b.field and a.field != b.field:
        raise ValueError("operands live over different fields")


def _result_class(a, b):
    """The class of a result of a and b: theirs when they share it, else BiPoly."""
    return type(a) if type(a) is type(b) else BiPoly


def _restride(x, rows, old, new, nbytes):
    """The plane x, rows of `old` slots, laid out again with rows of `new`
    slots; every row must fit in min(old, new) slots."""
    ob, nb = old * nbytes, new * nbytes
    keep = min(ob, nb)
    buf = x.to_bytes(rows * ob, "little")
    return int.from_bytes(bytes(nb - keep).join([buf[k:k + keep] for k in range(0, rows * ob, ob)]),
                          "little")


def _spread(x, s, nbytes):
    """The plane x with slot k moved to slot k * s."""
    if s == 1 or not x:
        return x
    slots = -(-x.bit_length() // (8 * nbytes))
    buf = x.to_bytes(slots * nbytes, "little")
    out = bytearray(((slots - 1) * s + 1) * nbytes)
    step = s * nbytes
    for b in range(nbytes):
        out[b::step] = buf[b::nbytes]
    return int.from_bytes(out, "little")


def _product_sum(field, pairs, cls=None):
    """sum(a * b for a, b in pairs) as one raw accumulation, reduced at the end,
    as a cls (BiPoly by default).

    The kernel of every UniPoly, BiPoly and USeries product.  All products
    are laid out at one stride, wide enough for the largest theta-degree
    sum, and accumulate plane by plane.  A pair with a one-row operand is
    one Kronecker product per pair of planes.  When both operands have
    several t-rows, the one with fewer rows is multiplied row by row: each
    row is read off its own planes (shift and mask at its own stride) and
    its product with the other operand is added j strides up for row j.
    So that operand is never laid out again, and the padding between its
    rows is never multiplied.  The choice depends on row counts alone.

    The accumulation tracks a bound on its slots (see fields._SlotPacking)
    and reduces early when the next product would pass the limit; the bound
    is the same whether a product is split into rows or not, as the raw sum
    is.  A product too large to fit even after a reduction is laid out
    whole and added in chunks of the first operand that do fit.

    What the kernel needs of an operand is paid once per operand, not once
    per pair: its popcount is cached on the object (`_pop`, see BiPoly),
    the field is compared by identity (fields are interned) before
    equality, and an operand is laid out again only when it has several
    rows at another stride and is not the one split into rows.
    """
    pk = field.packing
    shaped = []
    stride = 1
    for pair in pairs:
        a, b = pair
        if a.field is not field or b.field is not field:
            _same_field(a, b)
        if a._width and b._width:
            shaped.append(pair)
            width = a._width + b._width - 1
            if width > stride:
                stride = width
    weight, limit, bits = pk.weight, pk.limit, pk.bits
    acc = [0] * (2 * pk.e - 1)
    bound = 0
    for a, b in shaped:
        pop_x = a._pop
        if pop_x is None:
            pop_x = a._pop = sum(map(int.bit_count, a._planes))
        pop_y = b._pop
        if pop_y is None:
            pop_y = b._pop = sum(map(int.bit_count, b._planes))
        step = weight * (pop_x if pop_x < pop_y else pop_y)
        if bound + step > limit:
            if step > limit - (pk.p - 1):
                acc, bound = _add_split(pk, acc, bound, a._planes_at(stride),
                                        b._planes_at(stride), pop_y)
                continue
            acc = list(pk.reduce(acc)) + [0] * (pk.e - 1)
            bound = pk.p - 1
        bound += step
        if a._rows < 2:
            xs = a._planes
            ys = b._planes if b._rows < 2 or b._stride == stride else b._planes_at(stride)
        elif b._rows < 2:
            xs = a._planes if a._stride == stride else a._planes_at(stride)
            ys = b._planes
        else:
            # both have several rows: split the one with fewer rows into rows
            if b._rows < a._rows:
                a, b = b, a
            ys = b._planes if b._stride == stride else b._planes_at(stride)
            width = a._stride * bits
            mask = (1 << width) - 1
            for j in range(a._rows):
                shift = j * stride * bits
                for k, x in enumerate(a._planes):
                    x = (x >> j * width) & mask
                    if x:
                        for l, y in enumerate(ys):
                            if y:
                                acc[k + l] += (x * y) << shift
            continue
        for k, x in enumerate(xs):
            if x:
                for l, y in enumerate(ys):
                    if y:
                        acc[k + l] += x * y
    return (cls or BiPoly)._make(field, pk.reduce(acc), stride)


def _add_split(pk, acc, bound, xs, ys, pop_y):
    """Add xs * ys to the accumulation acc, whose slots are at most bound,
    in chunks of xs that each fit after a reduction: (acc, bound) after."""
    # a chunk takes `slots` slots of each of the e planes, so it holds at
    # most e * slots nonzero digits
    slots = (pk.limit - (pk.p - 1)) // (pk.weight * pk.e)
    step = pk.weight * min(pk.e * slots, pop_y)
    for piece, shift in _chunks(xs, slots, pk.bits):
        if bound + step > pk.limit:
            acc = list(pk.reduce(acc)) + [0] * (pk.e - 1)
            bound = pk.p - 1
        for k, x in enumerate(piece):
            if x:
                for l, y in enumerate(ys):
                    if y:
                        acc[k + l] += (x * y) << shift
        bound += step
    return acc, bound


def _chunks(xs, slots, bits):
    """Split planes into pieces of `slots` slots: [(planes, shift in bits)]."""
    size = slots * bits
    mask = (1 << size) - 1
    top = max(x.bit_length() for x in xs)
    return [([(x >> off) & mask for x in xs], off) for off in range(0, top, size)]


def _power(x, k):
    """x**k for k >= 1, x a BiPoly or a USeries (anything with field,
    * and frobenius): repeated squaring on the part m of k = m q**v prime
    to q, then one frobenius(v), which is exponent scaling.  It starts
    from x, so x**(q**v) makes no product."""
    q = x.field.q
    v = 0
    while k % q == 0:
        k //= q
        v += 1
    result = None
    while k:
        if k & 1:
            result = x if result is None else result * x
        k >>= 1
        if k:
            x = x * x
    return result.frobenius(v)


class BiPoly:
    """Bivariate polynomial over F_q, packed into the field's slot planes.

    The two variables are theta (first exponent) and t (second); nothing
    in the arithmetic depends on the naming, so the same type doubles as
    a generic F_q[X, Y].  The term theta**i t**j sits in slot
    i + j * stride of the planes (one per base-p digit, see
    fields._SlotPacking): theta-exponents take consecutive slots and t-rows
    sit `stride` slots apart.  The stride is stored on the object; it is at
    least the theta-length of every row, and need not be the smallest such.
    Stored planes are always reduced.

    Products are one big-int multiply per pair of planes; tau and Frobenius
    spread the slots.  `terms` gives the {(i, j): coefficient} view,
    built on each access.

    An object is never changed once made.  The one datum it caches is
    `_pop`, the popcount of its planes (the kernel's no-carry bound, and
    part of the hash of a polynomial with two or more t-rows), set by the
    first product or hash that reads it; a restride does not change it.
    No other layout of the planes is kept.
    """

    __slots__ = ("field", "_planes", "_stride", "_rows", "_width", "_pop")

    def __init__(self, field, terms=None):
        terms = {k: v for k, v in (terms or {}).items() if v}
        stride = max((i for i, _ in terms), default=0) + 1
        values = [0] * (stride * (max((j for _, j in terms), default=-1) + 1))
        for (i, j), v in terms.items():
            values[i + j * stride] = v
        self._set(field, field.packing.pack(values), stride)

    def _set(self, field, planes, stride):
        self.field = field
        self._planes = planes
        self._stride = stride
        # the popcount of the planes, counted by the kernel on first use
        self._pop = None
        # rows: the t-degree + 1 (0 for zero); width: a bound on the
        # theta-length of every row, exact for a single row
        bits = field.packing.bits
        n = max(map(int.bit_length, planes))
        if n <= stride * bits:
            self._rows = 1 if n else 0
            self._width = -(-n // bits)
        else:
            self._rows = (n - 1) // (stride * bits) + 1
            self._width = stride

    @classmethod
    def _make(cls, field, planes, stride):
        obj = object.__new__(cls)
        obj._set(field, planes, stride)
        return obj

    @classmethod
    def zero(cls, field):
        return cls.scalar(field, 0)

    @classmethod
    def one(cls, field):
        return cls.scalar(field, 1)

    @classmethod
    def scalar(cls, field, c):
        # digit k of c, alone in slot 0, is plane k
        return cls._make(field, field.digits(c), 1)

    @classmethod
    def from_pairs(cls, field, pairs):
        """Build from ((i, j), coefficient) pairs, accumulating duplicates."""
        terms = {}
        for key, v in pairs:
            terms[key] = field.add(terms.get(key, 0), v)
        return cls(field, terms)

    # -- layout ---------------------------------------------------------------

    def _aligned(self, other):
        """(planes of self, planes of other, stride) at one common stride."""
        _same_field(self, other)
        stride = max(self._width, other._width, 1)
        return self._planes_at(stride), other._planes_at(stride), stride

    def _planes_at(self, stride):
        """The planes laid out at another stride, at least the width."""
        if self._rows < 2 or self._stride == stride:
            return self._planes
        nbytes = self.field.packing.nbytes
        return tuple(_restride(x, self._rows, self._stride, stride, nbytes) for x in self._planes)

    @property
    def terms(self):
        """{(i, j): coefficient} of the nonzero terms, built on each access."""
        s = self._stride
        values = self.field.packing.unpack(self._planes, self._rows * s)
        return {(k % s, k // s): v for k, v in enumerate(values) if v}

    # -- ring operations ------------------------------------------------------------

    @property
    def is_zero(self):
        return not self._rows

    def __eq__(self, other):
        if not isinstance(other, BiPoly) or self._rows != other._rows:
            return False
        if self.field is not other.field and self.field != other.field:
            return False
        if self._rows < 2 or self._stride == other._stride:
            return self._planes == other._planes
        xs, ys, _ = self._aligned(other)
        return xs == ys

    def __hash__(self):
        # one row is laid out the same at every stride, so its planes hash
        # exactly; for more rows, the row count and the popcount do not
        # change under a restride, so equal polynomials hash equal
        if self._rows < 2:
            return hash((self.field, self._planes))
        if self._pop is None:
            self._pop = sum(map(int.bit_count, self._planes))
        return hash((self.field, self._rows, self._pop))

    def _add_multiple(self, other, c):
        """self + c * other for an integer 1 <= c < p."""
        xs, ys, stride = self._aligned(other)
        mod = self.field.packing.mod
        return _result_class(self, other)._make(
            self.field, tuple(mod(x + c * y) for x, y in zip(xs, ys)), stride)

    def __add__(self, other):
        return self._add_multiple(other, 1)

    def __sub__(self, other):
        return self._add_multiple(other, self.field.p - 1)

    def __neg__(self):
        pk = self.field.packing
        return self._make(self.field, tuple(pk.mod((pk.p - 1) * x) for x in self._planes),
                          self._stride)

    def __mul__(self, other):
        return _product_sum(self.field, ((self, other),), _result_class(self, other))

    @classmethod
    def sum_of_products(cls, field, pairs):
        """sum(a * b for a, b in pairs) as a cls, reduced once at the end."""
        return _product_sum(field, pairs, cls)

    def scale(self, c):
        return _product_sum(self.field, ((self, self.scalar(self.field, c)),), type(self))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative exponent")
        if k == 0:
            return self.one(self.field)
        return _power(self, k)

    def frobenius(self, k=1):
        """self**(q**k): both exponents scale, F_q-scalars are fixed."""
        if k < 0:
            raise ValueError("frobenius exponent must be >= 0")
        if k == 0:
            return self
        s = self.field.q ** k
        twisted = self._twisted(s)
        # row j -> row j * s: lay the rows s strides apart, keep the stride
        return self._make(self.field, twisted._planes_at(twisted._stride * s), twisted._stride)

    def tau_twist(self, k=1):
        """Coefficient action of tau**k: theta -> theta**(q**k), t fixed."""
        if k < 0:
            raise ValueError("tau exponent must be >= 0")
        if k == 0:
            return self
        return self._twisted(self.field.q ** k)

    def _twisted(self, s):
        """theta**i t**j -> theta**(i * s) t**j: slot k goes to slot k * s,
        and the stride grows by the same factor."""
        nbytes = self.field.packing.nbytes
        return self._make(self.field, tuple(_spread(x, s, nbytes) for x in self._planes),
                          self._stride * s)

    def theta_degree(self):
        return max((i for i, _ in self.terms), default=None)

    def t_degree(self):
        return self._rows - 1 if self._rows else None

    def __repr__(self):
        terms = sorted(self.terms.items())
        if not terms:
            return "BiPoly(0)"
        parts = []
        for (i, j), v in terms:
            mono = "".join([f"x^{i}" if i else "", f"y^{j}" if j else ""])
            parts.append(f"{v}*{mono}" if mono else f"{v}")
        return "BiPoly(" + " + ".join(parts) + ")"


class UniPoly(BiPoly):
    """An element of A = F_q[theta]: the BiPoly of t-degree 0.

    theta**i sits in slot i of one row, so every ring operation, equality
    and hashing are BiPoly's; an operation on two UniPoly returns a UniPoly.
    `coeffs` is the trimmed tuple of coefficients, decoded once on first
    access (or kept from the constructor).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, field, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._set(field, field.packing.pack(coeffs), max(len(coeffs), 1))
        self._coeffs = tuple(coeffs)

    @classmethod
    def gen(cls, field):
        """The generator theta."""
        return cls._make(field, (1 << field.packing.bits,) + (0,) * (field.e - 1), 2)

    @property
    def coeffs(self):
        try:
            return self._coeffs
        except AttributeError:
            # built by an operation: decode on first access
            self._coeffs = tuple(self.field.packing.unpack(self._planes, self._width))
            return self._coeffs

    @property
    def degree(self):
        """Degree, or None for the zero polynomial (callers branch explicitly)."""
        return self._width - 1 if self._width else None

    @property
    def leading(self):
        if not self._width:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self._width) and self.leading == 1

    def chi_t(self):
        """Evaluation character theta -> t, landing in F_q[theta, t]."""
        # slot i of one row is t**i at stride 1
        return BiPoly._make(self.field, self._planes, 1)

    def to_bipoly(self):
        return BiPoly._make(self.field, self._planes, max(self._width, 1))

    def __repr__(self):
        if not self._width:
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*x^{i}" if i else f"{c}")
        return "UniPoly(" + " + ".join(parts) + ")"


def enumerate_monic(field, d):
    """All q**d monic degree-d polynomials, ordered lexicographically by
    the low-coefficient vector (a_0, ..., a_{d-1})."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    return [UniPoly(field, lows + (1,))
            for lows in product(field.elements(), repeat=d)]


def monic_below(field, n):
    """All monic polynomials of degree < n, by increasing degree."""
    out = []
    for d in range(n):
        out.extend(enumerate_monic(field, d))
    return out
