"""Polynomial rings over F_q: univariate F_q[theta] and bivariate F_q[theta, t].

UniPoly is the dense univariate ring playing the role of the base ring
A = F_q[theta] (monic elements are the summation domain of every form);
BiPoly is the sparse bivariate coefficient ring F_q[theta, t] used by all
u-expansions.  Both are immutable by convention: every operation returns
a fresh object.

A raising-to-the-q trick is used throughout: in characteristic p with
q = p**e a power f**(q**k) is plain exponent scaling (F_q-scalars are
fixed by x -> x**q), so large q-power exponents cost nothing.
"""

from itertools import product
from math import comb


def _same_field(a, b):
    if a.field is not b.field and a.field != b.field:
        raise ValueError("operands live over different fields")


def _mul_into(out, terms1, terms2, add, mul):
    """Add the product of two BiPoly term maps into the term map out.

    The kernel of USeries products and BiPoly.sum_of_products.  add and
    mul are the field's tables; out keeps no zeros.  BiPoly.__mul__ keeps
    its own copy of the loop, because the extra call costs about 7% on
    one- and two-term products (timeit over F_5, Python 3.11).
    """
    get = out.get
    items2 = terms2.items()
    for (i1, j1), v1 in terms1.items():
        row = mul[v1]
        for (i2, j2), v2 in items2:
            key = (i1 + i2, j1 + j2)
            s = add[get(key, 0)][row[v2]]
            if s:
                out[key] = s
            elif key in out:
                del out[key]


class UniPoly:
    """Univariate polynomial over F_q, dense little-endian coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def gen(cls, field):
        """The generator theta."""
        return cls(field, (0, 1))

    @property
    def degree(self):
        """Degree, or None for the zero polynomial (callers branch explicitly)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        _same_field(self, other)
        add = self.field.add_table
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, cb in enumerate(b):
            out[i] = add[out[i]][cb]
        return UniPoly(self.field, out)

    def __neg__(self):
        neg = self.field.neg_table
        return UniPoly(self.field, [neg[c] for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _same_field(self, other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly.zero(f)
        add, mul = f.add_table, f.mul_table
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                row = mul[ca]
                for j, cb in enumerate(b):
                    if cb:
                        k = i + j
                        out[k] = add[out[k]][row[cb]]
        return UniPoly(f, out)

    def scale(self, c):
        if c == 0:
            return UniPoly.zero(self.field)
        row = self.field.mul_table[c]
        return UniPoly(self.field, [row[x] for x in self.coeffs])

    def _pow_small(self, k):
        result = UniPoly.one(self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def exponent_scale(self, s):
        """theta**i -> theta**(i*s); equals self**s when s is a power of q."""
        if not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * s + 1)
        for i, c in enumerate(self.coeffs):
            out[i * s] = c
        return UniPoly(self.field, out)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative exponent")
        if k == 0:
            return UniPoly.one(self.field)
        q = self.field.q
        v = 1
        while k % q == 0:
            k //= q
            v *= q
        base = self._pow_small(k)
        return base.exponent_scale(v) if v > 1 else base

    def frobenius_twist(self, k=1):
        """Apply theta -> theta**(q**k) to the coefficients-as-polynomial.

        Equals self**(q**k) because F_q-scalars are Frobenius-fixed.
        """
        return self.exponent_scale(self.field.q ** k)

    def __divmod__(self, other):
        _same_field(self, other)
        f = self.field
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        add, mul, neg = f.add_table, f.mul_table, f.neg_table
        inv_lead = f.inv(other.leading)
        rem = list(self.coeffs)
        db = other.degree
        quo = [0] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            if rem[-1]:
                coef = mul[rem[-1]][inv_lead]
                shift = len(rem) - 1 - db
                quo[shift] = coef
                row = mul[coef]
                for i, cb in enumerate(other.coeffs):
                    rem[shift + i] = add[rem[shift + i]][neg[row[cb]]]
            rem.pop()
        return UniPoly(f, quo), UniPoly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def chi_t(self):
        """Evaluation character theta -> t, landing in F_q[theta, t]."""
        return BiPoly(self.field, {(0, i): c for i, c in enumerate(self.coeffs) if c})

    def to_bipoly(self):
        return BiPoly(self.field, {(i, 0): c for i, c in enumerate(self.coeffs) if c})

    def __repr__(self):
        if not self.coeffs:
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*x^{i}" if i else f"{c}")
        return "UniPoly(" + " + ".join(parts) + ")"


def poly_gcd(a, b):
    """Monic gcd in F_q[theta]."""
    _same_field(a, b)
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.scale(a.field.inv(a.leading))


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


class BiPoly:
    """Sparse bivariate polynomial over F_q, monomial map (i, j) -> coefficient.

    The two variables are theta (first exponent) and t (second); nothing
    in the arithmetic depends on the naming, so the same type doubles as
    a generic F_q[X, Y].
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def _raw(cls, field, terms):
        # internal: trusts that terms is a fresh dict without zero values
        obj = object.__new__(cls)
        obj.field = field
        obj.terms = terms
        return obj

    @classmethod
    def zero(cls, field):
        return cls._raw(field, {})

    @classmethod
    def one(cls, field):
        return cls._raw(field, {(0, 0): 1})

    @classmethod
    def scalar(cls, field, c):
        return cls._raw(field, {(0, 0): c} if c else {})

    @classmethod
    def theta_pow(cls, field, i, c=1):
        return cls._raw(field, {(i, 0): c} if c else {})

    @classmethod
    def t_pow(cls, field, j, c=1):
        return cls._raw(field, {(0, j): c} if c else {})

    @classmethod
    def from_pairs(cls, field, pairs):
        """Build from ((i, j), coefficient) pairs, accumulating duplicates."""
        add = field.add_table
        terms = {}
        for key, v in pairs:
            s = add[terms.get(key, 0)][v]
            if s:
                terms[key] = s
            elif key in terms:
                del terms[key]
        return cls._raw(field, terms)

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, BiPoly) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def __add__(self, other):
        _same_field(self, other)
        add = self.field.add_table
        out = dict(self.terms)
        for key, v in other.terms.items():
            s = add[out.get(key, 0)][v]
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return BiPoly._raw(self.field, out)

    def __neg__(self):
        neg = self.field.neg_table
        return BiPoly._raw(self.field, {k: neg[v] for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _same_field(self, other)
        f = self.field
        add, mul = f.add_table, f.mul_table
        out = {}
        get = out.get
        for (i1, j1), v1 in self.terms.items():
            row = mul[v1]
            for (i2, j2), v2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                s = add[get(key, 0)][row[v2]]
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return BiPoly._raw(f, out)

    @classmethod
    def sum_of_products(cls, field, pairs):
        """sum(a * b for a, b in pairs), accumulated in one term map."""
        add, mul = field.add_table, field.mul_table
        out = {}
        for a, b in pairs:
            _same_field(a, b)
            _mul_into(out, a.terms, b.terms, add, mul)
        # the copy drops the slots of terms that cancelled on the way, which
        # would otherwise stay allocated as long as the result lives
        return cls._raw(field, dict(out))

    def scale(self, c):
        if c == 0:
            return BiPoly.zero(self.field)
        row = self.field.mul_table[c]
        return BiPoly._raw(self.field, {k: row[v] for k, v in self.terms.items()})

    def _pow_small(self, k):
        result = BiPoly.one(self.field)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative exponent")
        if k == 0:
            return BiPoly.one(self.field)
        q = self.field.q
        v = 0
        while k % q == 0:
            k //= q
            v += 1
        base = self._pow_small(k)
        return base.frobenius(v) if v else base

    def frobenius(self, k=1):
        """self**(q**k): both exponents scale, F_q-scalars are fixed."""
        s = self.field.q ** k
        return BiPoly._raw(self.field, {(i * s, j * s): v for (i, j), v in self.terms.items()})

    def tau_twist(self, k=1):
        """Coefficient action of tau**k: theta -> theta**(q**k), t fixed."""
        s = self.field.q ** k
        return BiPoly._raw(self.field, {(i * s, j): v for (i, j), v in self.terms.items()})

    def subs_t_theta(self):
        """Substitute t -> theta (collapse the second variable into the first)."""
        return BiPoly.from_pairs(self.field,
                                 (((i + j, 0), v) for (i, j), v in self.terms.items()))

    def swap_vars(self):
        return BiPoly._raw(self.field, {(j, i): v for (i, j), v in self.terms.items()})

    def theta_degree(self):
        return max((i for i, _ in self.terms), default=None)

    def t_degree(self):
        return max((j for _, j in self.terms), default=None)

    def t_slices(self):
        """Split into {j: UniPoly in theta} by powers of t."""
        slices = {}
        for (i, j), v in self.terms.items():
            slices.setdefault(j, {})[i] = v
        out = {}
        for j, mono in slices.items():
            coeffs = [0] * (max(mono) + 1)
            for i, v in mono.items():
                coeffs[i] = v
            out[j] = UniPoly(self.field, coeffs)
        return out

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "BiPoly(0)"
        parts = []
        for (i, j), v in self.sorted_terms():
            mono = "".join([f"x^{i}" if i else "", f"y^{j}" if j else ""])
            parts.append(f"{v}*{mono}" if mono else f"{v}")
        return "BiPoly(" + " + ".join(parts) + ")"


def chi_t(a):
    """chi_t(a) = a(t): the ring homomorphism F_q[theta] -> F_q[t]."""
    return a.chi_t()


def tau_coeff(c, k=1):
    """tau**k on a coefficient: theta**i t**j -> theta**(i q**k) t**j."""
    if k < 0:
        raise ValueError("tau exponent must be >= 0")
    return c.tau_twist(k)


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
