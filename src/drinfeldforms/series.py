"""Truncated power series in u over F_q[theta, t], with exact precision tracking.

A USeries with precision P stands for a series known modulo u**P.  Every
operation computes the precision its output genuinely has:

  add:        min(P_f, P_g)
  mul:        min(P_f + val(g), P_g + val(f))
  f / g:      min(P_f, P_g + val(f))   (g with a nonzero F_q constant term)
  tau**k:     P * q**k     (exponents scale by q**k, theta twists)
  f**(q**k):  P * q**k     (Frobenius: freshman's dream in char p)
  pow(f, k, R): R, from f modulo the least precision that fixes f**k there

where val is the u-adic valuation of the stored truncation (val of a
series with no stored terms is its precision).  Precisions never exceed
what the inputs justify, so recomputing at higher precision and
truncating always reproduces lower-precision results bit for bit.

The module also provides the twisted-polynomial coefficients of the rank
one module phi with phi(theta) = theta + tau, as tuples of UniPoly (the
phi_{theta**k} come from one cached chain per field, by the recurrence
phi_{theta**k} = (theta + tau) phi_{theta**(k-1)}), the exact expansions
of u_c = 1 / phi_c(1/u) for monic c and of its powers u_c**l,
1 <= l <= q, and coset_sum, the sum of w(c) u_c over all monic c of one
degree for an F_q-linear weight w, in closed form, from the weight-free
chain of denominators that coset_denominators builds.

There is one exact division, f / g: u_c = u**(q**d) / P_c, the up steps
of u_c**l, the end of each coset_sum and every unit inverse use it.  It
and the d2 recurrence in forms are the triangular solves, and both are
one routine, _relaxed_solve, whose terms (i, offsets) push tau**i of
each coefficient forward (i = 0 for division).  It is relaxed: only
reachable exponents are solved.  Each nonzero coefficient pushes its contributions forward
when it is found, so an exponent that nothing reaches costs no
coefficient product.
"""

from functools import lru_cache

from . import polynomials
from .errors import PrecisionError
from .polynomials import BiPoly, UniPoly, _power, _same_field


class USeries:
    """Truncated series sum(a_n * u**n, n < prec) with a_n in F_q[theta, t]."""

    __slots__ = ("field", "prec", "coeffs")

    def __init__(self, field, prec, coeffs=None):
        if prec <= 0:
            raise PrecisionError(f"series precision must be positive, got {prec}")
        self.field = field
        self.prec = prec
        self.coeffs = {n: c for n, c in (coeffs or {}).items()
                       if n < prec and not c.is_zero}

    @classmethod
    def _raw(cls, field, prec, coeffs):
        # internal: trusts a fresh dict with in-range keys and nonzero values
        if prec <= 0:
            raise PrecisionError(f"series precision must be positive, got {prec}")
        obj = object.__new__(cls)
        obj.field = field
        obj.prec = prec
        obj.coeffs = coeffs
        return obj

    @classmethod
    def zero(cls, field, prec):
        return cls._raw(field, prec, {})

    @classmethod
    def one(cls, field, prec):
        return cls._raw(field, prec, {0: BiPoly.one(field)})

    # -- inspection -----------------------------------------------------------

    def val(self):
        """u-adic valuation of the truncation; prec when nothing is stored."""
        return min(self.coeffs) if self.coeffs else self.prec

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, n):
        if n >= self.prec:
            raise PrecisionError(f"coefficient of u^{n} not known at precision {self.prec}")
        return self.coeffs.get(n, BiPoly.zero(self.field))

    def t_degree(self):
        degs = [c.t_degree() for c in self.coeffs.values()]
        degs = [d for d in degs if d is not None]
        return max(degs, default=None)

    def __eq__(self, other):
        return (isinstance(other, USeries) and self.field == other.field
                and self.prec == other.prec and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.prec, frozenset(self.coeffs.items())))

    def first_difference(self, other):
        """Smallest exponent (below both precisions) where the two disagree, or None."""
        _same_field(self, other)
        bound = min(self.prec, other.prec)
        exps = {n for n in self.coeffs if n < bound} | {n for n in other.coeffs if n < bound}
        for n in sorted(exps):
            if self.coeffs.get(n) != other.coeffs.get(n):
                return n
        return None

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        _same_field(self, other)
        prec = min(self.prec, other.prec)
        out = {n: c for n, c in self.coeffs.items() if n < prec}
        for n, c in other.coeffs.items():
            if n >= prec:
                continue
            if n in out:
                s = out[n] + c
                if s.is_zero:
                    del out[n]
                else:
                    out[n] = s
            else:
                out[n] = c
        return USeries._raw(self.field, prec, out)

    def __neg__(self):
        return USeries._raw(self.field, self.prec,
                            {n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _same_field(self, other)
        f = self.field
        prec = min(self.prec + other.val(), other.prec + self.val())
        if prec <= 0:
            raise PrecisionError("product precision underflow")
        pairs = {}
        for n1, c1 in self.coeffs.items():
            for n2, c2 in other.coeffs.items():
                n = n1 + n2
                if n < prec:
                    pairs.setdefault(n, []).append((c1, c2))
        coeffs = {}
        for n, ps in pairs.items():
            c = polynomials._product_sum(f, ps)
            if not c.is_zero:
                coeffs[n] = c
        return USeries._raw(f, prec, coeffs)

    def scale(self, poly):
        """Multiply by a coefficient-ring element (precision unchanged)."""
        out = {}
        for n, c in self.coeffs.items():
            s = c * poly
            if not s.is_zero:
                out[n] = s
        return USeries._raw(self.field, self.prec, out)

    def __pow__(self, k, prec=None):
        """self**k; pow(self, k, prec) is (self**k).truncate(prec) from self
        modulo u**N only.  With k = m q**v, m prime to q, and
        P = ceil(prec / q**v), it is the Frobenius image of self**m modulo
        u**P, so N = max(P - (m - 1) val, ceil(P / m)) (the larger bound
        covers a truncation with no term left)."""
        if k < 0:
            raise ValueError("negative series exponent")
        if prec is None or k == 0:
            x = _power(self, k) if k else USeries.one(self.field, self.prec)
            return x if prec is None else x.truncate(prec)
        s = 1
        while k % (s * self.field.q) == 0:
            s *= self.field.q
        p, m = -(-prec // s), k // s
        n = min(self.prec, max(p - (m - 1) * self.val(), -(-p // m)))
        return _power(self.truncate(n), k).truncate(prec)

    def __truediv__(self, other):
        """self / other for other with a nonzero F_q-scalar constant term b_0,
        at the precision of self * (1 / other), min(P_a, P_b + val(a)).

        One relaxed solve of x_n = c (a_n - sum_(k > 0) b_k x_(n - k)),
        c = 1 / b_0.  When c = 1 (P_c, powers of units) the offsets are the
        negated b_k and the seed is a itself: no product before the solve."""
        _same_field(self, other)
        f = self.field
        b0 = other.coeffs.get(0)
        if b0 is None or b0.theta_degree() != 0 or b0.t_degree() != 0:
            raise ValueError("division requires a unit scalar constant term")
        c = f.inv(b0.terms[(0, 0)])
        prec = min(self.prec, other.prec + self.val())
        seed = self.coeffs if c == 1 else {n: a.scale(c) for n, a in self.coeffs.items()}
        offsets = [(k, -b if c == 1 else b.scale(f.neg(c)))
                   for k, b in sorted(other.coeffs.items()) if k]
        return USeries._raw(f, prec, _relaxed_solve(f, prec, seed, [(0, offsets)]))

    # -- Frobenius-type maps ----------------------------------------------------

    def tau(self, k=1):
        """tau**k: theta -> theta**(q**k), u -> u**(q**k), t fixed."""
        if k < 0:
            raise ValueError("tau exponent must be >= 0")
        if k == 0:
            return self
        s = self.field.q ** k
        return USeries._raw(self.field, self.prec * s,
                            {n * s: c.tau_twist(k) for n, c in self.coeffs.items()})

    def frobenius(self, k=1):
        """self**(q**k), computed as exponent scaling (char p)."""
        if k < 0:
            raise ValueError("frobenius exponent must be >= 0")
        if k == 0:
            return self
        s = self.field.q ** k
        return USeries._raw(self.field, self.prec * s,
                            {n * s: c.frobenius(k) for n, c in self.coeffs.items()})

    # -- reshaping ----------------------------------------------------------------

    def truncate(self, prec):
        if prec <= 0:
            raise PrecisionError("cannot truncate to non-positive precision")
        if prec > self.prec:
            raise PrecisionError(
                f"cannot extend precision {self.prec} to {prec} by truncation")
        if prec == self.prec:
            return self
        return USeries._raw(self.field, prec,
                            {n: c for n, c in self.coeffs.items() if n < prec})

    def shift(self, m):
        """Multiply by u**m (m may be negative when the valuation allows it)."""
        if m < 0 and self.val() < -m:
            raise ValueError("negative shift below the u-adic valuation")
        prec = self.prec + m
        if prec <= 0:
            raise PrecisionError("shift precision underflow")
        return USeries._raw(self.field, prec,
                            {n + m: c for n, c in self.coeffs.items()})

    def __repr__(self):
        terms = ", ".join(f"u^{n}: {c!r}" for n, c in sorted(self.coeffs.items())[:6])
        return f"USeries(prec={self.prec}, {{{terms}}})"


@lru_cache(maxsize=None)
def _phi_theta_power(field, k):
    """[theta**k, 0], ..., [theta**k, k], the coefficients of phi_{theta**k},
    built once per field and k (fields are interned, polynomials are
    immutable), so every carlitz_phi call shares the chain.  From
    phi_{theta**k} = (theta + tau) phi_{theta**(k-1)}:

        [theta**k, i] = theta [theta**(k-1), i] + tau([theta**(k-1), i-1]).
    """
    if k == 0:
        return (UniPoly.one(field),)
    prev = _phi_theta_power(field, k - 1)
    theta = UniPoly.gen(field)
    return (theta * prev[0],
            *[theta * prev[i] + prev[i - 1].tau_twist(1) for i in range(1, k)],
            UniPoly.one(field))


def carlitz_phi(a):
    """The twisted-polynomial coefficients ([a, 0], ..., [a, deg a]) of phi_a:
    the F_q-linear combination of the phi_{theta**k} by the coefficients of a."""
    if a.is_zero:
        raise ValueError("phi is only defined for nonzero ring elements")
    f = a.field
    coeffs = a.coeffs
    rows = [_phi_theta_power(f, k) for k in range(len(coeffs))]
    scalars = [(k, UniPoly.scalar(f, ck)) for k, ck in enumerate(coeffs) if ck]
    return tuple(
        UniPoly.sum_of_products(f, [(rows[k][i], c) for k, c in scalars if k >= i])
        for i in range(len(coeffs)))


def _reversed_phi(c):
    """(q**d, P_c) for monic c of degree d, where P_c maps the exponents
    q**d - q**i, i <= d with [c, i] nonzero, to [c, i]:

        P_c(u) = u**(q**d) phi_c(1/u) = sum [c, i] u**(q**d - q**i).

    The constant term of P_c is [c, d] = 1, and P_c has at most d + 1 terms.
    """
    if not c.is_monic:
        raise ValueError("u_c requires a monic polynomial")
    q, d = c.field.q, c.degree
    phi = carlitz_phi(c)
    return q ** d, {q ** d - q ** i: phi[i].to_bipoly()
                    for i in range(d + 1) if not phi[i].is_zero}


def _relaxed_solve(field, prec, seed, terms):
    """The x_n, n < prec, of x_n = seed_n + contributions of the x_k with k < n.

    seed maps exponents to coefficients.  Each term (i, offsets) says that
    x_k contributes a * tau**i(x_k) to x_(k*q**i + m) for every (m, a) in
    offsets, which must be sorted by m.  The solve is relaxed: a nonzero x_k
    pushes its pairs to the pending lists of the exponents it reaches, so
    an exponent nobody reaches costs one dict lookup, an exponent only its
    seed reaches takes the seed with no product, and every other exponent
    costs one BiPoly.sum_of_products.  A contribution lands only above
    its source (k*q**i + m > k): x_k is final once found, so the term of
    x_0 in itself, such as g_0 tau(x_0) in the d2 recurrence, is left to
    the seed.  Returns {n: x_n} for the nonzero x_n.
    """
    one = BiPoly.one(field)
    rules = [(i, field.q ** i, offsets) for i, offsets in terms]
    pending = {n: [(one, c)] for n, c in seed.items() if n < prec}
    x = {}
    for n in range(min(pending, default=prec), prec):
        pairs = pending.pop(n, None)
        if pairs is None:
            continue
        if len(pairs) == 1 and pairs[0][0] is one:
            # only the seed reaches x_n: it is x_n as it is
            xn = pairs[0][1]
        else:
            xn = BiPoly.sum_of_products(field, pairs)
        if xn.is_zero:
            continue
        x[n] = xn
        for i, scale, offsets in rules:
            base = n * scale
            if not offsets or base + offsets[0][0] >= prec:
                continue
            y = xn.tau_twist(i)
            for m, a in offsets:
                j = base + m
                if j >= prec:
                    break
                if j > n:
                    dest = pending.get(j)
                    if dest is None:
                        pending[j] = [(a, y)]
                    else:
                        dest.append((a, y))
    return x


def coset_denominators(field, d, work):
    """The weight-free half of coset_sum over the monic of degree d, modulo
    u**work: (steps, den) with one step (d1**(q-2), d1**(q-1), rest) per
    coefficient summed out and den = prod_(deg c = d) P_c.

    Write c = theta**d + sum_(k < d) c_k theta**k.  phi is F_q-linear, so
    P_c = u**(q**d) phi_c(1/u) = R_d + sum c_k R_k, with
    R_k = u**(q**d) phi_(theta**k)(1/u).  Summing out c_0, then c_1, ...
    replaces D = D0 + lambda D1, where D0 is affine in the c_k not summed
    out yet and D1 = d1 is free of them, by

        prod_(lambda in F_q) (D0 + lambda D1) = D0**q - D0 D1**(q-1).

    D0**q is a Frobenius image, again affine in the other c_k, so D stays
    affine; rest holds its part free of them and its coefficients of them,
    by increasing k, before the step.  After d steps den, the product of
    the P_c, has constant term 1.  Nothing here depends on a weight, so one
    chain serves every weighted sum of that degree and precision.
    """
    q = field.q
    qd = q ** d
    den = []
    for k in (d, *range(d)):
        row = _phi_theta_power(field, k)
        den.append(USeries(field, work, {qd - q ** i: row[i].to_bipoly()
                                          for i in range(k + 1)}))
    steps = []
    for _ in range(d):
        d1 = den.pop(1)
        d1_q2 = pow(d1, q - 2, work)
        # at q = 2, d1**(q-2) is 1 and d1**(q-1) is d1: no product
        d1_q1 = d1 if q == 2 else (d1_q2 * d1).truncate(work)
        steps.append((d1_q2, d1_q1, tuple(den)))
        den = [pow(c, q, work) - (c * d1_q1).truncate(work) for c in den]
    return tuple(steps), den[0]


def coset_sum(chain, weights):
    """sum of w(c) u_c over the q**d monic c of degree d, modulo
    u**(work + q**d), from chain = coset_denominators(field, d, work).

    w is F_q-linear, given on the basis: weights[k] = w(theta**k) for
    k <= d (w = 1 is weights[d] = 1, weights[k] = 0 below).  Then
    w(c) u_c = u**(q**d) N / D with N = w(c) and D = P_c both affine in
    the c_k (see coset_denominators), and summing out c_0, then c_1, ... is
    Lemma 1 in homogeneous form:

        sum_(lambda in F_q) (N0 + lambda N1) / (D0 + lambda D1)
            = D1**(q-2) (N1 D0 - N0 D1) / (D0**q - D0 D1**(q-1)).

    N1, the coefficient of the variable summed out, is free of the others,
    so N stays affine.  The chain holds every denominator; after its d
    steps the sum is u**(q**d) N / D, where D has constant term 1, so it
    costs one relaxed division.
    """
    steps, den = chain
    field, work, d = den.field, den.prec, len(steps)
    # num[0] is the part free of the c_k; num[1:] the coefficients of the
    # c_k not summed out yet, by increasing k
    num = [USeries(field, work, {0: weights[k]}) for k in (d, *range(d))]
    for d1_q2, d1_q1, rest in steps:
        n1_d1_q2 = num.pop(1) if field.q == 2 else (num.pop(1) * d1_q2).truncate(work)
        num = [(n1_d1_q2 * c - a * d1_q1).truncate(work) for a, c in zip(num, rest)]
    return num[0].shift(field.q ** d) / den


def u_c_expansion(c, prec):
    """Expansion of u_c = 1 / phi_c(1/u) for monic c, modulo u**prec.

    With d = deg c this is u**(q**d) / P_c, one relaxed division by
    the (d + 1)-term polynomial P_c; the leading term is u**(q**d) and all
    coefficients stay in F_q[theta].
    """
    if prec <= 0:
        raise PrecisionError("u_c requires positive precision")
    field = c.field
    qd, pc = _reversed_phi(c)
    return USeries(field, prec, {qd: BiPoly.one(field)}) / USeries(field, prec, pc)


def u_c_power(uc, c, l):
    """u_c**l for 1 <= l <= q, at the precision of uc = u_c_expansion(c, prec).

    Walks up from u_c, u_c**(j+1) = u_c**j u**(q**d) / P_c, or down from the
    free Frobenius image u_c**q, u_c**(j-1) = u_c**j P_c / u**(q**d),
    whichever takes fewer steps: min(l - 1, q - l).  Each step costs at most
    d + 1 coefficient products per output coefficient, where a dense series
    product costs one per pair of coefficients.
    """
    field, prec, q = uc.field, uc.prec, uc.field.q
    if not 1 <= l <= q:
        raise ValueError(f"u_c_power needs 1 <= l <= q, got {l}")
    qd, pc = _reversed_phi(c)
    if l * qd >= prec:
        return USeries.zero(field, prec)
    if l - 1 <= q - l:
        p_c = USeries(field, prec, pc)
        y = uc
        for _ in range(l - 1):
            y = y.truncate(prec - qd).shift(qd) / p_c
        return y
    # each down step loses q**d of precision, and u_c**q is known modulo
    # u**(q * prec), which covers the q - l steps since l * q**d < prec
    y = pow(uc, q, prec + (q - l) * qd)
    p_c = USeries(field, y.prec, pc)
    for _ in range(q - l):
        y = (y * p_c).shift(-qd)
    return y
