"""Exact finite-field identities and Pellarin L-series partial sums.

The rational identities are verified by clearing denominators and
comparing polynomials over F_q; nothing is ever evaluated numerically.
The character-sum identity over n-tuples is checked by brute force over
all nonzero (u_1, ..., u_n) in F_q**n inside an extension field large
enough to hold F_q-independent denominators.

Partial L-values sum chi_t(a)**alpha / a**beta over monic a of degree
below n.  They are kept as literal (numerator, denominator) pairs with
denominator the full product of the a**beta; equality tests always
cross-multiply, so no canonical form is needed.  The primed sums over
all nonzero a of bounded degree equal minus the monic sums (each monic
value is hit by the q - 1 scalar multiples), which is how the l-th power
relation between partial sums is phrased and checked here.
"""

from itertools import product

from .fields import extension_field
from .polynomials import BiPoly, UniPoly, monic_below


# -- polynomial identities over F_q(X, Y) -----------------------------------------


def _y_plus_u(field, u):
    return BiPoly.from_pairs(field, [((0, 1), 1), ((0, 0), u)])


def _x_plus_u(field, u):
    return BiPoly.from_pairs(field, [((1, 0), 1), ((0, 0), u)])


def _products_excluding(field, factors):
    """(full product, [product over all factors but one]) without division,
    for nonempty factors of any one ring (UniPoly or BiPoly)."""
    n = len(factors)
    one = type(factors[0]).one(field)
    prefix = [one]
    for f in factors:
        prefix.append(prefix[-1] * f)
    suffix = [one] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = factors[i] * suffix[i + 1]
    return prefix[n], [prefix[i] * suffix[i + 1] for i in range(n)]


def lemma1_check(field):
    """1 + sum_u (X + u)/(Y + u) == (Y**q - X)/(Y**q - Y), denominators cleared."""
    q = field.q
    pi, pi_except = _products_excluding(
        field, [_y_plus_u(field, u) for u in field.elements()])
    n_sum = BiPoly.zero(field)
    for idx, u in enumerate(field.elements()):
        n_sum = n_sum + _x_plus_u(field, u) * pi_except[idx]
    yq_minus_y = BiPoly.from_pairs(
        field, [((0, q), 1), ((0, 1), field.neg(1))])
    yq_minus_x = BiPoly.from_pairs(
        field, [((0, q), 1), ((1, 0), field.neg(1))])
    return (pi + n_sum) * yq_minus_y == yq_minus_x * pi


def _power_of_sum_holds(numerators, l):
    """sum_i x_i**l == (sum_i x_i)**l for the fractions x_i = n_i / d over
    one common denominator d, which cancels: sum_i n_i**l against
    (sum_i n_i)**l, for nonempty numerators of any one ring."""
    if l < 1:
        raise ValueError("l must be >= 1")
    first, *rest = numerators
    return sum((n ** l for n in rest), first ** l) == sum(rest, first) ** l


def lemma2_check(field, l):
    """1 + sum_u ((X + u)/(Y + u))**l == (1 + sum_u (X + u)/(Y + u))**l.

    A theorem for 1 <= l <= q; larger l is still computed so that the
    failures can be reported as negative controls.  Over the denominator
    pi = prod_u (Y + u) the terms are pi and (X + u) * pi / (Y + u).
    """
    pi, pi_except = _products_excluding(
        field, [_y_plus_u(field, u) for u in field.elements()])
    return _power_of_sum_holds(
        [pi] + [_x_plus_u(field, u) * pe for u, pe in zip(field.elements(), pi_except)], l)


def goss_degenerate_check(field, l):
    """sum_u (1/(Y + u))**l == (sum_u 1/(Y + u))**l over F_q(Y)."""
    _, pi_except = _products_excluding(
        field, [UniPoly(field, (u, 1)) for u in field.elements()])
    return _power_of_sum_holds(pi_except, l)


# -- brute-force character sums -----------------------------------------------------


class BruteForceInstance:
    """Data for one brute-force check of the n-variable power identity.

    Vs are arbitrary, Ws must be F_q-linearly independent elements of the
    extension field; independence is verified by building the F_q-span
    incrementally, which also guarantees every denominator is nonzero.
    """

    def __init__(self, base_field, ext, embed, vs, ws, l):
        self._assign(base_field, ext, embed, vs, ws, l)
        span = _Span(ext, embed, base_field)
        for w in ws:
            if not span.extend(w):
                raise ValueError("W elements are F_q-linearly dependent")

    def _assign(self, base_field, ext, embed, vs, ws, l):
        """Check the shape and store; the independence of W is the caller's."""
        if len(vs) != len(ws) or not ws:
            raise ValueError("V and W must be nonempty lists of equal length")
        if l < 1:
            raise ValueError("l must be >= 1")
        self.base_field = base_field
        self.ext = ext
        self.embed = tuple(embed)
        self.vs = tuple(vs)
        self.ws = tuple(ws)
        self.l = l

    @classmethod
    def random(cls, base_field, n, l, rng):
        """Draw an instance from rng in F_(q**max(4, n)), so that n
        independent elements exist.  The span that rejects a dependent draw
        is the validation, so it is built once."""
        ext, embed = extension_field(base_field, max(4, n))
        span = _Span(ext, embed, base_field)
        ws = []
        while len(ws) < n:
            w = rng.randrange(ext.q)
            if span.extend(w):
                ws.append(w)
        vs = [rng.randrange(ext.q) for _ in range(n)]
        inst = object.__new__(cls)
        inst._assign(base_field, ext, embed, vs, ws, l)
        return inst


class _Span:
    """The F_q-span of the elements added so far, inside the extension."""

    def __init__(self, ext, embed, base_field):
        self.ext = ext
        self.scalars = [embed[u] for u in base_field.elements()]
        self.elements = {0}

    def extend(self, w):
        """Add w to the span; False (and no change) when w is already in it."""
        if w in self.elements:
            return False
        ext = self.ext
        self.elements = {ext.add(s, ext.mul(c, w)) for s in self.elements for c in self.scalars}
        return True


def lemma3_bruteforce(inst):
    """Full enumeration of sum' (sum u_i V_i / sum u_i W_i)**l
    against (-1)**(l+1) (sum' of the plain ratios)**l."""
    base, ext, l = inst.base_field, inst.ext, inst.l
    scalars = [inst.embed[u] for u in base.elements()]
    n = len(inst.ws)
    lhs = 0
    plain = 0
    for tup in product(range(base.q), repeat=n):
        if not any(tup):
            continue
        num = 0
        den = 0
        for u, v, w in zip(tup, inst.vs, inst.ws):
            s = scalars[u]
            num = ext.add(num, ext.mul(s, v))
            den = ext.add(den, ext.mul(s, w))
        ratio = ext.mul(num, ext.inv(den))
        lhs = ext.add(lhs, ext.pow(ratio, l))
        plain = ext.add(plain, ratio)
    rhs = ext.pow(plain, l)
    if l % 2 == 0:
        rhs = ext.neg(rhs)
    return lhs == rhs


def lemma3_trials(field, n, l, trials, rng):
    """lemma3_bruteforce on `trials` instances drawn from rng; False at the
    first instance that fails."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return all(lemma3_bruteforce(BruteForceInstance.random(field, n, l, rng))
               for _ in range(trials))


# -- Pellarin L partial sums -----------------------------------------------------------


class PartialLValue:
    """sum over monic a, deg a < n, of chi_t(a)**alpha / a**beta, held as
    (numerator in F_q[theta, t], denominator = product of the a**beta)."""

    __slots__ = ("field", "alpha", "beta", "n", "num", "den")

    def __init__(self, field, alpha, beta, n, num, den):
        if den.is_zero:
            raise ValueError("denominator must be nonzero")
        self.field = field
        self.alpha = alpha
        self.beta = beta
        self.n = n
        self.num = num
        self.den = den

    def __repr__(self):
        return (f"PartialLValue(alpha={self.alpha}, beta={self.beta}, "
                f"n={self.n}, deg den={self.den.degree})")


def pellarin_partial(field, alpha, beta, n):
    """Exact partial sum over monic a with deg a < n.

    Division-free: each den / a**beta is a product of prefix and suffix
    products of the a**beta, and the numerator is one sum of products."""
    if alpha < 1 or beta < 1 or n < 1:
        raise ValueError("alpha, beta, n must all be >= 1")
    monics = monic_below(field, n)
    den, cofactors = _products_excluding(field, [a ** beta for a in monics])
    num = BiPoly.sum_of_products(field, [(a.chi_t() ** alpha, cofactor.to_bipoly())
                                         for a, cofactor in zip(monics, cofactors)])
    return PartialLValue(field, alpha, beta, n, num, den)


def check_lvals(field, l, n, p1=None):
    """The l-th power relation between truncated L-values.

    Phrased over the primed sums S'_j = sum over nonzero a of degree < n
    of chi_t(a)**j / a**j, which equal minus the monic sums:
    S'_l == (-1)**(l+1) (S'_1)**l.  A caller checking several l passes
    the shared l = 1 sum pellarin_partial(field, 1, 1, n) as p1.
    """
    q = field.q
    if not 1 <= l <= q:
        raise ValueError(f"l must satisfy 1 <= l <= q, got {l}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if p1 is None:
        p1 = pellarin_partial(field, 1, 1, n)
    pl = p1 if l == 1 else pellarin_partial(field, l, l, n)
    lhs_num = -pl.num
    lhs_den = pl.den.to_bipoly()
    rhs_num = (-p1.num) ** l
    if l % 2 == 0:
        rhs_num = -rhs_num
    rhs_den = (p1.den ** l).to_bipoly()
    return lhs_num * rhs_den == rhs_num * lhs_den

