"""tau-linear operators on lists of u-expansions, and symmetric powers.

A sequence {G_k} is a list of series, entry k at index k.  An operator
A_0 tau**0 + ... + A_s tau**s acts on it by

    (L G)_k = sum_i A_i * tau**i G_{k-i},

so order-s operators consume an s-deep window: the image of a list of
length n holds the entries k = s..n-1.  The two operators of interest
annihilate, respectively, the constant sequence d2 together with the
closed-form sequence {G_k} of the shadowed module, and the sequence of
their negated squares.

sym_power_matrix is the degree-l symmetric power of a 2x2 matrix in the
monomial basis X**l, X**(l-1) Y, ..., Y**l; it is multiplicative and its
determinant is (ad - bc)**((l*l + l) // 2).
"""

from .errors import PrecisionError
from .forms import t_minus_theta_pow
from .polynomials import BiPoly
from .series import USeries
from .shadowed import g1k_shadowed


class TauOperator:
    """A_0 tau**0 + ... + A_s tau**s with u-series coefficients, A_0, A_s != 0."""

    __slots__ = ("field", "coeffs")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("operator needs at least one coefficient")
        if coeffs[0].is_zero or coeffs[-1].is_zero:
            raise ValueError("leading and trailing operator coefficients must be nonzero")
        fields = {c.field for c in coeffs}
        if len(fields) != 1:
            raise ValueError("operator coefficients live over different fields")
        self.field = fields.pop()
        self.coeffs = coeffs

    @property
    def order(self):
        return len(self.coeffs) - 1

    def apply(self, entries):
        """[(L G)_k for s <= k < len(entries)], where (L G)_k is
        sum_i A_i * tau**i (G_{k-i})."""
        s = self.order
        if len(entries) <= s:
            raise ValueError(f"sequence window of length {len(entries)} "
                             f"is too short for an order-{s} operator")
        image = []
        for k in range(s, len(entries)):
            terms = [a * entries[k - i].tau(i) for i, a in enumerate(self.coeffs)]
            image.append(sum(terms[1:], terms[0]))
        return image

    def annihilates(self, entries, prec):
        """Every entry of the image is zero, certified modulo u**prec."""
        return all(entry.is_zero and entry.prec >= prec for entry in self.apply(entries))


def operator_l1(catalog):
    """tau**0 - g tau**1 - delta (t - theta**q) tau**2."""
    if catalog.delta_t.is_zero:
        # the tau**2 coefficient has valuation q - 1
        raise PrecisionError(
            f"precision {catalog.prec} too small to represent the order-2 operator")
    return TauOperator([USeries.one(catalog.field, catalog.prec), -catalog.g, -catalog.delta_t])


def operator_l2(catalog):
    """The order-3 annihilator of squared solutions of the order-2 equation.

    With B = g**(1+q) + delta (t - theta**q):
        tau**0 - g**(1-q) B tau**1 - delta (t - theta**q) B tau**2
               + g**(1-q) delta**(1+2q) (t - theta**q)(t - theta**(q*q))**2 tau**3
    where g**(1-q) = g / g**q (g has constant term 1).
    """
    field, prec, q = catalog.field, catalog.prec, catalog.field.q
    g, d, d_t = catalog.g, catalog.delta, catalog.delta_t
    tq2 = t_minus_theta_pow(field, q * q)
    g_one_minus_q = g / pow(g, q, prec)
    b = pow(g, 1 + q, prec) + d_t
    a3 = g_one_minus_q * pow(d, 1 + 2 * q, prec)
    a3 = a3.scale(t_minus_theta_pow(field, q)).scale(tq2 * tq2)
    if a3.is_zero:
        # the tau**3 coefficient has valuation (1 + 2q)(q - 1)
        raise PrecisionError(
            f"precision {prec} too small to represent the order-3 operator")
    return TauOperator([
        USeries.one(field, prec),
        -(g_one_minus_q * b).truncate(prec),
        -(d_t * b).truncate(prec),
        a3,
    ])


def g_sequence(catalog, l, k_max):
    """Entries (-1)**(l+1) G_k**l for k = 0..k_max, 1 <= l <= q."""
    q = catalog.field.q
    if not 1 <= l <= q:
        raise ValueError(f"l must satisfy 1 <= l <= q, got {l}")
    powers = [pow(g1k_shadowed(catalog, k), l, catalog.prec) for k in range(k_max + 1)]
    return powers if l % 2 else [-power for power in powers]


def _binomial_rows(x, y, l):
    """Coefficient lists of (x + y Z)**m for m = 0..l.  Entry j of row m is
    x * row_(m-1)[j] + y * row_(m-1)[j-1] (Pascal's rule, so the binomials
    come out reduced mod p): one sum_of_products per entry."""
    field = x.field
    zero = BiPoly.zero(field)
    rows = [[BiPoly.one(field)]]
    for _ in range(l):
        prev = rows[-1]
        rows.append([BiPoly.sum_of_products(field, [(x, hi), (y, lo)])
                     for lo, hi in zip([zero] + prev, prev + [zero])])
    return rows


def sym_power_matrix(a, b, c, d, l):
    """Degree-l symmetric power of [[a, b], [c, d]] over F_q[theta, t].

    Basis X**l, X**(l-1) Y, ..., Y**l; entry (r, s) is the coefficient of
    X**(l-r) Y**r in (a X + c Y)**(l-s) (b X + d Y)**s, that is of Z**r in
    (a + c Z)**(l-s) (b + d Z)**s: one sum_of_products over the binomial
    rows of the two factors.  Column 0 is (a + c Z)**l and column l is
    (b + d Z)**l, read off the rows as they are.  Multiplicative, with
    determinant (a d - b c)**((l*l + l) // 2).
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    field = a.field
    left = _binomial_rows(a, c, l)
    right = _binomial_rows(b, d, l)
    return [[left[l][r],
             *[BiPoly.sum_of_products(field, [(left[l - s][j], right[s][r - j])
                                              for j in range(max(0, r - s), min(l - s, r) + 1)])
               for s in range(1, l)],
             right[l][r]]
            for r in range(l + 1)]


def matrix_det(matrix):
    """Determinant by Laplace expansion along the rows, memoised on the set
    of columns left (exact, division-free, for any square matrix).

    The rows are expanded sparsest first, so a zero near the top prunes
    every minor below it; the result is negated when that order is an odd
    permutation of the rows.  Each nonzero entry is negated once, for the
    odd positions of the expansion, and a 1 x 1 minor is its entry."""
    n = len(matrix)
    field = matrix[0][0].field
    order = sorted(range(n), key=lambda r: sum(not x.is_zero for x in matrix[r]))
    # per expanded row: {column: (entry, -entry)} of its nonzero entries
    rows = [{col: (x, -x) for col, x in enumerate(matrix[r]) if not x.is_zero} for r in order]
    memo = {}

    def minor(cols):
        if len(cols) == 1:
            signed = rows[-1].get(cols[0])
            return BiPoly.zero(field) if signed is None else signed[0]
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = rows[n - len(cols)]
        pairs = []
        for idx, col in enumerate(cols):
            signed = row.get(col)
            if signed is not None:
                pairs.append((signed[idx % 2], minor(cols[:idx] + cols[idx + 1:])))
        acc = BiPoly.sum_of_products(field, pairs)
        memo[cols] = acc
        return acc

    det = minor(tuple(range(n)))
    odd = sum(order[i] > order[j] for i in range(n) for j in range(i + 1, n)) % 2
    return -det if odd else det


def _random_entry(field, rng):
    """At most 3 nonzero terms theta**i t**j with i, j < 3; rng draws each
    coefficient before its exponents."""
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        terms[(rng.randrange(3), rng.randrange(3))] = rng.randrange(1, field.q)
    return BiPoly(field, terms)


def sym_det_trials(field, l, trials, rng):
    """det Sym**l = (ad - bc)**((l*l + l) // 2) on `trials` random matrices
    [[a, b], [c, d]] drawn from rng; False at the first that fails."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for _ in range(trials):
        a, b, c, d = (_random_entry(field, rng) for _ in range(4))
        if matrix_det(sym_power_matrix(a, b, c, d, l)) != (a * d - b * c) ** ((l * l + l) // 2):
            return False
    return True
