"""Index-shadowed partitions and the closed-form approximations of d2.

An order-r shadowed partition of n is a tuple (S_1, ..., S_r) of subsets
of {0, ..., n-1} whose shifted copies S_i + j (0 <= j < i) tile
{0, ..., n-1}: an element of S_i is the left endpoint of a length-i
tile.  For r = 2 the count is the Fibonacci-style square/domino number.

The sum of one product per tile pattern,

    G_k = - sum over (S_1, S_2) of
            prod_{j in S_1} g**(q**j) *
            prod_{i in S_2} (t - theta**(q**(i+1))) delta**(q**i),

is summed by grouping the patterns by their last tile (_tiling_sum).
Its negative agrees with d2 modulo u**(q**(k-1) (q-1)), which
check_d2_approx certifies against the recurrence solution FormCatalog.d2.
"""

from .errors import PrecisionError
from .forms import t_minus_theta_pow
from .series import USeries


def enumerate_shadowed(r, n):
    """All order-r shadowed partitions of n, sorted by their block tuples."""
    if r < 1:
        raise ValueError("order must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    results = []
    blocks = [[] for _ in range(r)]

    def place(pos):
        if pos == n:
            results.append(tuple(frozenset(b) for b in blocks))
            return
        for size in range(1, r + 1):
            if pos + size <= n:
                blocks[size - 1].append(pos)
                place(pos + size)
                blocks[size - 1].pop()

    place(0)
    results.sort(key=lambda parts: tuple(tuple(sorted(s)) for s in parts))
    return results


def is_shadowed_partition(parts, n):
    """Check the defining tiling property of a candidate tuple."""
    covered = set()
    for i, block in enumerate(parts, start=1):
        for s in block:
            for j in range(i):
                x = s + j
                if x < 0 or x >= n or x in covered:
                    return False
                covered.add(x)
    return len(covered) == n


def partition_counts(n_max):
    """(n, count, ok) for n = 0..n_max: ok when every order-2 shadowed
    partition of n is a tiling and there are as many as square/domino
    tilings of a length-n strip."""
    if n_max < 0:
        raise ValueError("n must be >= 0")
    tilings = [1, 1]
    while len(tilings) <= n_max:
        tilings.append(tilings[-1] + tilings[-2])
    rows = []
    for n in range(n_max + 1):
        parts = enumerate_shadowed(2, n)
        rows.append((n, len(parts), len(parts) == tilings[n]
                     and all(is_shadowed_partition(pt, n) for pt in parts)))
    return rows


def g1k_shadowed(catalog, k):
    """The closed-form sequence entry G_k = -T_k built from order-2 partitions.

    G_0 = -1 (empty tiling), G_1 = -g, G_2 = -g**(q+1) - (t - theta**q) delta.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return -_tiling_sum(catalog, k)


def _tiling_sum(catalog, k):
    """T_k, the sum over the order-2 partitions of k of the products of
    their tiles, cached on the catalog.

    Grouped by the last tile, a square at k - 1 or a domino at k - 2,

        T_k = T_(k-1) g**(q**(k-1)) + T_(k-2) delta**(q**(k-2)) (t - theta**(q**(k-1))),

    with T_0 = 1 and T_1 = g, so each T_k costs two series products.
    A Frobenius image x**(q**j) is needed modulo u**prec only, so x is
    truncated to ceil(prec / q**j) first: theta-degrees stay below
    prec * deg x, not q**j.  Once delta**(q**(k-2)) vanishes modulo
    u**prec, so does the domino, and t - theta**(q**(k-1)) is not built."""
    def build():
        field, prec, q = catalog.field, catalog.prec, catalog.field.q
        if k == 0:
            return USeries.one(field, prec)

        def frobenius(x, j):
            return x.truncate(-(-prec // q ** j)).frobenius(j)

        total = (_tiling_sum(catalog, k - 1) * frobenius(catalog.g, k - 1)).truncate(prec)
        if k == 1:
            return total
        domino = (_tiling_sum(catalog, k - 2) * frobenius(catalog.delta, k - 2)).truncate(prec)
        if domino.is_zero:
            return total
        return total + domino.scale(t_minus_theta_pow(field, q ** (k - 1)))

    return catalog._cached(("tiling", k), build)


def check_d2_approx(catalog, k):
    """Certify that d2 + G_k has u-adic valuation >= q**(k-1) (q-1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q = catalog.field.q
    bound = q ** (k - 1) * (q - 1)
    if catalog.prec <= bound:
        raise PrecisionError(
            f"precision {catalog.prec} cannot certify valuation >= {bound}")
    val = (catalog.d2 + g1k_shadowed(catalog, k)).val()
    return {"q": q, "k": k, "required_valuation": bound, "observed_valuation": val,
            "pass": val >= bound}
