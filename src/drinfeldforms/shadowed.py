"""Index-shadowed partitions and the closed-form approximations of d2.

An order-r shadowed partition of n is a tuple (S_1, ..., S_r) of subsets
of {0, ..., n-1} whose shifted copies S_i + j (0 <= j < i) tile
{0, ..., n-1}: an element of S_i is the left endpoint of a length-i
tile.  For r = 2 the count is the Fibonacci-style square/domino number.

The sum of one product per tile pattern,

    G_k = - sum over (S_1, S_2) of
            prod_{j in S_1} g**(q**j) *
            prod_{i in S_2} (t - theta**(q**(i+1))) delta**(q**i),

is summed by grouping the patterns by their last tile (g1k_shadowed).
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
    del place  # it refers to itself: free `results` with the caller's reference
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
    """The closed-form sequence entry G_k, cached on the catalog.

    G_k is minus the sum over the order-2 partitions of k of the products
    of their tiles.  Grouped by the last tile, a square at k - 1 or a
    domino at k - 2,

        G_k = G_(k-1) g**(q**(k-1)) + G_(k-2) delta**(q**(k-2)) (t - theta**(q**(k-1))),

    from G_0 = -1 (empty tiling) and G_1 = -g, so each G_k costs two series
    products; G_2 = -g**(q+1) - (t - theta**q) delta.  pow takes each
    Frobenius image x**(q**j) from x modulo u**ceil(prec / q**j), so
    theta-degrees stay below prec * deg x, not q**j.  Once
    delta**(q**(k-2)) vanishes modulo u**prec, so does the domino, and
    t - theta**(q**(k-1)) is not built."""
    if k < 0:
        raise ValueError("k must be >= 0")

    def build():
        field, prec, q = catalog.field, catalog.prec, catalog.field.q
        if k < 2:
            return -(catalog.g if k else USeries.one(field, prec))
        total = g1k_shadowed(catalog, k - 1) * pow(catalog.g, q ** (k - 1), prec)
        domino = g1k_shadowed(catalog, k - 2) * pow(catalog.delta, q ** (k - 2), prec)
        if domino.is_zero:
            return total
        return total + domino.scale(t_minus_theta_pow(field, q ** (k - 1)))

    return catalog._cached(("G", k), build)


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
