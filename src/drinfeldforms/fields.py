"""Arithmetic in small finite fields F_q, q = p**e.

Elements are plain ints in range(q) encoding little-endian base-p digit
vectors: the int sum(c_i * p**i) stands for the residue class
sum(c_i * x**i) modulo the defining polynomial.  With this encoding 0
and 1 are always the additive and multiplicative identities, integer
scalars k embed as k % p, and the natural int order is a canonical
enumeration of the field.

Element arithmetic runs on three O(q) tables built with the field, from
the first generator g of the multiplicative group (Zech logarithms):

  exp[i]  = g**i for 0 <= i < 2(q-1), doubled so that a product
            exp[log a + log b] needs no modulo;
  log[a]  = the i < q-1 with g**i == a, for a != 0;
  zech[i] = log(1 + g**i), or None when 1 + g**i == 0,

so that a + b = g**(log a + zech[log b - log a]) (a negative index wraps
around, which is exactly the difference mod q-1), -a = a * g**((q-1)/2)
for odd q, and inverses and powers are exponent arithmetic.  Nothing of
size q*q is ever built.  The tables hold about 4q list slots, so a field
is rejected up front, with ResourceLimitError, when q > MAX_ORDER = 2**16:
that check comes before the defining polynomial is searched for or any
table is built, and allocates nothing.

The polynomial layer above works on whole vectors of elements at once,
packed into Python ints by the field's _SlotPacking (FiniteField.packing):

  - slot k of a plane is bits [k*W, (k+1)*W); the slot width W is one of
    8, 16, 32, 64 and depends only on p and e (see _SlotPacking);
  - an element is split into its e base-p digits, and digit k of every
    slot lives in plane k, so a vector is a tuple of e ints;
  - a stored plane is reduced: every slot holds a digit in range(p).

Adding or multiplying packed ints adds or convolves the slots all at once,
as long as no slot carries into the next.  The no-carry invariant: a raw
(unreduced) accumulation keeps an upper bound on its slot values, and is
reduced before that bound would pass _SlotPacking.limit.  One product of
two reduced vectors raises the bound by at most weight * m, where
weight = (p-1)**2 and m is the smaller of the operands' counts of nonzero
digits over all planes (a popcount bounds it): a slot of output plane
k + l gets one digit product per nonzero digit in plane k of either
operand, and distinct k pair with distinct l.  A product too large for
one accumulation is split into chunks of the first operand, each of
room // (weight * e) slots per plane (room = limit - (p-1), what is left
after a reduction), so a chunk holds at most e times that many nonzero
digits and raises the bound by at most room.
Folding the planes of degree >= e by the modulus then raises the bound by
the factor 1 + (e-1)(p-1), and limit times that factor is still a value
that reduction mod p takes in one slot.

The defining polynomial defaults to the first monic irreducible of
degree e in increasing integer encoding; construction always verifies
irreducibility (no roots in F_p, plus trial division by every monic
polynomial of degree <= e // 2).
"""

import operator
import sys
from functools import lru_cache
from itertools import product

from .errors import ResourceLimitError


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n):
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over F_p on little-endian coefficient tuples --------

def _fp_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _fp_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = (out[i + j] + ca * cb) % p
    return _fp_trim(out)


def _fp_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, cm in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * cm) % p
        a.pop()
    return _fp_trim(a)


def _fp_is_irreducible(m, p):
    e = len(m) - 1
    if e < 1:
        return False
    if e == 1:
        return True
    # no roots in F_p
    for x in range(p):
        acc = 0
        for c in reversed(m):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    # trial division by every monic polynomial of degree 2 .. e // 2
    for d in range(2, e // 2 + 1):
        for lows in product(range(p), repeat=d):
            if not _fp_mod(m, lows + (1,), p):
                return False
    return True


# Largest field order accepted: the element tables take about 4q list slots.
MAX_ORDER = 1 << 16


def _check_order(p, e):
    """Reject F_{p**e} when q = p**e > MAX_ORDER, before anything is allocated."""
    # p**e >= 2**e: a large e is rejected before any power is computed
    if p >= 2 and e >= 1 and (e >= MAX_ORDER.bit_length() or p ** e > MAX_ORDER):
        raise ResourceLimitError(
            f"the field F_{p}^{e} is too large: at most {MAX_ORDER} elements are supported")


@lru_cache(maxsize=None)
def canonical_modulus(p, e):
    """First monic irreducible of degree e over F_p, in integer-encoding order."""
    _check_order(p, e)
    for k in range(p ** e):
        lows = []
        v = k
        for _ in range(e):
            lows.append(v % p)
            v //= p
        m = tuple(lows) + (1,)
        if _fp_is_irreducible(m, p):
            return m
    raise ValueError(f"no irreducible polynomial of degree {e} over F_{p}")


class FiniteField:
    """The field F_q, q = p**e, with elements encoded as ints in range(q)."""

    def __init__(self, p, e=1, modulus=None):
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        _check_order(p, e)
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if modulus is None:
            modulus = canonical_modulus(p, e)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree e")
        if not _fp_is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.e = e
        self.q = p ** e
        self.modulus = modulus
        self._packing = None
        self._build_logs()

    # -- table construction --------------------------------------------------

    def _digits_of(self, a):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def _raw_mul(self, a, b):
        prod_ = _fp_mul(self._digits_of(a), self._digits_of(b), self.p)
        red = _fp_mod(prod_, self.modulus, self.p)
        return sum(c * self.p ** i for i, c in enumerate(red))

    def _powers(self, g):
        """[g**i for i < q - 1]: each step is the F_p-linear map x -> g * x
        on digit vectors."""
        p, n = self.p, self.q - 1
        out = [1] * n
        if self.e == 1:
            for i in range(1, n):
                out[i] = out[i - 1] * g % p
            return out
        powers = [p ** k for k in range(self.e)]
        # rows[j][k]: digit j of g * x**k
        rows = list(zip(*(self._digits_of(self._raw_mul(g, pw)) for pw in powers)))
        digits = self._digits_of(1)
        for i in range(1, n):
            digits = [sum(map(operator.mul, row, digits)) % p for row in rows]
            out[i] = sum(map(operator.mul, digits, powers))
        return out

    def _raw_pow(self, g, k):
        out = 1
        while k:
            if k & 1:
                out = self._raw_mul(out, g)
            g = self._raw_mul(g, g)
            k >>= 1
        return out

    def _build_logs(self):
        """The exp (doubled), log and zech tables, from the first generator."""
        p, q, n = self.p, self.q, self.q - 1
        # g generates when g**(n/r) != 1 for every prime r | n
        factors = _prime_factors(n)
        exp = self._powers(next(g for g in range(1, q)
                                if all(self._raw_pow(g, n // r) != 1 for r in factors)))
        log = [None] * q
        for i, v in enumerate(exp):
            log[v] = i
        zech = [None] * n
        for i, v in enumerate(exp):
            # 1 + v adds one to digit 0
            w = v + 1 if v % p != p - 1 else v - (p - 1)
            if w:
                zech[i] = log[w]
        self._exp = exp + exp
        self._log = log
        self._zech = zech
        # log(-1): -1 == 1 in characteristic 2
        self._half = n // 2 if p != 2 else 0

    @property
    def packing(self):
        """The slot packing of vectors over this field, built on first use."""
        if self._packing is None:
            self._packing = _SlotPacking(self)
        return self._packing

    # -- element operations --------------------------------------------------

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = self._zech[log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def neg(self, a):
        return self._exp[self._log[a] + self._half] if a else 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a, k):
        if a == 0:
            if k > 0:
                return 0
            if k == 0:
                return 1
            raise ZeroDivisionError("negative power of zero field element")
        return self._exp[self._log[a] * k % (self.q - 1)]

    def scalar(self, k):
        """Embed the integer k via the prime subfield."""
        return k % self.p

    def elements(self):
        return range(self.q)

    def digits(self, a):
        """Little-endian base-p digit vector of an element."""
        if not 0 <= a < self.q:
            raise ValueError("element out of range")
        return self._digits_of(a)

    def from_digits(self, digits):
        if len(digits) != self.e:
            raise ValueError("digit vector has wrong length")
        return sum((int(d) % self.p) * self.p ** i for i, d in enumerate(digits))

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.e}"


# A slot must take the products of this many pairs of nonzero digits
# between two reductions; the slot width is the narrowest that allows it.
_MIN_PAIRS = 64
_SLOT_BITS = (8, 16, 32, 64)


class _SlotPacking:
    """Packed vectors over one field: slot width, no-carry bounds, reduction.

    Reduction mod p works on all slots at once.  For p == 2 it keeps the low
    bit of each slot (one AND with a mask).  For odd p it splits the slots
    into even and odd ones, so that each sits in a 2W-bit lane, and takes
    v - p * floor(v * m / 2**s) per lane, where m = ceil(2**s / p) and
    s = W - 1 + p.bit_length(): exact for every v < 2**(W-1), and v * m
    stays inside its lane.  The masks are built on demand and grow by
    doubling.
    """

    def __init__(self, field):
        p, e = field.p, field.e
        self.p, self.e = p, e
        self.powers = tuple(p ** k for k in range(e))
        # x**m mod the modulus for e <= m <= 2e - 2, as digit vectors
        fold, r = [], [0] * (e - 1) + [1]
        for _ in range(e - 1):
            top = r[-1]
            r = [(a - top * c) % p for a, c in zip([0] + r[:-1], field.modulus)]
            fold.append(tuple(r))
        self.fold = tuple(fold)
        self.weight = (p - 1) ** 2
        growth = 1 + (e - 1) * (p - 1)
        for bits in _SLOT_BITS:
            cap = (1 << bits) - 1 if p == 2 else (1 << (bits - 1)) - 1
            if (self.weight * _MIN_PAIRS + p - 1) * growth <= cap:
                break
        else:
            raise ValueError(f"F_{p}^{e} is too large for the packed coefficient kernel")
        self.bits = bits
        self.nbytes = bits // 8
        self.limit = cap // growth
        # imported on first use rather than with the package, whose import
        # and field set-up build nothing for the packed kernel
        from array import array
        self._array = array
        self.typecode = next(c for c in "BHILQ" if array(c).itemsize == self.nbytes)
        self._shift = bits - 1 + p.bit_length()
        self._magic = -(-(1 << self._shift) // p)
        self._mask_bits = 0
        self._low = self._even = self._quot = 0

    def _grow_masks(self, nbits):
        n = max(nbits, 2 * self._mask_bits, 1024) // (2 * self.bits) + 1
        zero = bytes(self.nbytes)
        if self.p == 2:
            one = (1).to_bytes(self.nbytes, "little")
            self._low = int.from_bytes((one + one) * n, "little")
        else:
            full = b"\xff" * self.nbytes
            # the quotient bits of a lane, below what the next lane shifts in
            quot = ((1 << (2 * self.bits - self._shift)) - 1).to_bytes(self.nbytes, "little")
            self._even = int.from_bytes((full + zero) * n, "little")
            self._quot = int.from_bytes((quot + zero) * n, "little")
        self._mask_bits = 2 * self.bits * n

    def mod(self, x):
        """x with each slot reduced mod p; slots of x must stay below the cap."""
        if x.bit_length() > self._mask_bits:
            self._grow_masks(x.bit_length())
        if self.p == 2:
            return x & self._low
        w, p, m, s = self.bits, self.p, self._magic, self._shift
        even, quot = self._even, self._quot
        lo = x & even
        hi = (x >> w) & even
        lo -= ((lo * m >> s) & quot) * p
        hi -= ((hi * m >> s) & quot) * p
        return lo | (hi << w)

    def reduce(self, raw):
        """Reduced planes of a raw accumulation of 2e - 1 planes whose slots
        are bounded by limit: fold the planes of degree >= e by the modulus,
        then reduce mod p."""
        low = list(raw[:self.e])
        for row, x in zip(self.fold, raw[self.e:]):
            if x:
                for i, c in enumerate(row):
                    if c:
                        low[i] += c * x
        return tuple(map(self.mod, low))

    def pack(self, values):
        """Planes holding the elements values[k] in slot k."""
        planes = []
        for pw in self.powers:
            digits = self._array(self.typecode, [v // pw % self.p for v in values])
            if sys.byteorder != "little":
                digits.byteswap()
            planes.append(int.from_bytes(digits.tobytes(), "little"))
        return tuple(planes)

    def slot_values(self, x, slots):
        """Slots 0 .. slots - 1 of one plane (the digits it holds), as an array."""
        digits = self._array(self.typecode)
        digits.frombytes(x.to_bytes(slots * self.nbytes, "little"))
        if sys.byteorder != "little":
            digits.byteswap()
        return digits

    def unpack(self, planes, slots):
        """The elements in slots 0 .. slots - 1 of the planes."""
        values = None
        for pw, x in zip(self.powers, planes):
            digits = self.slot_values(x, slots)
            if values is None:
                values = digits
            else:
                values = [v + d * pw for v, d in zip(values, digits)]
        return values


@lru_cache(maxsize=None)
def _cached_field(p, e, modulus):
    return FiniteField(p, e, modulus)


def finite_field(p, e=1, modulus=None):
    """Interned constructor for F_{p**e}; equal parameters share one instance."""
    if modulus is None:
        modulus = canonical_modulus(p, e)
    return _cached_field(p, e, tuple(int(c) % p for c in modulus))


@lru_cache(maxsize=None)
def _extension_data(p, e, modulus, m):
    base = _cached_field(p, e, modulus)
    ext = finite_field(p, e * m)
    # smallest root of the base modulus inside the big field
    root = None
    for x in ext.elements():
        acc = 0
        for c in reversed(base.modulus):
            acc = ext.add(ext.mul(acc, x), ext.scalar(c))
        if acc == 0:
            root = x
            break
    if root is None:
        raise RuntimeError("base modulus has no root in the extension")
    embed = []
    for a in base.elements():
        img, xp = 0, 1
        for d in base.digits(a):
            img = ext.add(img, ext.mul(ext.scalar(d), xp))
            xp = ext.mul(xp, root)
        embed.append(img)
    return ext, tuple(embed)


def extension_field(base, m):
    """Return (F_{q**m}, embedding table) for a degree-m extension of base.

    The embedding table maps each base element (as int) to its image in
    the extension, through the smallest root of the base modulus.
    """
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    return _extension_data(base.p, base.e, base.modulus, m)
