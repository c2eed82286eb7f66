import tracemalloc

import pytest

from drinfeldforms.errors import ResourceLimitError
from drinfeldforms.fields import (MAX_ORDER, FiniteField, canonical_modulus,
                                  extension_field, finite_field, is_prime)

SMALL_SPECS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]

# every field with q <= 256, plus F_9 on the non-canonical modulus x^2 + x + 2
UP_TO_256 = [(p, e, None) for p in range(2, 257) if is_prime(p)
             for e in range(1, 9) if p ** e <= 256] + [(3, 2, (2, 1, 1))]


def test_canonical_moduli_table_is_irreducible():
    # every field of size p**e <= 81 must construct cleanly
    for p in (2, 3, 5, 7, 11, 13):
        e = 1
        while p ** e <= 81:
            field = finite_field(p, e)
            assert field.q == p ** e
            assert len(field.modulus) == e + 1 and field.modulus[-1] == 1
            e += 1


def test_known_small_moduli():
    assert finite_field(2, 2).modulus == (1, 1, 1)      # x^2 + x + 1
    assert finite_field(2, 3).modulus == (1, 1, 0, 1)   # x^3 + x + 1
    assert finite_field(3, 2).modulus == (1, 0, 1)      # x^2 + 1
    assert finite_field(2, 1).modulus == (0, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FiniteField(2, 2, (0, 0, 1))   # x^2
    with pytest.raises(ValueError):
        FiniteField(3, 2, (2, 0, 1))   # x^2 - 1 = (x-1)(x+1)
    with pytest.raises(ValueError):
        FiniteField(4, 1)              # characteristic not prime


@pytest.mark.parametrize("p,e", SMALL_SPECS)
def test_field_axioms_exhaustive(p, e):
    f = finite_field(p, e)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_inverses_exhaustive_up_to_81():
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79]
    for p in primes:
        e = 1
        while p ** e <= 81:
            f = finite_field(p, e)
            for a in range(1, f.q):
                assert f.mul(a, f.inv(a)) == 1
            e += 1


@pytest.mark.parametrize("p,e", SMALL_SPECS + [(3, 2)])
def test_frobenius_is_identity_on_fq(p, e):
    f = finite_field(p, e)
    for a in f.elements():
        assert f.pow(a, f.q) == a


def test_characteristic():
    for p, e in SMALL_SPECS:
        f = finite_field(p, e)
        for a in f.elements():
            acc = 0
            for _ in range(p):
                acc = f.add(acc, a)
            assert acc == 0


def test_digit_round_trip():
    f = finite_field(3, 2)
    for a in f.elements():
        assert f.from_digits(f.digits(a)) == a
    assert f.digits(0) == (0, 0)
    assert f.digits(1) == (1, 0)


def test_pow_edge_cases():
    f = finite_field(3, 2)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    for a in range(1, f.q):
        assert f.pow(a, -1) == f.inv(a)


def test_interning():
    assert finite_field(3) is finite_field(3)
    assert finite_field(2, 2) is finite_field(2, 2, (1, 1, 1))


@pytest.mark.parametrize("p,e,m", [(2, 1, 4), (3, 1, 2), (2, 2, 2), (3, 1, 4)])
def test_extension_embedding_is_homomorphism(p, e, m):
    base = finite_field(p, e)
    ext, embed = extension_field(base, m)
    assert ext.q == base.q ** m
    assert embed[0] == 0 and embed[1] == 1
    for a in base.elements():
        for b in base.elements():
            assert embed[base.add(a, b)] == ext.add(embed[a], embed[b])
            assert embed[base.mul(a, b)] == ext.mul(embed[a], embed[b])
    assert len(set(embed)) == base.q


def test_canonical_modulus_deterministic():
    assert canonical_modulus(3, 3) == canonical_modulus(3, 3)
    # degree-3 over F_3: x^3 + 2x + 1 is the first irreducible in encoding order
    assert canonical_modulus(3, 3) == (1, 2, 0, 1)


# -- element arithmetic against the digit reference --------------------------------


def ref_pow(field, a, k):
    """a**k by square-and-multiply on field.mul (checked against _raw_mul first)."""
    out = 1
    while k:
        if k & 1:
            out = field.mul(out, a)
        a = field.mul(a, a)
        k >>= 1
    return out


@pytest.mark.parametrize("p,e,modulus", UP_TO_256,
                         ids=[f"{p}^{e}" + ("m" if m else "") for p, e, m in UP_TO_256])
def test_element_arithmetic_exhaustive(p, e, modulus):
    # add, sub and neg digit by digit; mul by polynomial multiplication
    # modulo the defining polynomial (_raw_mul); inv and pow through mul
    f = FiniteField(p, e, modulus)
    q = f.q
    elems = list(f.elements())
    weights = [p ** k for k in range(e)]
    digits = [f.digits(a) for a in elems]

    def encode(ds):
        return sum(d % p * w for d, w in zip(ds, weights))

    for a, da in zip(elems, digits):
        if e == 1:
            # one digit: the digit reference is arithmetic mod p
            ref_add = [(a + b) % p for b in elems]
            ref_sub = [(a - b) % p for b in elems]
            ref_mul = [a * b % p for b in elems]
        else:
            ref_add = [encode([x + y for x, y in zip(da, db)]) for db in digits]
            ref_sub = [encode([x - y for x, y in zip(da, db)]) for db in digits]
            ref_mul = [f._raw_mul(a, b) for b in elems]
        assert [f.add(a, b) for b in elems] == ref_add
        assert [f.add(a, f.neg(b)) for b in elems] == ref_sub
        assert [f.mul(a, b) for b in elems] == ref_mul
        assert f.neg(a) == encode([-x for x in da])
    for a in elems[1:]:
        assert f._raw_mul(a, f.inv(a)) == 1
        for k in (0, 1, 2, 3, q - 2, q - 1, q, q + 1, 10 ** 6 + 3):
            assert f.pow(a, k) == ref_pow(f, a, k)
        assert f.pow(a, -1) == f.inv(a)
        assert f.pow(a, -5) == ref_pow(f, f.inv(a), 5)
    assert f.pow(0, 0) == 1 and f.pow(0, 3) == 0


# -- size limits -------------------------------------------------------------------------------


def assert_rejected_without_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="too large"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the exception and its message, nothing of size q
    assert peak < 64 * 1024


@pytest.mark.parametrize("build", [
    lambda: finite_field(2, 10 ** 12),
    lambda: finite_field(2, 17),
    lambda: finite_field(257, 2),
    lambda: FiniteField(65537),
    lambda: FiniteField(10 ** 30 + 57, 1),
    lambda: canonical_modulus(3, 11),
], ids=["2^1e12", "2^17", "257^2", "65537", "huge-p", "modulus-3^11"])
def test_oversized_field_is_rejected_before_allocating(build):
    assert_rejected_without_allocating(build)


def test_oversized_extension_is_rejected_before_allocating():
    base = finite_field(101, 2)
    assert_rejected_without_allocating(lambda: extension_field(base, 4))


def test_largest_accepted_order():
    assert MAX_ORDER == 2 ** 16
    f = finite_field(65521)   # the largest prime below the bound
    assert f.mul(f.inv(12345), 12345) == 1


@pytest.mark.parametrize("p,e", [(5, 4), (2, 8)])
def test_table_memory_is_linear_in_q(p, e):
    # a q x q table of pointers alone would take 8 q**2 bytes (3 MB at q = 625)
    canonical_modulus(p, e)
    tracemalloc.start()
    try:
        f = FiniteField(p, e)
        f.add(2, 3), f.mul(2, 3), f.add(2, f.neg(3)), f.inv(2), f.pow(2, 3), f.neg(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * f.q
