import contextlib
import io
import tracemalloc
from itertools import chain, combinations

import pytest

from drinfeldforms import cli
from drinfeldforms.errors import PrecisionError
from drinfeldforms.fields import finite_field
from drinfeldforms.forms import FormCatalog, t_minus_theta_pow
from drinfeldforms.series import USeries
from drinfeldforms import shadowed
from drinfeldforms.shadowed import (check_d2_approx, enumerate_shadowed,
                                    g1k_shadowed, is_shadowed_partition,
                                    partition_counts)

F2 = finite_field(2)
F3 = finite_field(3)


def subsets(universe):
    return chain.from_iterable(combinations(universe, k)
                               for k in range(len(universe) + 1))


def brute_force_partitions(r, n):
    """Independent oracle: filter every r-tuple of subsets by the invariant."""
    found = set()
    universe = list(range(n))
    pools = [list(subsets(universe)) for _ in range(r)]

    def rec(i, chosen):
        if i == r:
            parts = tuple(frozenset(s) for s in chosen)
            if is_shadowed_partition(parts, n):
                found.add(parts)
            return
        for s in pools[i]:
            rec(i + 1, chosen + [s])

    rec(0, [])
    return found


def tiling_counts(n_max):
    # squares-and-dominoes count: t(0) = t(1) = 1, t(n) = t(n-1) + t(n-2)
    counts = [1, 1]
    while len(counts) <= n_max:
        counts.append(counts[-1] + counts[-2])
    return counts


# -- enumeration ---------------------------------------------------------------


def test_p2_of_one():
    assert enumerate_shadowed(2, 1) == [(frozenset({0}), frozenset())]


def test_p2_of_two():
    assert set(enumerate_shadowed(2, 2)) == {
        (frozenset({0, 1}), frozenset()),
        (frozenset(), frozenset({0})),
    }


def test_p2_counts_match_tilings():
    counts = tiling_counts(12)
    for n in range(13):
        assert len(enumerate_shadowed(2, n)) == counts[n]


def test_partition_counts(monkeypatch):
    rows = partition_counts(12)
    assert [(n, count) for n, count, _ in rows] == list(enumerate(tiling_counts(12)))
    assert all(ok for _, _, ok in rows)
    with pytest.raises(ValueError):
        partition_counts(-1)
    # one partition short of the tiling count at n = 3
    monkeypatch.setattr(shadowed, "enumerate_shadowed",
                        lambda r, n: enumerate_shadowed(r, n)[:-1] if n == 3 else
                        enumerate_shadowed(r, n))
    assert [ok for _, _, ok in partition_counts(4)] == [True, True, True, False, True]


def test_every_tuple_satisfies_invariant():
    for n in range(9):
        for parts in enumerate_shadowed(2, n):
            assert is_shadowed_partition(parts, n)
    for n in range(7):
        for parts in enumerate_shadowed(3, n):
            assert is_shadowed_partition(parts, n)


@pytest.mark.parametrize("r,n", [(2, 5), (2, 6), (3, 5), (3, 6)])
def test_enumeration_matches_brute_force(r, n):
    assert set(enumerate_shadowed(r, n)) == brute_force_partitions(r, n)


def test_enumeration_is_deterministic_and_duplicate_free():
    first = enumerate_shadowed(2, 8)
    assert first == enumerate_shadowed(2, 8)
    assert len(first) == len(set(first))


def test_invariant_rejects_bad_tuples():
    assert not is_shadowed_partition((frozenset({0}), frozenset({0})), 2)
    assert not is_shadowed_partition((frozenset(), frozenset({1})), 2)
    assert not is_shadowed_partition((frozenset({0}), frozenset()), 2)


# -- closed-form sequence entries ------------------------------------------------


@pytest.fixture(scope="module")
def cat3():
    return FormCatalog(F3, 40)


def test_g1k_seeds(cat3):
    from drinfeldforms.polynomials import BiPoly
    field = cat3.field
    minus_one = g1k_shadowed(cat3, 0)
    assert minus_one.coefficient(0) == BiPoly.scalar(field, field.neg(1))
    assert len(minus_one.coeffs) == 1
    assert (g1k_shadowed(cat3, 1) + cat3.g).is_zero


def test_g1k_second_entry(cat3):
    q = cat3.field.q
    expected = -((cat3.g ** (q + 1)).truncate(cat3.prec)
                 + cat3.delta.scale(t_minus_theta_pow(cat3.field, q)))
    assert g1k_shadowed(cat3, 2) == expected


def partition_sum(cat, k):
    """-sum over (S_1, S_2) of prod_{j in S_1} g**(q**j) *
    prod_{i in S_2} (t - theta**(q**(i+1))) delta**(q**i): one product per
    order-2 shadowed partition of k."""
    field, prec, q = cat.field, cat.prec, cat.field.q
    total = USeries.zero(field, prec)
    for s1, s2 in enumerate_shadowed(2, k):
        term = USeries.one(field, prec)
        for j in sorted(s1):
            term = (term * cat.g.frobenius(j)).truncate(prec)
        for i in sorted(s2):
            term = (term * cat.delta.frobenius(i)).truncate(prec)
            term = term.scale(t_minus_theta_pow(field, q ** (i + 1)))
        total = total + term
    return -total


@pytest.mark.parametrize("field", [F2, F3])
def test_g1k_is_the_sum_over_partitions(field):
    cat = FormCatalog(field, 30)
    for k in range(7):
        assert g1k_shadowed(cat, k) == partition_sum(cat, k)
    # the sums are shared: a fresh catalog asked for G_6 alone agrees too
    assert g1k_shadowed(FormCatalog(field, 30), 6) == partition_sum(cat, 6)


@pytest.mark.parametrize("field", [F2, F3])
def test_g1k_matches_recurrence(field):
    # two independent groupings of the partitions: g1k_shadowed splits off
    # the last tile and twists g and delta; the recurrence splits off the
    # first tile and twists the rest by tau
    cat = FormCatalog(field, 30)
    q, prec = field.q, cat.prec
    seq = {0: g1k_shadowed(cat, 0), 1: g1k_shadowed(cat, 1)}
    scaled_delta = cat.delta.scale(t_minus_theta_pow(field, q))
    for k in range(2, 6):
        rec = (cat.g * seq[k - 1].tau(1) + scaled_delta * seq[k - 2].tau(2))
        rec = rec.truncate(prec)
        direct = g1k_shadowed(cat, k)
        assert direct == rec
        seq[k] = direct


def test_deep_sequence_entries_stay_small():
    # G_k needs g**(q**(k-1)) and delta**(q**(k-2)) only modulo u**prec, so
    # no theta-degree near q**k is built: k = 20 stays within a few MB
    # (whole Frobenius images peak above 60 MB there) and k = 60 completes
    argv = "check --identity recurrence-l1 --p 2 --uprec 16 --k {}"

    def run(k):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv.format(k).split())

    tracemalloc.start()
    try:
        code = run(20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2 ** 20, peak
    assert run(60) == 0


# -- approximation of d2 --------------------------------------------------------------


@pytest.mark.parametrize("field", [F2, F3])
def test_check_d2_approx(field):
    q = field.q
    prec = q * q * (q - 1) + 4
    cat = FormCatalog(field, prec)
    for k in (1, 2, 3):
        report = check_d2_approx(cat, k)
        assert report["pass"], report
        assert report["required_valuation"] == q ** (k - 1) * (q - 1)


def test_check_d2_approx_k3_q2_beyond_16():
    cat = FormCatalog(F2, 17)
    report = check_d2_approx(cat, 3)
    assert report["pass"]
    assert report["observed_valuation"] >= 4


def test_d2_shadowed_is_negated_entry():
    # the order-k approximation of d2 is -G_k, which agrees with d2
    # modulo u**(q**(k-1) (q-1))
    cat = FormCatalog(F2, 12)
    approx = -g1k_shadowed(cat, 2)
    assert (approx + g1k_shadowed(cat, 2)).is_zero
    assert (cat.d2 - approx).val() >= 2


def test_check_d2_approx_needs_precision():
    cat = FormCatalog(F3, 10)
    with pytest.raises(PrecisionError):
        check_d2_approx(cat, 3)
    with pytest.raises(ValueError):
        check_d2_approx(cat, 0)
