"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every identity here is exact (tolerance zero); the only numeric bounds
are the per-criterion runtime budgets.  Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import random
import time

from drinfeldforms.fields import finite_field
from drinfeldforms.forms import FormCatalog
from drinfeldforms.identities import (check_lvals, goss_degenerate_check,
                                      lemma1_check, lemma2_check, lemma3_trials)
from drinfeldforms.polynomials import BiPoly
from drinfeldforms.serialize import canonical_json
from drinfeldforms.shadowed import check_d2_approx, partition_counts
from drinfeldforms.taurec import g_sequence, operator_l1, operator_l2, sym_det_trials
from test_taurec import lucas_binom

FIELDS = {2: finite_field(2), 3: finite_field(3),
          4: finite_field(2, 2), 5: finite_field(5)}


def report(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_golden_expansions():
    ok = True
    slowest = 0.0
    for q in (2, 3, 5):
        field = FIELDS[q]
        start = time.time()
        catalog = FormCatalog(field, 2 * q * q)
        g, h, d = catalog.g, catalog.h, catalog.delta
        ok &= g.coefficient(0) == BiPoly.one(field)
        ok &= g.coefficient(q - 1) == BiPoly(
            field, {(q, 0): field.neg(1), (1, 0): 1})
        ok &= all(g.coefficient(j).is_zero for j in range(1, q - 1))
        ok &= h.val() == 1 and h.coefficient(1) == BiPoly.one(field)
        ok &= (d + (h ** (q - 1)).truncate(catalog.prec)).is_zero
        slowest = max(slowest, time.time() - start)
    report(1, "golden expansions g, h, delta (q in {2,3,5})", ok, slowest, 5)


def test_criterion_2_d2_cross_validation():
    start = time.time()
    ok = True
    for q in (2, 3):
        field = FIELDS[q]
        prec = q ** 3 * (q - 1) + 2
        catalog = FormCatalog(field, prec)
        for k in (1, 2, 3, 4):
            ok &= check_d2_approx(catalog, k)["pass"]
        theta_minus_t = BiPoly(field, {(1, 0): 1, (0, 1): field.neg(1)})
        ok &= catalog.d2.coefficient(q - 1) == theta_minus_t
        ok &= catalog.d2.coefficient((q - 1) * (q * q - q + 1)) == theta_minus_t
    report(2, "d2 fixed point vs shadowed closed form (k <= 4)", ok,
           time.time() - start, 30)


def test_criterion_3_recurrence_annihilation():
    start = time.time()
    ok = True
    for q in (2, 3):
        catalog = FormCatalog(FIELDS[q], q ** 3)
        l1, l2 = operator_l1(catalog), operator_l2(catalog)
        ok &= l1.annihilates([catalog.d2] * 6, catalog.prec)
        ok &= l1.annihilates(g_sequence(catalog, 1, 5), catalog.prec)
        ok &= l2.annihilates(g_sequence(catalog, 2, 5), catalog.prec)
    report(3, "L1 and L2 annihilate their sequences (prec >= q^3)", ok,
           time.time() - start, 60)


def test_criterion_4_power_sum_avatars():
    start = time.time()
    ok = True
    for q in (2, 3, 4):
        field = FIELDS[q]
        for n in (1, 2, 3):
            for l in range(1, q + 1):
                ok &= lemma3_trials(field, n, l, 100, random.Random(10_000 * q + 100 * n + l))
    for q in (2, 3):
        field = FIELDS[q]
        for l in range(1, q + 1):
            for n in (1, 2, 3, 4):
                ok &= check_lvals(field, l, n)
    report(4, "brute-force power sums and truncated L-value relations", ok,
           time.time() - start, 60)


def test_criterion_5_a_expansion_powers():
    start = time.time()
    ok = True
    for q in (2, 3, 5):
        catalog = FormCatalog(FIELDS[q], q ** 3)
        for l in range(1, q + 1):
            ok &= catalog.check_ee_power(l)["equal"]
    for q in (2, 3):
        field = FIELDS[q]
        catalog = FormCatalog(field, 64 if q == 2 else 81)
        for l in range(1, q + 1):
            for nu in (1, 2, 3):
                ok &= catalog.check_f_power(l, nu)["equal"]
            ok &= catalog.f_l_nu(l, 1).first_difference(catalog.h ** l) is None
            ok &= catalog.f_l_nu(l, 2).first_difference(
                (catalog.h ** l) * (catalog.g ** (l * q))) is None
    report(5, "A-expansion power identities (EE^l and f powers)", ok,
           time.time() - start, 120)


def test_criterion_6_symmetric_power_determinant():
    start = time.time()
    ok = True
    for q in (2, 3, 5):
        rng = random.Random(500 + q)
        for l in (1, 2, 3, 4):
            ok &= sym_det_trials(FIELDS[q], l, 50, rng)
    report(6, "Sym^l determinant identity (50 random per l <= 4)", ok,
           time.time() - start, 10)


def test_criterion_7_lemma_suite():
    start = time.time()
    ok = True
    for q in (2, 3, 4, 5):
        field = FIELDS[q]
        ok &= lemma1_check(field)
        for l in range(1, q + 1):
            ok &= lemma2_check(field, l)
            ok &= goss_degenerate_check(field, l)
    for p in (2, 3, 5):
        row = [1]
        for n in range(65):
            for i in range(n + 1):
                ok &= lucas_binom(n, i, p) == row[i]
            row = [1] + [(row[i] + row[i + 1]) % p for i in range(n)] + [1]
    report(7, "character-sum lemmas and Lucas binomials", ok,
           time.time() - start, 10)


def test_criterion_8_reproducible_experiments():
    start = time.time()
    ok = True
    recorded = []
    for q in (2, 3):
        catalog = FormCatalog(FIELDS[q], 128 if q == 2 else 81)
        outcome = catalog.resolve_recursive(3)
        ok &= len(outcome["matching"]) == 1
        again = catalog.resolve_recursive(3)
        ok &= canonical_json(outcome) == canonical_json(again)
        fs_catalog = FormCatalog(FIELDS[q], q ** 3 + 3)
        rows = [fs_catalog.conjecture_fs(s) for s in range(1, q + 1)]
        rows_again = [fs_catalog.conjecture_fs(s) for s in range(1, q + 1)]
        ok &= canonical_json(rows) == canonical_json(rows_again)
        recorded.append((q, [r["equal"] for r in rows]))
    print(f"  conjecture-fs outcomes for s = 1..q (recorded): {recorded}")
    report(8, "experiments: unique recursion variant, deterministic reports",
           ok, time.time() - start, 120)


def test_criterion_9_combinatorics():
    start = time.time()
    ok = all(row_ok for _, _, row_ok in partition_counts(12))
    report(9, "shadowed partition counts match square-domino tilings", ok,
           time.time() - start, 5)
