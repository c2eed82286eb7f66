"""Operation-count budgets for benchmark commands.

Counts of kernel calls and restrides do not depend on the machine or its
load, so a rise above the committed budget is a regression in the work a
command does, caught without timing anything.  Each budget is the count
measured when it was set; lower it when a change does less work.
"""

import contextlib
import io

import pytest

from drinfeldforms import cli, forms, polynomials, series
from drinfeldforms.fields import finite_field
from drinfeldforms.polynomials import BiPoly
from drinfeldforms.series import USeries


def count_operations(monkeypatch, argv):
    # the phi_{theta**k} chain is cached per process: build it afresh, so
    # that the counts do not depend on which tests ran before
    series._phi_theta_power.cache_clear()
    counts = {"kernel_calls": 0, "restrides": 0, "u_c_builds": 0}
    kernel, restride = polynomials._product_sum, polynomials._restride
    u_c_expansion = forms.u_c_expansion

    def counted_kernel(*args):
        counts["kernel_calls"] += 1
        return kernel(*args)

    def counted_restride(*args):
        counts["restrides"] += 1
        return restride(*args)

    def counted_u_c(*args):
        counts["u_c_builds"] += 1
        return u_c_expansion(*args)

    monkeypatch.setattr(polynomials, "_product_sum", counted_kernel)
    monkeypatch.setattr(polynomials, "_restride", counted_restride)
    monkeypatch.setattr(forms, "u_c_expansion", counted_u_c)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv.split())
    return code, counts


def test_sym_det_stays_within_its_count_budget(monkeypatch):
    # the benchmark's check-symdet-q3-l1to6 at seed 1
    code, counts = count_operations(monkeypatch,
                                    "check --identity sym-det --p 3 --l 1..6 --seed 1")
    assert code == 0
    assert counts["kernel_calls"] <= 18000, counts
    assert counts["restrides"] <= 23472, counts


@pytest.mark.parametrize("argv, kernel_calls, restrides", [
    ("expand --form d2 --p 3 --uprec 243", 1179, 1047),
    ("expand --form EE --p 3 --uprec 243", 458, 1096),
    ("check --identity recurrence-l1 --p 2 --uprec 32", 1169, 2107),
    ("experiment --name resolve-recursive --nu 3 --p 2 --uprec 128", 4882, 0),
    ("check --identity lvals --n 5 --p 3", 1342, 489),
    ("check --identity recurrence-l2 --p 3 --uprec 27", 425, 351),
    ("expand --form f --l 2 --nu 2 --p 3 --uprec 243", 578, 0),
    ("check --identity lemma2", 41, 24),
])
def test_series_command_stays_within_its_count_budget(monkeypatch, argv, kernel_calls,
                                                      restrides):
    code, counts = count_operations(monkeypatch, argv)
    assert code == 0
    assert counts["kernel_calls"] <= kernel_calls, counts
    assert counts["restrides"] <= restrides, counts


def test_resolve_recursive_at_q2_builds_no_u_c(monkeypatch):
    # f_{1, nu} is summed in closed form and f_{2, nu} is its square, a
    # Frobenius image, so no sum divides once per monic c
    code, counts = count_operations(
        monkeypatch, "experiment --name resolve-recursive --nu 3 --p 2 --uprec 128")
    assert code == 0
    assert counts["u_c_builds"] == 0, counts


def test_f_l_nu_between_1_and_q_builds_no_u_c(monkeypatch):
    # f_{2, nu} over F_3 is f_{1, nu}**2, whose base is summed in closed form
    code, counts = count_operations(monkeypatch, "expand --form f --l 2 --nu 2 --p 3 --uprec 243")
    assert code == 0
    assert counts["u_c_builds"] == 0, counts


def test_series_products_reach_the_patched_kernel(monkeypatch):
    # USeries.__mul__ calls the kernel through its module, so patching the
    # one name polynomials._product_sum counts series products too
    field = finite_field(3)
    x = USeries(field, 4, {0: BiPoly.one(field), 1: BiPoly(field, {(1, 1): 2})})
    calls = []
    kernel = polynomials._product_sum

    def counted_kernel(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(polynomials, "_product_sum", counted_kernel)
    assert x * x == USeries(field, 4, {0: BiPoly.one(field), 1: BiPoly(field, {(1, 1): 1}),
                                       2: BiPoly(field, {(2, 2): 1})})
    assert len(calls) == 3
