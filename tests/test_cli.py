import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

from drinfeldforms import cli, identities
from drinfeldforms.cli import CHECKS, EXPERIMENTS, FORMS, HANDLERS, build_parser, main
from drinfeldforms.forms import FormCatalog
from drinfeldforms.polynomials import BiPoly
from drinfeldforms.series import USeries


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


# -- expand -----------------------------------------------------------------------


def test_expand_h_leading_term(capsys):
    code, obj = run_json(capsys, "expand", "--form", "h", "--p", "3", "--e", "1",
                         "--uprec", "30")
    assert code == 0
    first = obj["result"]["terms"][0]
    assert first[0] == 1
    assert first[1]["monomials"] == [[0, 0, [1]]]


def test_expand_d2_q2_u1_coefficient(capsys):
    code, obj = run_json(capsys, "expand", "--form", "d2", "--p", "2", "--e", "1",
                         "--uprec", "8")
    assert code == 0
    terms = dict((n, poly) for n, poly in obj["result"]["terms"])
    # theta + t in characteristic 2
    assert terms[1]["monomials"] == [[0, 1, [1]], [1, 0, [1]]]


def test_expand_g_precision_one(capsys):
    code, obj = run_json(capsys, "expand", "--form", "g", "--p", "3",
                         "--uprec", "1")
    assert code == 0
    assert obj["result"]["terms"] == [[0, {"e": 1, "monomials": [[0, 0, [1]]], "p": 3}]]


def test_expand_f_requires_l_and_nu(capsys):
    code, _ = run_cli(capsys, "expand", "--form", "f", "--p", "3", "--uprec", "10")
    assert code == 2
    code, obj = run_json(capsys, "expand", "--form", "f", "--p", "3",
                         "--uprec", "12", "--l", "2", "--nu", "1")
    assert code == 0
    assert obj["header"]["l"] == 2


def test_expand_unknown_form_is_usage_error(capsys):
    assert main(["expand", "--form", "bogus", "--p", "2"]) == 2


def test_expand_out_of_range_l_is_usage_error(capsys):
    code, _ = run_cli(capsys, "expand", "--form", "f", "--p", "2",
                      "--uprec", "8", "--l", "5", "--nu", "1")
    assert code == 2


def test_expand_precision_underflow_exit(capsys):
    code, _ = run_cli(capsys, "expand", "--form", "g", "--p", "3", "--uprec", "0")
    assert code == 3


def test_tcap_enforced(capsys):
    code, _ = run_cli(capsys, "expand", "--form", "EE", "--p", "3",
                      "--uprec", "30", "--tcap", "0")
    assert code == 3
    code, _ = run_cli(capsys, "expand", "--form", "EE", "--p", "3",
                      "--uprec", "30", "--tcap", "5")
    assert code == 0


def test_expand_tsv_and_json_carry_same_data(capsys):
    code, obj = run_json(capsys, "expand", "--form", "g", "--p", "3", "--uprec", "12")
    assert code == 0
    code, text = run_cli(capsys, "expand", "--form", "g", "--p", "3",
                         "--uprec", "12", "--format", "tsv")
    assert code == 0
    rows = [line.split("\t") for line in text.splitlines() if not line.startswith("#")]
    flattened = []
    for n, poly in obj["result"]["terms"]:
        for i, j, digits in poly["monomials"]:
            flattened.append([str(n), str(i), str(j)] + [str(d) for d in digits])
    assert rows == flattened


def test_expand_writes_output_file(tmp_path, capsys):
    target = tmp_path / "g.json"
    code, out = run_cli(capsys, "expand", "--form", "g", "--p", "2",
                        "--uprec", "8", "--out", str(target))
    assert code == 0 and out == ""
    obj = json.loads(target.read_text())
    assert obj["header"]["form"] == "g"


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_rejected_expand_writes_nothing(tmp_path, capsys, fmt):
    # --tcap is checked after the computation but before any output is written
    target = tmp_path / "EE.out"
    argv = ["expand", "--form", "EE", "--p", "2", "--uprec", "16", "--tcap", "0",
            "--format", fmt]
    code, out = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    code, out = run_cli(capsys, *argv, "--out", str(target))
    assert code == 3 and out == ""
    assert not target.exists()


@pytest.mark.parametrize("command", [
    ["expand", "--form", "g", "--p", "2", "--uprec", "8"],
    ["expand", "--form", "g", "--p", "2", "--uprec", "8", "--format", "tsv"],
    ["lvalue", "--p", "2", "--n", "2"],
    ["check", "--identity", "e-power", "--p", "2", "--uprec", "8"],
])
def test_out_in_missing_directory_exits_2_before_computing(tmp_path, capsys, monkeypatch,
                                                           command):
    # an --out in a directory that does not exist is a usage error found
    # before the catalog or the L-value is computed
    def never(*args):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(cli, "FormCatalog", never)
    monkeypatch.setattr(cli, "pellarin_partial", never)
    target = tmp_path / "missing" / "out"
    code = main([*command, "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert sorted(tmp_path.iterdir()) == []


def test_reader_closing_stdout_early_is_no_failure():
    # `expand ... | head`: the output is written a coefficient at a time, and
    # the writes after the reader has gone must not end in a traceback
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen([sys.executable, "-m", "drinfeldforms", "expand", "--form", "EE",
                             "--p", "2", "--uprec", "128", "--format", "tsv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(16) == b"# command=expand"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


@pytest.mark.parametrize("command", sorted(HANDLERS))
def test_memory_error_exits_3(capsys, monkeypatch, command):
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setitem(HANDLERS, command, out_of_memory)
    argv = {"expand": ["--form", "g"], "check": ["--identity", "lemma1"],
            "experiment": ["--name", "conjecture-fs"], "lvalue": []}[command]
    code = main([command, *argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# -- check ------------------------------------------------------------------------------


def test_check_e_power(capsys):
    code, obj = run_json(capsys, "check", "--identity", "e-power", "--l", "2",
                         "--p", "3", "--uprec", "100")
    assert code == 0
    assert obj["pass"] is True


def test_check_lvals(capsys):
    code, obj = run_json(capsys, "check", "--identity", "lvals", "--l", "2",
                         "--n", "3", "--p", "3")
    assert code == 0
    assert obj["result"][0]["pass"] is True


@pytest.mark.parametrize("argv,calls", [("--n 5 --p 3", 3), ("--n 6 --p 2", 2)])
def test_check_lvals_computes_each_partial_sum_once(capsys, monkeypatch, argv, calls):
    # one sum per l, the l = 1 sum shared by every l (the benchmark's lvals commands)
    made = []
    partial = identities.pellarin_partial

    def counted(field, alpha, beta, n):
        made.append((alpha, beta))
        return partial(field, alpha, beta, n)

    monkeypatch.setattr(identities, "pellarin_partial", counted)
    monkeypatch.setattr(cli, "pellarin_partial", counted)
    code, obj = run_json(capsys, "check", "--identity", "lvals", *argv.split())
    assert code == 0 and obj["pass"] is True
    assert len(made) == calls and len(set(made)) == calls


def test_check_lemma3_deterministic_bytes(capsys):
    args = ("check", "--identity", "lemma3", "--n", "2", "--l", "2",
            "--trials", "50", "--seed", "7", "--p", "3")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# small parameters for every entry of CHECKS
CHECK_ARGS = {
    "lemma1": [],
    "lemma2": [],
    "lemma3": ["--trials", "3"],
    "goss-degenerate": [],
    "lvals": ["--n", "2"],
    "e-power": ["--uprec", "27"],
    "f-power": ["--uprec", "27", "--nu", "1"],
    "d2-approx": ["--uprec", "20"],
    "recurrence-l1": ["--uprec", "9", "--k", "4"],
    "recurrence-l2": ["--uprec", "27", "--k", "4"],
    "sym-det": ["--trials", "5"],
    "partitions": ["--n", "8"],
    "coset-sum": ["--uprec", "27"],
    "ee-h-tau-d2": ["--uprec", "27"],
}


def subcommand_choices(command, dest):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return list(next(a.choices for a in sub.choices[command]._actions if a.dest == dest))


def test_parser_choices_are_the_table_keys():
    assert subcommand_choices("check", "identity") == list(CHECKS) == list(CHECK_ARGS)
    assert subcommand_choices("experiment", "name") == list(EXPERIMENTS)
    assert subcommand_choices("expand", "form") == [*FORMS, "f"]


@pytest.mark.parametrize("identity", list(CHECKS))
def test_check_suites_pass(capsys, identity):
    code, obj = run_json(capsys, "check", "--identity", identity, "--p", "3",
                         *CHECK_ARGS[identity])
    assert code == 0, (identity, obj)
    assert obj["pass"] is True
    assert obj["result"] and all(r["check"] == identity for r in obj["result"])


def test_check_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setitem(CHECKS, "lemma1",
                        lambda args, field: [{"q": field.q, "pass": False}])
    code, obj = run_json(capsys, "check", "--identity", "lemma1", "--p", "2")
    assert code == 1
    assert obj["pass"] is False


def test_f_power_at_l_q_compares_against_the_brute_force_sum(capsys, monkeypatch):
    # f_{q, nu} is the Frobenius image of f_{1, nu}, so only the brute-force
    # a_expansion can catch a wrong l = q row: off by u**15 there, the
    # l = q rows fail at exponent 15 and the l = 1 rows still pass
    real = FormCatalog.a_expansion

    def broken(self, power, coefficient_of=None, degrees=None):
        out = real(self, power, coefficient_of, degrees)
        if power == self.field.q:
            out = out + USeries(self.field, self.prec, {self.prec - 1: BiPoly.one(self.field)})
        return out

    monkeypatch.setattr(FormCatalog, "a_expansion", broken)
    code, obj = run_json(capsys, "check", "--identity", "f-power", "--p", "2", "--uprec", "16")
    assert code == 1 and obj["pass"] is False
    assert [(r["l"], r["nu"], r["pass"], r["first_difference"]) for r in obj["result"]] == [
        (1, 1, True, None), (1, 2, True, None), (2, 1, False, 15), (2, 2, False, 15)]


def test_f_power_at_l_1_compares_against_the_brute_force_sum(capsys, monkeypatch):
    # f_{1, nu} is the base of the left-hand side, so only the brute-force
    # a_expansion can catch a wrong l = 1 row: off by u**15 at power 1, the
    # l = 1 rows fail at exponent 15 and the l = 2 rows still pass
    real = FormCatalog.a_expansion

    def broken(self, power, coefficient_of=None, degrees=None):
        out = real(self, power, coefficient_of, degrees)
        if power == 1:
            out = out + USeries(self.field, self.prec, {self.prec - 1: BiPoly.one(self.field)})
        return out

    monkeypatch.setattr(FormCatalog, "a_expansion", broken)
    code, obj = run_json(capsys, "check", "--identity", "f-power", "--p", "2", "--uprec", "16")
    assert code == 1 and obj["pass"] is False
    assert [(r["l"], r["nu"], r["pass"], r["first_difference"]) for r in obj["result"]] == [
        (1, 1, False, 15), (1, 2, False, 15), (2, 1, True, None), (2, 2, True, None)]


@pytest.mark.parametrize("argv,exit_code", [
    (["--identity", "d2-approx", "--p", "3", "--uprec", "2"], 3),
    (["--identity", "partitions", "--n", "-1"], 2),
    (["--identity", "lemma3", "--trials", "0"], 2),
    (["--identity", "sym-det", "--trials", "0"], 2),
    (["--identity", "lemma2", "--l", "3..1"], 2),
    (["--identity", "coset-sum", "--p", "3", "--uprec", "2"], 3),
    (["--identity", "lemma3", "--n", "0"], 2),
    (["--identity", "lemma3", "--n", "-1"], 2),
    (["--identity", "coset-sum", "--nu", "-1"], 2),
    (["--identity", "coset-sum", "--nu", "0"], 2),
    (["--identity", "e-power", "--uprec", "1"], 3),
    (["--identity", "f-power", "--p", "3", "--uprec", "2"], 3),
    (["--identity", "ee-h-tau-d2", "--uprec", "1"], 3),
    (["--identity", "recurrence-l1", "--p", "3", "--uprec", "2"], 3),
], ids=["d2-approx-no-certifiable-k", "partitions-negative-n", "lemma3-no-trials",
        "sym-det-no-trials", "lemma2-empty-l-range", "coset-sum-no-term-of-g",
        "lemma3-no-variables", "lemma3-negative-n", "coset-sum-negative-nu",
        "coset-sum-nu-zero", "e-power-no-term", "f-power-no-term-at-l-2",
        "ee-h-tau-d2-no-term", "recurrence-l1-no-delta-term"])
def test_check_that_would_certify_nothing_is_rejected(capsys, argv, exit_code):
    code, out = run_cli(capsys, "check", *argv)
    assert code == exit_code
    assert out == ""


def test_check_rejects_out_of_range_l(capsys):
    code, _ = run_cli(capsys, "check", "--identity", "lvals", "--l", "4", "--p", "3")
    assert code == 2


def test_check_d2_approx_insufficient_precision(capsys):
    code, _ = run_cli(capsys, "check", "--identity", "d2-approx", "--k", "4",
                      "--p", "3", "--uprec", "20")
    assert code == 3


# -- experiment -----------------------------------------------------------------------------


def test_experiment_conjecture_fs_range(capsys):
    code, obj = run_json(capsys, "experiment", "--name", "conjecture-fs",
                         "--s", "1..5", "--p", "3", "--uprec", "80")
    assert code == 0
    outcomes = {r["s"]: r["equal"] for r in obj["result"]}
    assert outcomes == {1: True, 2: True, 3: True, 4: False, 5: True}


def test_experiment_resolve_recursive(capsys):
    code, obj = run_json(capsys, "experiment", "--name", "resolve-recursive",
                         "--nu", "3", "--p", "2", "--uprec", "128")
    assert code == 0
    assert len(obj["header"]["matching"]) == 1
    winner = obj["result"][obj["header"]["matching"][0]]
    assert winner["inner"] == 1 and winner["bracket_twist"] == 2


def test_experiment_ee_power_beyond_q_symbolic_l(capsys):
    code, obj = run_json(capsys, "experiment", "--name", "ee-power-beyond-q",
                         "--l", "q+1", "--p", "2", "--uprec", "16")
    assert code == 0
    report = obj["result"][0]
    assert report["l"] == 3
    assert report["equal"] is False
    assert report["first_difference"] is not None


def test_experiment_byte_determinism(capsys):
    args = ("experiment", "--name", "conjecture-fs", "--s", "1..3",
            "--p", "2", "--uprec", "16", "--seed", "3")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


# -- lvalue ------------------------------------------------------------------------------------


def test_lvalue_json_schema(capsys):
    code, obj = run_json(capsys, "lvalue", "--alpha", "1", "--beta", "1",
                         "--n", "2", "--p", "3")
    assert code == 0
    result = obj["result"]
    assert set(result) == {"alpha", "beta", "n", "num", "den"}
    assert all(j == 0 for _, j, _ in result["den"]["monomials"])


def test_lvalue_n1(capsys):
    code, obj = run_json(capsys, "lvalue", "--alpha", "2", "--beta", "3",
                         "--n", "1", "--p", "2")
    assert code == 0
    assert obj["result"]["num"]["monomials"] == [[0, 0, [1]]]
    assert obj["result"]["den"]["monomials"] == [[0, 0, [1]]]


def test_lvalue_tsv(capsys):
    code, text = run_cli(capsys, "lvalue", "--alpha", "1", "--beta", "1",
                         "--n", "2", "--p", "2", "--format", "tsv")
    assert code == 0
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert all(row.split("\t")[0] in ("num", "den") for row in rows)


# -- headers ---------------------------------------------------------------------------------------


def test_header_records_configuration(capsys):
    code, obj = run_json(capsys, "expand", "--form", "g", "--p", "3",
                         "--uprec", "9", "--seed", "11")
    assert code == 0
    header = obj["header"]
    assert header["seed"] == 11
    assert header["modulus"] == [0, 1]
    assert header["q"] == 3
    assert header["uprec"] == 9


def test_custom_modulus_flag(capsys):
    code, obj = run_json(capsys, "expand", "--form", "h", "--p", "2", "--e", "2",
                         "--modulus", "1,1,1", "--uprec", "8")
    assert code == 0
    assert obj["header"]["q"] == 4
    code, _ = run_cli(capsys, "expand", "--form", "h", "--p", "2", "--e", "2",
                      "--modulus", "1,0,1", "--uprec", "8")
    assert code == 2  # x^2 + 1 is reducible over F_2


# -- field size -------------------------------------------------------------------------


def test_large_field_without_quadratic_tables(capsys):
    # q = 10201: the O(q) element tables take milliseconds
    code, obj = run_json(capsys, "expand", "--form", "g", "--p", "101", "--e", "2",
                         "--uprec", "4")
    assert code == 0 and obj["header"]["q"] == 10201
    code, obj = run_json(capsys, "check", "--identity", "sym-det", "--p", "101", "--e", "2",
                         "--trials", "3", "--l", "1..2")
    assert code == 0 and obj["pass"] is True


@pytest.mark.parametrize("argv", [
    ["expand", "--form", "g", "--p", "2", "--e", "17"],
    ["expand", "--form", "g", "--p", "65537"],
    ["check", "--identity", "lemma3", "--p", "101", "--e", "2", "--n", "2"],
], ids=["2^17", "65537", "lemma3-extension-101^8"])
def test_oversized_field_exits_3(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "too large" in captured.err
