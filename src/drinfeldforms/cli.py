"""Command-line front door.

Subcommands:

  expand      print one truncated u-expansion (g, h, delta, E, d2, EE, f)
  check       run an identity check suite; exit 1 on any failure
  experiment  run open-ended comparisons and report what was observed
  lvalue      print one truncated Pellarin L partial sum

Every output carries a header echoing the full configuration (field,
precision, seed, caps), and all output is byte-stable for a fixed
configuration.  Exit codes: 0 success, 1 identity failure, 2 usage
error, 3 precision/resource limit.
"""

import argparse
import os
import random
import sys

from .errors import PrecisionError, ResourceLimitError
from .fields import finite_field
from .forms import FormCatalog
from .identities import (check_lvals, goss_degenerate_check, lemma1_check,
                         lemma2_check, lemma3_trials, pellarin_partial)
from .serialize import canonical_json, write_lvalue, write_useries
from .shadowed import check_d2_approx, partition_counts
from .taurec import g_sequence, operator_l1, operator_l2, sym_det_trials

USAGE_EXIT = 2
RESOURCE_EXIT = 3

# expand --form NAME reads this FormCatalog attribute (and --form f is f_l_nu)
FORMS = {"g": "g", "h": "h", "delta": "delta", "E": "e", "d2": "d2", "EE": "ee"}


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=3, help="field characteristic")
    common.add_argument("--e", type=int, default=1, help="extension degree over F_p")
    common.add_argument("--modulus", type=str, default=None,
                        help="comma-separated F_p digits of the defining polynomial, "
                             "low to high, monic of degree e")
    common.add_argument("--uprec", type=int, default=32, help="u-adic working precision")
    common.add_argument("--tcap", type=int, default=None,
                        help="abort (exit 3) if any coefficient exceeds this t-degree")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    common.add_argument("--format", choices=("json", "tsv"), default="json")
    common.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    parser = argparse.ArgumentParser(
        prog="drinfeldforms",
        description="Exact u-expansions of Drinfeld modular forms, their "
                    "t-deformations, and the identity checks that tie them together.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", parents=[common],
                              help="print one truncated u-expansion")
    p_expand.add_argument("--form", required=True, choices=(*FORMS, "f"))
    p_expand.add_argument("--l", type=str, default=None)
    p_expand.add_argument("--nu", type=int, default=None)

    p_check = sub.add_parser("check", parents=[common],
                             help="verify identities; exit 1 on failure")
    p_check.add_argument("--identity", required=True, choices=CHECKS)
    p_check.add_argument("--l", type=str, default=None)
    p_check.add_argument("--nu", type=int, default=None)
    p_check.add_argument("--n", type=int, default=None)
    p_check.add_argument("--k", type=int, default=None)
    p_check.add_argument("--trials", type=int, default=None)

    p_exp = sub.add_parser("experiment", parents=[common],
                           help="run a reported (non-asserted) comparison")
    p_exp.add_argument("--name", required=True, choices=EXPERIMENTS)
    p_exp.add_argument("--l", type=str, default=None)
    p_exp.add_argument("--nu", type=int, default=None)
    p_exp.add_argument("--s", type=str, default=None,
                       help="s values: single value, a..b range, or comma list")

    p_lv = sub.add_parser("lvalue", parents=[common],
                          help="print one truncated Pellarin L partial sum")
    p_lv.add_argument("--alpha", type=int, default=1)
    p_lv.add_argument("--beta", type=int, default=1)
    p_lv.add_argument("--n", type=int, default=2)

    return parser


def _parse_symbolic(text, q):
    """Accept plain ints plus the symbolic forms q, q+N, q-N."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    if text == "q":
        return q
    for sep, sign in (("+", 1), ("-", -1)):
        if text.startswith("q" + sep):
            return q + sign * int(text[2:])
    raise ValueError(f"cannot parse value {text!r}")


def _parse_values(text, q):
    """A single value, an a..b range, or a comma list (symbolic q allowed)."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo, hi = chunk.split("..", 1)
            out.extend(range(_parse_symbolic(lo, q), _parse_symbolic(hi, q) + 1))
        else:
            out.append(_parse_symbolic(chunk, q))
    return out


def _build_field(args):
    modulus = None
    if args.modulus is not None:
        modulus = [int(c) for c in args.modulus.split(",")]
    return finite_field(args.p, args.e, modulus)


def _header(args, field, extra=None):
    header = {
        "command": args.command,
        "p": field.p,
        "e": field.e,
        "q": field.q,
        "modulus": list(field.modulus),
        "uprec": args.uprec,
        "tcap": args.tcap,
        "seed": args.seed,
        "format": args.format,
    }
    if extra:
        header.update(extra)
    return header


def _enforce_tcap(args, series_or_polys):
    if args.tcap is None:
        return
    for item in series_or_polys:
        deg = item.t_degree()
        if deg is not None and deg > args.tcap:
            raise ResourceLimitError(
                f"t-degree {deg} exceeds the configured cap {args.tcap}")


def _emit(args, *parts):
    """Write the parts in order to --out or stdout.  A part is text, or a
    function that writes through the `write` it is given.  The --out file
    is created only here, after every check that can reject the input."""
    fh = open(args.out, "w") if args.out else sys.stdout
    try:
        for part in parts:
            if isinstance(part, str):
                fh.write(part)
            else:
                part(fh.write)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`), which is no failure of
        # the command; stdout then points at the null device, so that the
        # flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    finally:
        if fh is not sys.stdout:
            fh.close()


def _emit_result(args, header, write_result, result):
    """The header, then write_result(write, result, format) as the result:
    the output of expand and lvalue, streamed one coefficient at a time."""
    fmt = args.format
    if fmt == "tsv":
        head, tail = _tsv_document(header, []), ""
    else:
        head, tail = '{"header":%s,"result":' % canonical_json(header)[:-1], "}\n"
    _emit(args, head, lambda write: write_result(write, result, fmt), tail)


def _tsv_document(header, rows):
    lines = [f"# {key}={header[key]}" for key in sorted(header)]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def _report_rows(reports, name):
    """TSV rows of reports; a row that names no check is labelled `name`."""
    rows = []
    for r in reports:
        label = r.get("check") or r.get("identity") or name
        params = ",".join(f"{k}={r[k]}" for k in sorted(r)
                          if k not in ("check", "identity", "pass", "equal",
                                       "first_difference"))
        status = r.get("pass", r.get("equal"))
        witness = r.get("first_difference")
        rows.append("\t".join([label, params, str(status), str(witness)]))
    return rows


# -- expand ----------------------------------------------------------------------


def cmd_expand(args):
    field = _build_field(args)
    catalog = FormCatalog(field, args.uprec)
    if args.form == "f":
        if args.l is None or args.nu is None:
            raise ValueError("--form f requires both --l and --nu")
        l = _parse_symbolic(args.l, field.q)
        series = catalog.f_l_nu(l, args.nu)
        extra = {"form": "f", "l": l, "nu": args.nu}
    else:
        series = getattr(catalog, FORMS[args.form])
        extra = {"form": args.form}
    _enforce_tcap(args, [series])
    _emit_result(args, _header(args, field, extra), write_useries, series)
    return 0


# -- check ------------------------------------------------------------------------


def _given(value, default):
    return default if value is None else value


def _l_values(args, q):
    """--l inside the asserted range 1..q; all of it when not given."""
    if args.l is None:
        return list(range(1, q + 1))
    values = _parse_values(args.l, q)
    for l in values:
        if not 1 <= l <= q:
            raise ValueError(f"l={l} outside the asserted range 1..{q}")
    return values


# Each check returns its report rows; cmd_check adds "check" to every row.


def _check_lemma1(args, field):
    return [{"q": field.q, "pass": lemma1_check(field)}]


def _check_lemma2(args, field):
    return [{"q": field.q, "l": l, "pass": lemma2_check(field, l)}
            for l in _l_values(args, field.q)]


def _check_goss_degenerate(args, field):
    return [{"q": field.q, "l": l, "pass": goss_degenerate_check(field, l)}
            for l in _l_values(args, field.q)]


def _check_lemma3(args, field):
    n, trials = _given(args.n, 2), _given(args.trials, 20)
    rng = random.Random(args.seed)
    return [{"q": field.q, "n": n, "l": l, "trials": trials,
             "pass": lemma3_trials(field, n, l, trials, rng)}
            for l in _l_values(args, field.q)]


def _check_lvals(args, field):
    n = _given(args.n, 3)
    ls = _l_values(args, field.q)
    # every l compares against the l = 1 sum: compute it once
    p1 = pellarin_partial(field, 1, 1, n) if ls else None
    return [{"q": field.q, "l": l, "n": n, "pass": check_lvals(field, l, n, p1)}
            for l in ls]


def _check_e_power(args, field):
    catalog = FormCatalog(field, args.uprec)
    reports = []
    for l in _l_values(args, field.q):
        r = catalog.check_ee_power(l)
        reports.append({"q": field.q, "l": l, "first_difference": r["first_difference"],
                        "pass": r["equal"]})
    return reports


def _check_f_power(args, field):
    catalog = FormCatalog(field, args.uprec)
    reports = []
    for l in _l_values(args, field.q):
        for nu in [args.nu] if args.nu is not None else [1, 2]:
            r = catalog.check_f_power(l, nu)
            reports.append({"q": field.q, "l": l, "nu": nu,
                            "first_difference": r["first_difference"], "pass": r["equal"]})
    return reports


def _check_coset_sum(args, field):
    catalog = FormCatalog(field, args.uprec)
    nus = [args.nu] if args.nu is not None else [1, 2]
    return [{"q": field.q, **r} for r in catalog.check_coset_sums(nus)]


def _check_ee_h_tau_d2(args, field):
    r = FormCatalog(field, args.uprec).check_ee_h_tau_d2()
    del r["equal"]
    return [{"q": field.q, **r}]


def _check_d2_approx(args, field):
    catalog = FormCatalog(field, args.uprec)
    q = field.q
    if args.k is not None:
        ks = [args.k]
    else:
        # every k <= 4 the precision certifies; k = 1 always, so that a
        # precision too small for any k exits 3 instead of certifying nothing
        ks = [1]
        while len(ks) < 4 and q ** len(ks) * (q - 1) < args.uprec:
            ks.append(len(ks) + 1)
    return [check_d2_approx(catalog, k) for k in ks]


def _check_recurrence_l1(args, field):
    catalog = FormCatalog(field, args.uprec)
    k_max = _given(args.k, 5)
    op = operator_l1(catalog)
    # raises for a k_max too small for the operator
    closed_form = op.annihilates(g_sequence(catalog, 1, k_max), catalog.prec)
    # every image entry of a constant sequence is the same series, so the
    # shortest window certifies all k <= k_max
    constant = op.annihilates([catalog.d2] * (op.order + 1), catalog.prec)
    return [{"q": field.q, "sequence": "d2", "k_max": k_max, "pass": constant},
            {"q": field.q, "sequence": "closed-form", "k_max": k_max, "pass": closed_form}]


def _check_recurrence_l2(args, field):
    catalog = FormCatalog(field, args.uprec)
    k_max = _given(args.k, 5)
    op = operator_l2(catalog)
    return [{"q": field.q, "sequence": "closed-form", "k_max": k_max,
             "pass": op.annihilates(g_sequence(catalog, 2, k_max), catalog.prec)}]


def _check_sym_det(args, field):
    trials = _given(args.trials, 50)
    rng = random.Random(args.seed)
    ls = _parse_values(args.l, field.q) if args.l is not None else [1, 2, 3, 4]
    return [{"q": field.q, "l": l, "trials": trials,
             "pass": sym_det_trials(field, l, trials, rng)} for l in ls]


def _check_partitions(args, field):
    return [{"n": n, "count": count, "pass": ok}
            for n, count, ok in partition_counts(_given(args.n, 12))]


CHECKS = {"lemma1": _check_lemma1, "lemma2": _check_lemma2, "lemma3": _check_lemma3,
          "goss-degenerate": _check_goss_degenerate, "lvals": _check_lvals,
          "e-power": _check_e_power, "f-power": _check_f_power,
          "d2-approx": _check_d2_approx, "recurrence-l1": _check_recurrence_l1,
          "recurrence-l2": _check_recurrence_l2, "sym-det": _check_sym_det,
          "partitions": _check_partitions, "coset-sum": _check_coset_sum,
          "ee-h-tau-d2": _check_ee_h_tau_d2}


def cmd_check(args):
    field = _build_field(args)
    reports = [{"check": args.identity, **r} for r in CHECKS[args.identity](args, field)]
    if not reports:
        raise ValueError("the parameters select nothing to check")
    all_pass = all(r["pass"] for r in reports)
    header = _header(args, field, {"identity": args.identity})
    if args.format == "tsv":
        _emit(args, _tsv_document(header, _report_rows(reports, args.identity)))
    else:
        _emit(args, canonical_json({"header": header, "result": reports, "pass": all_pass}))
    return 0 if all_pass else 1


# -- experiment ----------------------------------------------------------------------
# Each experiment returns its report rows and the header entries it adds.


def _experiment_conjecture_fs(args, catalog):
    q = catalog.field.q
    s_values = _parse_values(args.s, q) if args.s is not None else list(range(1, q + 1))
    return ([{"identity": "conjecture-fs", "s": s, **catalog.conjecture_fs(s)}
             for s in s_values], {"s": s_values})


def _experiment_resolve_recursive(args, catalog):
    nu = _given(args.nu, 3)
    r = catalog.resolve_recursive(nu)
    return r["candidates"], {"nu": nu, "matching": r["matching"]}


def _experiment_ee_power_beyond_q(args, catalog):
    q = catalog.field.q
    l = _parse_symbolic(args.l, q) if args.l is not None else q + 1
    return [{"identity": "ee-power-beyond-q", "l": l, **catalog.check_ee_power(l)}], {"l": l}


EXPERIMENTS = {"conjecture-fs": _experiment_conjecture_fs,
               "resolve-recursive": _experiment_resolve_recursive,
               "ee-power-beyond-q": _experiment_ee_power_beyond_q}


def cmd_experiment(args):
    field = _build_field(args)
    catalog = FormCatalog(field, args.uprec)
    reports, extra = EXPERIMENTS[args.name](args, catalog)
    if not reports:
        raise ValueError("the parameters select nothing to check")
    header = _header(args, field, {"name": args.name, **extra})
    if args.format == "tsv":
        _emit(args, _tsv_document(header, _report_rows(reports, args.name)))
    else:
        _emit(args, canonical_json({"header": header, "result": reports}))
    return 0


# -- lvalue ----------------------------------------------------------------------------


def cmd_lvalue(args):
    field = _build_field(args)
    value = pellarin_partial(field, args.alpha, args.beta, args.n)
    _enforce_tcap(args, [value.num])
    header = _header(args, field, {"alpha": args.alpha, "beta": args.beta,
                                   "n": args.n})
    _emit_result(args, header, write_lvalue, value)
    return 0


HANDLERS = {"expand": cmd_expand, "check": cmd_check,
            "experiment": cmd_experiment, "lvalue": cmd_lvalue}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        # rejected before anything is computed
        print(f"error: cannot write --out {args.out}: its directory does not exist",
              file=sys.stderr)
        return USAGE_EXIT
    try:
        return HANDLERS[args.command](args)
    except (PrecisionError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RESOURCE_EXIT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return RESOURCE_EXIT
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
