"""Correctness gate for every command the benchmark runs.

A command passes when it returns 0 without raising and its output meets
the check for its kind:

  check       the report says `"pass": true`;
  experiment  the `matching` list equals the one recorded in reference.json;
  expand      the digest of the series' mathematical content, the sorted
              (n, i, j, digits) monomials plus the precision, equals the
              recorded one, and truncating the series to the precision of
              its tests/golden/ file gives exactly the golden monomials;
  lvalue      the digest of the numerator and denominator monomials equals
              the recorded one.

Digests hash content, not bytes, so a payload that gains a field keeps its
digest while any changed coefficient changes it.  `problems()` never
raises: malformed output is reported as a problem like any other.

    python3 perfbench/verify.py --record

recomputes reference.json from the current source tree.  Do that only
after an intended change to what the program computes.
"""

import argparse
import hashlib
import json
import pathlib

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
GOLDEN_DIR = ROOT / "tests" / "golden"
# Precision of the golden file for each field (p, e) on the golden grid.
GOLDEN_PREC = {(2, 1): 64, (3, 1): 81, (2, 2): 64, (5, 1): 50}


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _series_rows(series):
    return sorted((n, i, j, tuple(digits))
                  for n, poly in series["terms"] for i, j, digits in poly["monomials"])


def series_content(argv, out):
    """(prec, sorted monomial rows) of an `expand` output, JSON or TSV."""
    if _flag(argv, "--format", "json") == "tsv":
        header, rows = {}, []
        for line in out.splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                header[key] = value
            elif line:
                cells = [int(c) for c in line.split("\t")]
                rows.append((cells[0], cells[1], cells[2], tuple(cells[3:])))
        return int(header["uprec"]), sorted(rows)
    result = json.loads(out)["result"]
    return result["prec"], _series_rows(result)


def lvalue_content(out):
    result = json.loads(out)["result"]
    return [sorted((i, j, tuple(d)) for i, j, d in result[part]["monomials"])
            for part in ("num", "den")]


def digest(content):
    return hashlib.sha256(json.dumps(content).encode()).hexdigest()


def golden_path(argv):
    p, e = int(_flag(argv, "--p", 3)), int(_flag(argv, "--e", 1))
    prec = GOLDEN_PREC.get((p, e))
    if prec is None:
        return None, None
    return GOLDEN_DIR / f"{_flag(argv, '--form')}_p{p}_e{e}_uprec{prec}.json", prec


def _expand_problems(argv, out, ref):
    prec, rows = series_content(argv, out)
    found = []
    if digest([prec, rows]) != ref.get("digest"):
        found.append("content digest differs from reference.json")
    path, golden_prec = golden_path(argv)
    if path is not None:
        golden = json.loads(path.read_text())["series"]
        if prec < golden_prec:
            found.append(f"precision {prec} is below the golden precision {golden_prec}")
        elif [r for r in rows if r[0] < golden_prec] != _series_rows(golden):
            found.append(f"does not truncate back to {path.name}")
    return found


def problems(cmd_id, argv, result, reference):
    """Why one command's result is wrong; [] when it is correct."""
    if result.get("error"):
        return ["raised: " + result["error"].strip().splitlines()[-1]]
    if result.get("rc") != 0:
        return [f"exit code {result.get('rc')}: {result.get('stderr', '').strip()}"]
    kind, out = argv[0], result["out"]
    ref = reference.get(cmd_id, {})
    try:
        if kind == "check":
            return [] if json.loads(out).get("pass") is True else ["check reported pass != true"]
        if kind == "experiment":
            matching = json.loads(out)["header"]["matching"]
            if matching != ref.get("matching"):
                return [f"matching {matching} != recorded {ref.get('matching')}"]
            return []
        if kind == "expand":
            return _expand_problems(argv, out, ref)
        if kind == "lvalue":
            return [] if digest(lvalue_content(out)) == ref.get("digest") else [
                "content digest differs from reference.json"]
        return [f"no check for command kind {kind!r}"]
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return [f"output not checkable: {type(exc).__name__}: {exc}"]


def load_reference():
    return json.loads(REFERENCE.read_text())


def record():
    """Recompute the reference of every expand, experiment and lvalue command."""
    import sys

    sys.path.insert(0, str(ROOT / "src"))
    from drinfeldforms.cli import main
    from client import run_command
    from workloads import command_list, WORKLOADS

    reference = {}
    for workload in WORKLOADS:
        for cmd_id, argv in command_list(workload, 0):
            if argv[0] == "check":
                continue
            res = run_command(main, argv)
            if res["rc"] != 0 or res["error"]:
                raise SystemExit(f"{cmd_id} failed: {res['error'] or res['stderr']}")
            out = res["out"]
            if argv[0] == "expand":
                reference[cmd_id] = {"digest": digest(list(series_content(argv, out)))}
            elif argv[0] == "lvalue":
                reference[cmd_id] = {"digest": digest(lvalue_content(out))}
            else:
                reference[cmd_id] = {"matching": json.loads(out)["header"]["matching"]}
            print(cmd_id, reference[cmd_id])
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Record the benchmark's reference outputs.")
    ap.add_argument("--record", action="store_true", required=True)
    ap.parse_args()
    record()
