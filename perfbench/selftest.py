"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

1. Failure accounting: a wrong reference digest, a command that raises, a
   non-zero exit and unparsable output are each counted as one failed
   command, and none of them stops the harness.
2. Metric names: run.py emits exactly the metrics BENCHMARK.json declares.
3. Deterministic counters: the traced run, made twice in fresh processes
   with the same seed, gives identical call counts and counters (term
   pairs, tuples, d2 passes, u_c cache hits, table slots, output bytes),
   so CI can gate on them.  This part takes about twice the traced pass
   time of each workload.

Exits 0 when every test passes.
"""

import io
import json
import sys
import time
from contextlib import redirect_stdout

import run
from client import run_command
from workloads import WORKLOADS, command_list

sys.path.insert(0, str(run.ROOT / "src"))
from drinfeldforms.cli import main as cli_main  # noqa: E402

BENCHMARK = run.ROOT / "BENCHMARK.json"
DETERMINISTIC = (".calls", ".term_pairs", ".tuples", ".passes", ".hit_ratio",
                 "table_slots", "out_bytes")


def check_failure_accounting():
    cmd_id, argv = next(c for c in command_list("a-expansion", 0) if c[0] == "expand-h-q4-u256")
    good = run_command(cli_main, argv)
    # writing the output to a directory raises IsADirectoryError out of main()
    raises = run_command(cli_main, ["expand", "--form", "g", "--p", "2",
                                    "--uprec", "8", "--out", str(run.HERE)])
    bad_exit = run_command(cli_main, ["check", "--identity", "lemma1", "--p", "4"])
    garbage = {"rc": 0, "error": None, "stderr": "", "out": "not json", "wall_s": 0.0}
    if raises["error"] is None or "IsADirectoryError" not in raises["error"]:
        return ["the raising command did not raise"]
    if bad_exit["rc"] != 2:
        return [f"the usage-error command exited {bad_exit['rc']}, not 2"]

    def tally_of(entries, reference_patch=None):
        tally = run.Tally()
        tally.reference.update(reference_patch or {})
        tally.verify([{"kind": "pass", "index": 0, "commands": [
            dict(res, id=i, argv=a) for i, a, res in entries]}])
        return tally

    found = []
    ok = tally_of([(cmd_id, argv, good)])
    if ok.failures or ok.attempted != 1:
        found.append(f"a correct command was not accepted: {ok.failures}")
    wrong = tally_of([(cmd_id, argv, good)], {cmd_id: {"digest": "0" * 64}})
    if len(wrong.failures) != 1:
        found.append("a wrong reference digest was not counted as a failure")
    mixed = tally_of([(cmd_id, argv, good),
                      ("raises", ["expand", "--form", "g"], raises),
                      ("bad-exit", ["check", "--identity", "lemma1"], bad_exit),
                      ("garbage", ["check", "--identity", "lemma1"], garbage)])
    if mixed.attempted != 4 or len(mixed.failures) != 3:
        found.append(f"expected 3 failures of 4, got {mixed.failures}")
    return found


def check_metric_names():
    spec = json.loads(BENCHMARK.read_text())
    trace = {"calls": {}, "counts": {}, "self_s": {}, "incl_s": {}, "wall_s": {},
             "other_self_s": 0.0, "run_s": 1.0, "out_bytes": 0}
    emitted = [(name, unit) for name, (_, unit) in run.layer_metrics(trace, 1.0).items()]
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    found = []
    if emitted != declared:
        found.append(f"per_layer differs: only emitted {sorted(set(emitted) - set(declared))},"
                     f" only declared {sorted(set(declared) - set(emitted))}")
    if [m["name"] for m in spec["end_to_end"]] != ["run_s", "setup_s", "peak_rss_mb"]:
        found.append("end_to_end names differ from what run.py emits")
    return found


def deterministic_counts(workload, seed):
    deadline = time.monotonic() + 600
    trace = next(r for r in run.client(workload, seed, "trace", deadline)
                 if r["kind"] == "trace")
    trace["wall_s"] = {}
    counts = {k: v for k, (v, _) in run.layer_metrics(trace, 1.0).items()
              if k.endswith(DETERMINISTIC)}
    counts.update({f"calls of {k}": v for k, v in trace["calls"].items()})
    counts.update({f"counter {k}": v for k, v in trace["counts"].items()})
    return counts


def check_determinism(workload):
    first = deterministic_counts(workload, 7)
    second = deterministic_counts(workload, 7)
    return [f"{workload}: {k}: {first.get(k)} != {second.get(k)}"
            for k in sorted(set(first) | set(second)) if first.get(k) != second.get(k)]


def main():
    tests = [("failure accounting", check_failure_accounting),
             ("metric names", check_metric_names)]
    for workload in WORKLOADS:
        tests.append((f"deterministic counters on {workload}",
                      lambda w=workload: check_determinism(w)))
    failed = 0
    for name, test in tests:
        with redirect_stdout(io.StringIO()):
            found = test()
        print(("ok    " if not found else "FAIL  ") + name)
        for line in found:
            print("      " + line)
        failed += bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
