"""Benchmark of the `drinfeldforms` command line; see README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With `--trace 0` it measures the
end-to-end metrics: `setup_s` (median of at least SETUP_MIN_SAMPLES fresh
set-ups plus the client's own), `run_s` (median wall time of one pass over the
workload's command list, passes run for S seconds by one client process)
and `peak_rss_mb` (that client's ru_maxrss).  With `--trace 1` it makes the
same untraced run for S/2 seconds, then one traced pass in another fresh
process, and reports the per-layer metrics.  Every command's output is
verified; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Exit code 2 means the run could not be made.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CLIENT = HERE / "client.py"
# Set-up is sampled in fresh processes until both limits are reached: the
# median of many samples is needed when one set-up takes a few milliseconds.
SETUP_MIN_SAMPLES = 10
SETUP_MIN_SECONDS = 2.0
DEADLINE_S = 170

sys.path.insert(0, str(HERE))
from verify import load_reference, problems  # noqa: E402
from workloads import WORKLOADS, all_command_ids  # noqa: E402


class RunError(Exception):
    """The benchmark could not be run (missing sources, client crash, timeout)."""


def provenance():
    """Where and on what the run happened, taken at its start."""
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg())}


def client(workload, seed, mode, deadline, seconds=0.0):
    """Run one fresh client process and return its records."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before starting a client")
    argv = [sys.executable, str(CLIENT), "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--seconds", str(seconds)]
    # cache bytecode as an installed package does, so set-up excludes compiling
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} client did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} client exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


class Tally:
    """Commands attempted and failed, with the reasons for each failure."""

    def __init__(self):
        self.reference = load_reference()
        self.attempted = 0
        self.failures = []

    def verify(self, records):
        for rec in records:
            if rec["kind"] != "pass":
                continue
            for res in rec["commands"]:
                self.attempted += 1
                found = problems(res["id"], res["argv"], res, self.reference)
                if found:
                    self.failures.append(f"pass {rec['index']} {res['id']}: {'; '.join(found)}")


def untraced_run(workload, seed, seconds, deadline, tally):
    """Client run for `seconds`; returns (records, pass times)."""
    records = client(workload, seed, "run", deadline, seconds)
    tally.verify(records)
    return records, [r["run_s"] for r in records if r["kind"] == "pass"]


def end_to_end(workload, seed, seconds, deadline, tally):
    setups = []
    start = time.monotonic()
    while len(setups) < SETUP_MIN_SAMPLES or time.monotonic() - start < SETUP_MIN_SECONDS:
        setups.append(client(workload, seed, "setup", deadline)[0]["setup_s"])
    records, passes = untraced_run(workload, seed, seconds, deadline, tally)
    setups += [r["setup_s"] for r in records if r["kind"] == "setup"]
    maxrss_kb = next(r["maxrss_kb"] for r in records if r["kind"] == "end")
    print(f"run_s samples: {len(passes)}  setup_s samples: {len(setups)}")
    return {"setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(passes), "s"),
            "peak_rss_mb": (maxrss_kb / 1024, "MB")}


# Per-layer metrics in BENCHMARK.json order.  The suffix says where a value
# comes from: `.calls`, `.self_s` and `.incl_s` of a span, `.wall_s` of a
# command, a counter recorded by the tracer, or (for `<layer>.self_s`) the
# sum of the self times of the layer's spans.
PER_LAYER = [
    "fields.table_slots", "fields.extension_field.calls", "fields.self_s",
    "polynomials.BiPoly.mul.calls", "polynomials.BiPoly.mul.term_pairs",
    "polynomials.BiPoly.mul.self_s", "polynomials.BiPoly.add.calls",
    "polynomials.BiPoly.add.self_s", "polynomials.UniPoly.mul.calls",
    "polynomials.UniPoly.mul.self_s", "polynomials.UniPoly.divmod.self_s",
    "polynomials.self_s",
    "series.USeries.mul.calls", "series.USeries.mul.term_pairs", "series.USeries.mul.self_s",
    "series.USeries.inv.calls", "series.USeries.inv.incl_s", "series.USeries.add.self_s",
    "series.USeries.tau.self_s", "series.u_c_expansion.calls", "series.u_c_expansion.incl_s",
    "series.carlitz_phi.self_s", "series.self_s",
    "forms.FormCatalog.d2.incl_s", "forms.d2.passes", "forms.FormCatalog.a_expansion.calls",
    "forms.FormCatalog.a_expansion.incl_s", "forms.FormCatalog.divide_by_h_power.calls",
    "forms.FormCatalog.divide_by_h_power.incl_s", "forms.uc_cache.hit_ratio", "forms.self_s",
    "shadowed.g1k_shadowed.calls", "shadowed.g1k_shadowed.incl_s", "shadowed.self_s",
    "taurec.TauOperator.apply.incl_s", "taurec.operator_l2.incl_s", "taurec.matrix_det.calls",
    "taurec.matrix_det.incl_s", "taurec.sym_power_matrix.incl_s", "taurec.self_s",
    "identities.lemma3_bruteforce.calls", "identities.lemma3_bruteforce.tuples",
    "identities.lemma3_bruteforce.incl_s", "identities.BruteForceInstance.random.incl_s",
    "identities.pellarin_partial.calls", "identities.pellarin_partial.incl_s",
    "identities.self_s",
    "serialize.useries_to_obj.incl_s", "serialize.useries_tsv_rows.incl_s",
    "serialize.canonical_json.incl_s", "serialize.out_bytes", "serialize.self_s",
    *[f"cli.main.{cmd_id}.wall_s" for cmd_id in all_command_ids()],
    "cli.self_s", "other.self_s", "traced_run_s", "trace_overhead",
]
COUNTERS = (".table_slots", ".term_pairs", ".tuples", ".passes")


def layer_metrics(trace, untraced_run_s):
    """{name: (value, unit)} for every PER_LAYER metric, from one traced pass."""
    calls, self_s, incl_s = trace["calls"], trace["self_s"], trace["incl_s"]
    uc_calls = calls.get("forms.FormCatalog.u_c", 0)
    special = {
        "forms.uc_cache.hit_ratio": (
            trace["counts"].get("forms.uc_cache.hits", 0) / uc_calls if uc_calls else 0.0,
            "ratio"),
        "serialize.out_bytes": (trace["out_bytes"], "bytes"),
        "other.self_s": (trace["other_self_s"], "s"),
        "traced_run_s": (trace["run_s"], "s"),
        "trace_overhead": (trace["run_s"] / untraced_run_s, "ratio"),
    }
    out = {}
    for name in PER_LAYER:
        base, _, suffix = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif name.endswith(COUNTERS):
            out[name] = (trace["counts"].get(name, 0), "count")
        elif suffix == "calls":
            out[name] = (calls.get(base, 0), "count")
        elif suffix == "incl_s":
            out[name] = (incl_s.get(base, 0.0), "s")
        elif suffix == "wall_s":
            out[name] = (trace["wall_s"].get(base.rpartition(".")[2], 0.0), "s")
        elif "." in base:
            out[name] = (self_s.get(base, 0.0), "s")
        else:
            layer = [v for k, v in self_s.items() if k.partition(".")[0] == base]
            out[name] = (sum(layer, 0.0), "s")
    return out


def traced(workload, seed, seconds, deadline, tally):
    # half the window untraced gives trace_overhead its base and leaves the
    # traced pass time to fit in the rest
    _, passes = untraced_run(workload, seed, seconds / 2, deadline, tally)
    records = client(workload, seed, "trace", deadline)
    tally.verify(records)
    trace = next(r for r in records if r["kind"] == "trace")
    trace["wall_s"] = {res["id"]: res["wall_s"]
                       for r in records if r["kind"] == "pass" for res in r["commands"]}
    return layer_metrics(trace, statistics.median(passes))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not (ROOT / "src" / "drinfeldforms" / "cli.py").is_file():
            raise RunError(f"no drinfeldforms sources under {ROOT / 'src'}")
        print("provenance:", json.dumps(provenance(), sort_keys=True))
        tally = Tally()
        measure = traced if args.trace else end_to_end
        metrics = measure(args.workload, args.seed, args.seconds, deadline, tally)
    except (RunError, OSError, ValueError) as exc:
        print(f"benchmark not run: {exc}", file=sys.stderr)
        return 2

    for failure in tally.failures:
        print("FAILED", failure)
    failed = len(tally.failures)
    print(f"fail_ratio: {failed / tally.attempted} ({failed}/{tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": tally.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
