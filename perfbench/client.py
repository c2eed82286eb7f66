"""The benchmark client: one fresh process running one workload's commands.

    python3 perfbench/client.py --workload NAME --seed N --mode setup
    python3 perfbench/client.py --workload NAME --seed N --mode run --seconds S
    python3 perfbench/client.py --workload NAME --seed N --mode trace

Set-up is importing the package and its command line plus building the
add/mul tables of every field and extension field the workload uses.
`run` then calls `drinfeldforms.cli.main(argv)` on the workload's command
list, back to back with stdout captured, pass after pass, and starts no
new pass that would end after S seconds (it always makes one).  `trace` installs the tracer
before set-up and makes exactly one traced pass.

The client writes one JSON record per line on stdout: `setup`, one `pass`
per pass (with every command's exit code and output, verified by run.py),
`trace` in trace mode, and `end` with the process's peak RSS.
"""

import argparse
import io
import json
import pathlib
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from workloads import WORKLOADS, command_list

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def emit(record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def setup(workload):
    """Import the package and build every table the workload uses; returns seconds."""
    t0 = perf_counter()
    import drinfeldforms
    import drinfeldforms.cli  # noqa: F401  (what the `drinfeldforms` entry point loads)
    spec = WORKLOADS[workload]
    # one addition and one multiplication in each field builds whatever
    # tables its arithmetic uses, through public element operations only
    fields = [drinfeldforms.finite_field(p, e) for p, e in spec["fields"]]
    fields += [drinfeldforms.extension_field(drinfeldforms.finite_field(p, e), m)[0]
               for p, e, m in spec["extensions"]]
    for field in fields:
        field.add(0, 0)
        field.mul(1, 1)
    return perf_counter() - t0


def run_command(main, argv):
    """One CLI call with stdout and stderr captured; an exception is a result, not a crash."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except Exception:  # the harness must keep running; the traceback is the report
        rc, error = None, traceback.format_exc()
    wall = perf_counter() - t0
    return {"rc": rc, "error": error, "stderr": err.getvalue(),
            "out": out.getvalue(), "wall_s": wall}


def run_pass(cli, commands):
    """Run the command list back to back; returns (pass seconds, per-command results)."""
    results = []
    t0 = perf_counter()
    for cmd_id, argv in commands:
        res = run_command(cli.main, argv)
        res["id"] = cmd_id
        res["argv"] = argv
        results.append(res)
    return perf_counter() - t0, results


def trace_record(tracer, pass_s, setup_slots, results):
    metrics = {"calls": dict(tracer.calls), "counts": dict(tracer.counts),
               "self_s": dict(tracer.self_s), "incl_s": dict(tracer.incl_s)}
    metrics["counts"]["fields.table_slots"] = setup_slots + tracer.counts["fields.table_slots"]
    metrics["other_self_s"] = pass_s - sum(tracer.self_s.values())
    metrics["out_bytes"] = sum(len(r["out"].encode()) for r in results)
    return {"kind": "trace", "run_s": pass_s, **metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    tracer = None
    if args.mode == "trace":
        import drinfeldforms.cli  # noqa: F401  (the tracer wraps the imported modules)
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    setup_s = setup(args.workload)
    emit({"kind": "setup", "setup_s": setup_s})
    if args.mode == "setup":
        return 0

    import drinfeldforms.cli as cli
    if tracer is not None:
        setup_slots = tracer.counts["fields.table_slots"]
        tracer.reset()
        pass_s, results = run_pass(cli, command_list(args.workload, args.seed))
        emit({"kind": "pass", "index": 0, "run_s": pass_s, "commands": results})
        emit(trace_record(tracer, pass_s, setup_slots, results))
    else:
        start = perf_counter()
        index = 0
        while True:
            pass_s, results = run_pass(cli, command_list(args.workload, args.seed, index))
            emit({"kind": "pass", "index": index, "run_s": pass_s, "commands": results})
            index += 1
            if perf_counter() - start + pass_s > args.seconds:
                break
    emit({"kind": "end", "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main())
