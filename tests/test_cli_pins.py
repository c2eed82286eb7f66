"""Exact stdout and exit code of quick CLI invocations.

tests/golden/cli/index.json maps each case to its argv and exit code, and
tests/golden/cli/<case>.out holds the stdout bytes.  Regenerate every file
after an intentional change with

    PYTHONPATH=src python tests/test_cli_pins.py
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from drinfeldforms.cli import CHECKS, EXPERIMENTS, main

PIN_DIR = pathlib.Path(__file__).parent / "golden" / "cli"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

CASES = {
    "check-lemma1-q2": "check --identity lemma1 --p 2",
    "check-lemma2-q3": "check --identity lemma2 --p 3",
    "check-lemma3-q3-n2": "check --identity lemma3 --p 3 --n 2 --trials 5 --seed 7",
    "check-goss-q4": "check --identity goss-degenerate --p 2 --e 2",
    "check-lvals-q3-n3": "check --identity lvals --p 3 --n 3",
    "check-epower-q3-u27": "check --identity e-power --p 3 --uprec 27",
    "check-fpower-q2-u16": "check --identity f-power --p 2 --uprec 16",
    "check-d2approx-q2-u20": "check --identity d2-approx --p 2 --uprec 20",
    "check-recl1-q2-u16": "check --identity recurrence-l1 --p 2 --uprec 16 --k 4",
    "check-recl1-q2-u16-k16": "check --identity recurrence-l1 --p 2 --uprec 16 --k 16",
    "check-recl1-q2-u16-k1-short": "check --identity recurrence-l1 --p 2 --uprec 16 --k 1",
    "check-recl2-q3-u27": "check --identity recurrence-l2 --p 3 --uprec 27 --k 4",
    "check-symdet-q3": "check --identity sym-det --p 3 --trials 4 --seed 3",
    "check-symdet-l0-usage": "check --identity sym-det --p 3 --l 5,0 --seed 1",
    "expand-f-l2-nu2-q2-u32": "expand --form f --l 2 --nu 2 --p 2 --uprec 32",
    "expand-f-l3-nu1-q3-u27": "expand --form f --l 3 --nu 1 --p 3 --uprec 27",
    "check-partitions-n8": "check --identity partitions --n 8",
    "check-cosetsum-q2-u16-tsv": "check --identity coset-sum --p 2 --uprec 16 --format tsv",
    "check-eehtaud2-q3-u27": "check --identity ee-h-tau-d2 --p 3 --uprec 27",
    "check-epower-q2-u16-tsv": "check --identity e-power --p 2 --uprec 16 --format tsv",
    "check-symdet-q4-tsv": "check --identity sym-det --p 2 --e 2 --l 1..3 --trials 3 "
                           "--seed 5 --format tsv",
    "check-lvals-l4-usage": "check --identity lvals --l 4 --p 3",
    "check-d2approx-k4-underflow": "check --identity d2-approx --k 4 --p 3 --uprec 20",
    "check-epower-u1-underflow": "check --identity e-power --uprec 1",
    "check-fpower-q3-u2-underflow": "check --identity f-power --p 3 --uprec 2",
    "check-eehtaud2-u1-underflow": "check --identity ee-h-tau-d2 --uprec 1",
    "check-recl1-q3-u2-underflow": "check --identity recurrence-l1 --p 3 --uprec 2",
    "exp-conjfs-q2-u16": "experiment --name conjecture-fs --s 1..3 --p 2 --uprec 16",
    "exp-conjfs-q2-u16-empty": "experiment --name conjecture-fs --s 1..0 --p 2 --uprec 16",
    "exp-resolve-q2-u64": "experiment --name resolve-recursive --nu 3 --p 2 --uprec 64",
    "exp-eebeyond-q2-u16": "experiment --name ee-power-beyond-q --l q+1 --p 2 --uprec 16",
    "exp-conjfs-q3-u27-tsv": "experiment --name conjecture-fs --p 3 --uprec 27 --format tsv",
    "exp-eebeyond-q2-u16-tsv": "experiment --name ee-power-beyond-q --p 2 --uprec 16 "
                               "--format tsv",
    "exp-resolve-q2-u1-underflow": "experiment --name resolve-recursive --nu 3 --p 2 "
                                   "--uprec 1",
    "exp-resolve-q2-u64-tsv": "experiment --name resolve-recursive --nu 3 --p 2 --uprec 64 "
                              "--format tsv",
    "lvalue-q3-n3": "lvalue --alpha 2 --beta 1 --n 3 --p 3",
    "lvalue-q2-n3-tsv": "lvalue --alpha 1 --beta 2 --n 3 --p 2 --format tsv",
}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv.split())
    return code, out.getvalue()


def test_index_lists_every_case():
    assert set(json.loads((PIN_DIR / "index.json").read_text())) == set(CASES)


def test_every_check_and_experiment_is_pinned():
    # a check or experiment without a pin could change its bytes unnoticed
    option = {"check": "--identity", "experiment": "--name"}
    pinned = set()
    for argv in CASES.values():
        words = argv.split()
        if words[0] in option:
            pinned.add((words[0], words[words.index(option[words[0]]) + 1]))
    assert pinned >= {("check", name) for name in CHECKS}
    assert pinned >= {("experiment", name) for name in EXPERIMENTS}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_pin(case):
    pin = json.loads((PIN_DIR / "index.json").read_text())[case]
    assert pin["argv"] == CASES[case]
    code, out = run(CASES[case])
    assert code == pin["exit"]
    assert out == (PIN_DIR / f"{case}.out").read_text()


# Runs the command line with the CPU count patched to {cpus}; a command that
# exits 0 without forking {cpus} children says so on stderr.
FORCED_CPUS = """\
import os, sys
os.sched_getaffinity = lambda pid: set(range({cpus}))
fork, forked = os.fork, []
def counted_fork():
    pid = fork()
    forked.append(pid)
    return pid
os.fork = counted_fork
from drinfeldforms.cli import main
code = main(sys.argv[1:])
if code == 0 and len(forked) != {cpus}:
    sys.stderr.write(f"forked {{len(forked)}} children")
sys.exit(code)
"""


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("case", sorted(c for c, argv in CASES.items() if "sym-det" in argv))
def test_sym_det_pin_with_forked_children_under_dev_mode(case, cpus):
    # the fork path on any machine and Python, warnings as errors: the same
    # stdout and exit code, and no stderr but a usage error's one line
    pin = json.loads((PIN_DIR / "index.json").read_text())[case]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c",
                           FORCED_CPUS.format(cpus=cpus), *pin["argv"].split()],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == pin["exit"], proc.stderr
    assert proc.stdout == (PIN_DIR / f"{case}.out").read_text()
    if pin["exit"] == 2:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    else:
        assert proc.stderr == ""


if __name__ == "__main__":
    PIN_DIR.mkdir(parents=True, exist_ok=True)
    index = {}
    for case, argv in sorted(CASES.items()):
        code, out = run(argv)
        (PIN_DIR / f"{case}.out").write_text(out)
        index[case] = {"argv": argv, "exit": code}
        print("wrote", case, "exit", code)
    (PIN_DIR / "index.json").write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")
