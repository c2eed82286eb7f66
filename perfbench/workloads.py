"""The benchmark's workloads: fixed `drinfeldforms` command lists.

Each workload is a closed loop with one client: one fresh Python process
calls `drinfeldforms.cli.main(argv)` on every command of the list, back to
back.  The workload seed only derives `--seed` for the randomized checks
(`lemma3`, `sym-det`), anew for each pass; every other argument is fixed.
README.md in this directory says why each workload was chosen.

`fields` lists every field (p, e) a workload's commands use, and `extensions`
every (p, e, m) extension tower the `lemma3` checks build, so that set-up can
build all add/mul tables before the first timed command.
"""

import hashlib

# Commands whose report depends on --seed.
SEEDED = ("sym-det", "lemma3")

WORKLOADS = {
    "dense-series": {
        "fields": [(2, 1), (3, 1), (5, 1)],
        "extensions": [],
        "commands": [
            ("expand-d2-q2-u128", "expand --form d2 --p 2 --uprec 128"),
            ("expand-d2-q3-u243", "expand --form d2 --p 3 --uprec 243"),
            ("expand-g-q5-u250", "expand --form g --p 5 --uprec 250"),
            ("check-d2approx-q2-u64", "check --identity d2-approx --p 2 --uprec 64"),
            ("check-recl1-q2-u32", "check --identity recurrence-l1 --p 2 --uprec 32"),
            ("check-recl2-q3-u27", "check --identity recurrence-l2 --p 3 --uprec 27"),
        ],
    },
    "a-expansion": {
        "fields": [(2, 1), (3, 1), (5, 1), (2, 2)],
        "extensions": [],
        "commands": [
            ("expand-EE-q2-u256", "expand --form EE --p 2 --uprec 256"),
            ("expand-EE-q3-u243-tsv", "expand --form EE --p 3 --uprec 243 --format tsv"),
            ("expand-E-q5-u250", "expand --form E --p 5 --uprec 250"),
            ("expand-h-q4-u256", "expand --form h --p 2 --e 2 --uprec 256"),
            ("exp-resolve-q2-u128-nu3",
             "experiment --name resolve-recursive --nu 3 --p 2 --uprec 128"),
            ("check-epower-q3-u81", "check --identity e-power --p 3 --uprec 81"),
            ("check-fpower-q3-u81", "check --identity f-power --p 3 --uprec 81"),
        ],
    },
    "finite-identities": {
        "fields": [(2, 1), (3, 1), (5, 1), (2, 2)],
        # lemma3 draws its instances in F_{q^max(4, n)}: F_625, F_256, F_81.
        "extensions": [(5, 1, 4), (2, 2, 4), (3, 1, 4)],
        "commands": [
            ("check-symdet-q5", "check --identity sym-det --p 5"),
            ("check-symdet-q3-l1to6", "check --identity sym-det --p 3 --l 1..6"),
            ("check-symdet-q4", "check --identity sym-det --p 2 --e 2"),
            ("check-lemma3-q5-n3", "check --identity lemma3 --p 5 --n 3"),
            ("check-lemma3-q4-n3", "check --identity lemma3 --p 2 --e 2 --n 3"),
            ("check-lemma3-q3-n4", "check --identity lemma3 --p 3 --n 4"),
            ("check-lvals-q3-n5", "check --identity lvals --n 5 --p 3"),
            ("check-lvals-q2-n6", "check --identity lvals --n 6 --p 2"),
            ("lvalue-q3-a3-b3-n5", "lvalue --alpha 3 --beta 3 --n 5 --p 3"),
            ("check-lemma1-q3", "check --identity lemma1"),
            ("check-lemma2-q3", "check --identity lemma2"),
            ("check-goss-q3", "check --identity goss-degenerate"),
            ("check-partitions-n16", "check --identity partitions --n 16"),
        ],
    },
}


def derived_seed(seed, pass_index, cmd_id):
    """The `--seed` a randomized check gets in one pass of a run at this workload seed.

    Each pass draws fresh instances, so a run's median covers several draws
    and depends less on what one seed happens to produce."""
    digest = hashlib.sha256(f"{seed}/{pass_index}/{cmd_id}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def command_list(workload, seed, pass_index=0):
    """[(cmd_id, argv)] for one pass of the workload at this seed."""
    out = []
    for cmd_id, line in WORKLOADS[workload]["commands"]:
        argv = line.split()
        if argv[0] == "check" and argv[2] in SEEDED:
            argv += ["--seed", str(derived_seed(seed, pass_index, cmd_id))]
        out.append((cmd_id, argv))
    return out


def all_command_ids():
    return [cmd_id for w in WORKLOADS.values() for cmd_id, _ in w["commands"]]
