"""Regenerate the deterministic reference counts of every workload.

    python3 bench/reference.py --seeds 1,7919

Runs one round per workload and run seed (untimed) and prints the
counts a seed fixes exactly: simulated events, client chunks
requested and delivered, attacker deliveries, Bloom-filter and
signature work, NACKs and tags issued.  A change that claims to leave
behaviour alone must reproduce these numbers; the README's table was
made with this command.
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from run import BENCH_DIR, prepare_program
from workloads import WORKLOADS, Probe, run_rounds

COUNTS = (
    "events", "client_requested", "client_received", "attacker_received",
    "bf_lookups", "bf_inserts", "bf_resets", "sig_verifications",
    "client_sig_verifications", "nacks", "tags_issued",
)


def reference_counts(name: str, seed: int) -> dict:
    workload_cls = WORKLOADS[name]
    probe = Probe(keep_results=workload_cls.keep_results)
    probe.install()
    try:
        with tempfile.TemporaryDirectory(prefix=".scratch-", dir=BENCH_DIR) as scratch:
            _, rounds = run_rounds(
                workload_cls(Path(scratch)), seed, probe, 0.0, lambda: None, warm_up=False
            )
    finally:
        probe.uninstall()
    ops = rounds[0]
    facts = [f for op in ops for f in op.facts]
    counts = {key: sum(f[key] for f in facts) for key in COUNTS}
    counts["scenarios"] = len(facts)
    counts["failures"] = sum(len(op.failures) for op in ops)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,7919")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    prepare_program()
    table = {
        name: {seed: reference_counts(name, int(seed)) for seed in args.seeds.split(",")}
        for name in args.workloads.split(",")
    }
    keys = ("scenarios",) + COUNTS
    print("| workload | seed | " + " | ".join(keys) + " |")
    print("|---" * (len(keys) + 2) + "|")
    for name, by_seed in table.items():
        for seed, counts in by_seed.items():
            print(f"| {name} | {seed} | " + " | ".join(str(counts[k]) for k in keys) + " |")
    print(json.dumps(table))
    return 1 if any(c["failures"] for s in table.values() for c in s.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
