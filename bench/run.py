"""Repository benchmark: one workload, timed or traced, as one JSON line.

    python3 bench/run.py --workload paper_topo4 --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/``
(no install, no build).  ``--trace 0`` times whole rounds of
operations after one warm-up operation and reports the end-to-end
metrics; ``--trace 1`` runs the warm-up and one untimed reference
round, then traced rounds, and reports the per-layer metrics.  Metric names, units and directions come from
``BENCHMARK.json``.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the exit code is non-zero when any operation fails or a run-level
check does not hold.  ``--workload all`` runs every workload, each in
a fresh interpreter, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from tracing import Tracer
from workloads import WORKLOADS, OpResult, Probe, run_rounds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def prepare_program() -> None:
    """Import the program from ``src/`` as shipped: no compiled kernel,
    no environment overrides of jobs, caches or instruments.  Raises
    ImportError when the checkout holds no program."""
    for name in [n for n in os.environ if n.startswith("REPRO_") or n == "SIM_KERNEL"]:
        del os.environ[name]
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")


def _round(ops: List[OpResult], attr: str) -> float:
    return sum(getattr(op, attr) for op in ops)


def end_to_end(rounds: List[List[OpResult]]) -> Dict[str, float]:
    """Set-up is per operation; the other times are per round."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(op.setup_s for ops in rounds for op in ops),
        "wall_s": statistics.median(_round(ops, "wall_s") for ops in rounds),
        "cpu_s": statistics.median(_round(ops, "cpu_s") for ops in rounds),
        "chunks_per_s": statistics.median(
            _round(ops, "chunks") / _round(ops, "wall_s") for ops in rounds
        ),
        "peak_rss_mb": peak_kb / 1024.0,
    }


class _RoundTrace:
    """One traced round's spans and counts, summed over its operations."""

    def __init__(self, ops: List[OpResult]) -> None:
        self.ops = ops
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        for op in ops:
            tracer = op.tracer
            for group, seconds in tracer.group_self_s().items():
                self.self_s[group] = self.self_s.get(group, 0.0) + seconds
            for name, calls in zip(tracer.names, tracer.calls):
                self.calls[name] = self.calls.get(name, 0) + calls
            for key, value in tracer.counts.items():
                self.counts[key] = self.counts.get(key, 0) + value
        self.total_s = _round(ops, "total_s")
        self.attributed_s = sum(sum(op.tracer.self_ns) for op in ops) / 1e9
        self.spans = sum(op.tracer.seq for op in ops)

    def fact(self, key: str) -> int:
        return sum(f[key] for op in self.ops for f in op.facts)


def per_layer(traced: List[List[OpResult]], reference: List[OpResult]) -> Dict[str, float]:
    """Per-layer metrics of one round: self times are medians over the
    traced rounds; counts are exact and the same in each of them."""
    rounds = [_RoundTrace(ops) for ops in traced]
    first = rounds[0]
    counts = first.counts

    def self_s(group: str) -> float:
        return statistics.median(r.self_s.get(group, 0.0) for r in rounds)

    def calls(group: str, qualname: str) -> int:
        return first.calls.get(f"{group}:{qualname}", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    events = _round(first.ops, "events")
    chunks = _round(first.ops, "chunks")
    face_sends = calls("ndn.face_send", "Face.send")
    cs_lookups = calls("ndn.cs", "ContentStore.lookup")
    traced_s = statistics.median(r.total_s for r in rounds)
    return {
        "sim.events": events,
        "sim.events_per_chunk": ratio(events, chunks),
        "sim.schedules": counts.get("sim.schedules", 0),
        "sim.loop_self_s": self_s("sim.loop"),
        "ndn.receive_calls": calls("ndn.receive", "Node.receive"),
        "ndn.receive_self_s": self_s("ndn.receive"),
        "ndn.face_sends": face_sends,
        "ndn.face_send_self_s": self_s("ndn.face_send"),
        "ndn.hops_per_chunk": ratio(face_sends, chunks),
        "ndn.pit_self_s": self_s("ndn.pit"),
        "ndn.cs_lookups": cs_lookups,
        "ndn.cs_hit_ratio": ratio(counts.get("ndn.cs_hits", 0), cs_lookups),
        "ndn.cs_self_s": self_s("ndn.cs"),
        "ndn.fib_self_s": self_s("ndn.fib"),
        "ndn.packet_copies": counts.get("ndn.packet_copies", 0),
        "ndn.names_built": counts.get("ndn.names_built", 0),
        "core.edge_self_s": self_s("core.edge"),
        "core.content_self_s": self_s("core.content"),
        "core.intermediate_self_s": self_s("core.intermediate"),
        "core.client_self_s": self_s("core.client"),
        "core.provider_self_s": self_s("core.provider"),
        "core.bf_lookups": first.fact("bf_lookups"),
        "core.bf_inserts": first.fact("bf_inserts"),
        "core.bf_resets": first.fact("bf_resets"),
        "core.sig_verifications": first.fact("sig_verifications"),
        "core.client_sig_verifications": first.fact("client_sig_verifications"),
        "core.nacks": first.fact("nacks"),
        "core.tags_issued": first.fact("tags_issued"),
        "core.edge_bf_hit_ratio": ratio(
            counts.get("core.edge_bf_hits", 0), counts.get("core.edge_bf_lookups", 0)
        ),
        "filters.bloom_calls": sum(
            calls("filters.bloom", f"BloomFilter.{name}")
            for name in ("contains", "insert", "reset")
        ),
        "filters.bloom_self_s": self_s("filters.bloom"),
        "crypto.cost_samples": calls("crypto.cost", "ComputationCostModel.sample"),
        "crypto.cost_self_s": self_s("crypto.cost"),
        "crypto.rsa_signs": calls("crypto.rsa_sign", "RsaKeyPair.sign"),
        "crypto.rsa_sign_s": self_s("crypto.rsa_sign"),
        "crypto.rsa_verifies": calls("crypto.rsa_verify", "RsaPublicKey.verify"),
        "crypto.rsa_verify_s": self_s("crypto.rsa_verify"),
        "crypto.hmac_s": self_s("crypto.hmac"),
        "crypto.cipher_s": self_s("crypto.cipher"),
        "crypto.keygen_s": self_s("crypto.keygen"),
        "setup.topology_s": self_s("setup.topology"),
        "setup.routes_s": self_s("setup.routes"),
        "setup.assembly_s": self_s("setup.assembly"),
        "exec.runs": calls("exec.execute", "_execute_spec"),
        "exec.cache_probe_s": self_s("exec.cache_probe"),
        "exec.cache_put_s": self_s("exec.cache_put"),
        "exec.summarize_s": self_s("exec.summarize"),
        "exec.summary_bytes": counts.get("exec.summary_bytes", 0),
        "exec.replay_s": statistics.median(_round(ops, "replay_s") for ops in traced),
        "baselines.self_s": self_s("baselines"),
        "trace.overhead_ratio": traced_s / _round(reference, "total_s"),
        "trace.spans": first.spans,
        "trace.unattributed_s": statistics.median(r.total_s - r.attributed_s for r in rounds),
    }


def _counts(ops: List[OpResult]) -> list:
    return [op.counts() for op in ops]


def trace_problems(traced: List[List[OpResult]], reference: List[OpResult]) -> List[str]:
    """Run-level checks of a traced run."""
    problems = []
    for ops in traced:
        if _counts(ops) != _counts(reference):
            problems.append(
                "traced round diverged: events/chunks "
                f"{_round(ops, 'events')}/{_round(ops, 'chunks')}, untraced "
                f"{_round(reference, 'events')}/{_round(reference, 'chunks')}"
            )
        for op in ops:
            negative = op.tracer.negative_self_times()
            if negative:
                problems.append(f"negative self time in {negative}")
            for run_ns, self_sum_ns in op.tracer.run_checks:
                if run_ns != self_sum_ns:
                    problems.append(
                        f"self times under Simulator.run sum to {self_sum_ns} ns, "
                        f"its span lasted {run_ns} ns"
                    )
    return problems


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> int:
    workload_cls = WORKLOADS[name]
    scratch = Path(tempfile.mkdtemp(prefix=".scratch-", dir=BENCH_DIR))
    probe = Probe(keep_results=workload_cls.keep_results)
    probe.install()
    try:
        workload = workload_cls(scratch)
        if trace:
            began = time.perf_counter()
            warm, untraced = run_rounds(workload, seed, probe, 0.0, lambda: None)
            reference = untraced[0]
            left = seconds - (time.perf_counter() - began)
            _, traced = run_rounds(workload, seed, probe, left, Tracer, warm_up=False)
            rounds = [warm, reference] + traced
            problems = trace_problems(traced, reference)
            values = per_layer(traced, reference)
            declared = spec["per_layer"]
            traced[0][0].tracer.write_spans(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
        else:
            warm, timed = run_rounds(workload, seed, probe, seconds, lambda: None)
            rounds = [warm] + timed
            problems = [
                f"round {i} reproduced different counts than round 0"
                for i, ops in enumerate(timed)
                if _counts(ops) != _counts(timed[0])
            ]
            values = end_to_end(timed)
            declared = spec["end_to_end"]
    finally:
        probe.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems:
        print(f"[{name}] CHECK: {problem}", file=sys.stderr)
    ops = [op for ops in rounds for op in ops]
    failed = sum(1 for op in ops if op.failures)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for metric, entry in metrics.items():
        print(f"{name:15s} {metric:32s} {entry['value']:>16.6g} {entry['unit']}")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 and not problems else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in a fresh interpreter (peak RSS is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    prepare_program()
    return run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
