"""Self-agreement: do two sets of runs of the same code agree?

    python3 bench/agree.py --seeds 1-10 --sets 2

Runs ``bench/run.py`` once per seed and workload (tracing off), as a
fresh interpreter each time, for each set in turn.  For every
end-to-end metric it prints each set's median and quartiles, the
spread (interquartile distance over the median), and whether the
later set's median is within the metric's ``BENCHMARK.json`` bound of
the first set's in the metric's worse direction.  It also compares the
share of failed operations between sets, which must be identical.
Exits non-zero when any metric disagrees, any spread other than
``setup_s``'s exceeds its bound, or any run fails.  The full report is
written to ``bench/out/agree.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result["returncode"] = proc.returncode
    return result


def quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    runs: Dict[str, List[List[dict]]] = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for index in range(args.sets):
            results = []
            for seed in seeds:
                result = run_once(workload, seed, args.seconds)
                results.append(result)
                print(f"set {index + 1} {workload} seed {seed}: "
                      + json.dumps(result.get("metrics", {})), file=sys.stderr)
            runs[workload].append(results)

    ok = True
    report: Dict[str, dict] = {}
    print(f"{'workload':15s} {'metric':13s} {'set':>3s} {'q1':>11s} {'median':>11s} "
          f"{'q3':>11s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload, sets in runs.items():
        report[workload] = {}
        for index, results in enumerate(sets):
            bad = [r for r in results if r["returncode"] != 0 or not r.get("correct")]
            if bad:
                ok = False
                print(f"{workload}: {len(bad)} run(s) in set {index + 1} failed")
        shares = {
            sum(r.get("failed", 0) for r in results) / max(1, sum(r.get("attempted", 0) for r in results))
            for results in sets
        }
        if len(shares) > 1:
            ok = False
            print(f"{workload}: failed-operation share differs between sets: {sorted(shares)}")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [
                quartiles([r["metrics"][name]["value"] for r in results if "metrics" in r])
                for results in sets
            ]
            report[workload][name] = stats
            base = stats[0]["median"]
            for index, stat in enumerate(stats):
                change = (stat["median"] - base) / base
                worse = change if metric["better"] == "lower" else -change
                verdict = []
                if name != "setup_s" and stat["spread"] > bound:
                    verdict.append("SPREAD>BOUND")
                if worse > bound:
                    verdict.append("DISAGREES")
                if verdict:
                    ok = False
                print(f"{workload:15s} {name:13s} {index + 1:3d} {stat['q1']:11.5g} "
                      f"{stat['median']:11.5g} {stat['q3']:11.5g} {stat['spread']:7.3f} "
                      f"{bound:6.2f}  {' '.join(verdict) or 'ok'}"
                      + (f" ({change:+.1%} vs set 1)" if index else ""))
    out = BENCH_DIR / "out" / "agree.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seeds": seeds, "report": report, "runs": runs}, indent=1))
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
