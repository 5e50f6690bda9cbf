"""Do two sets of runs of the same code agree within the benchmark's bounds?

    python3 bench/agree.py [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Runs ``bench/run.py`` on every workload of ``BENCHMARK.json``, then on
every workload again (round-robin, so the two runs of one workload are
minutes apart and a slow stretch of the host cannot cover both), and
prints, per workload and metric, the relative difference between the
two against the metric's bound.  Simulated outcomes and counts are
exact: on the same seed they must be identical.  Exit code 1 if any
end-to-end metric disagrees by more than its bound, any exact metric
differs, or any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Units of seeded simulation outputs and exact counts.
EXACT_UNITS = {"ratio", "0/1", "calls", "count", "events", "rounds", "pull_periods", "ms"}
#: ... except these, which are ratios or rates of host times.
TIMED = {"bench.trace_overhead", "bench.count_overhead"}


def run_once(workload: str, args) -> dict:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--trace", str(args.trace),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    child = subprocess.run(command, capture_output=True, text=True)
    for line in child.stdout.splitlines():
        if line.startswith(("FAIL", "WARN")):
            print(line)
    try:
        return json.loads(child.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        print(f"FAIL {workload} printed no result (exit code {child.returncode}): "
              f"{child.stderr.strip()[-300:]}")
        return {"correct": False, "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    sets = [{w: run_once(w, args) for w in workloads} for _ in range(2)]

    disagreements = 0
    widest = (0.0, "none")
    print(f"{'workload':<20} {'metric':<28} {'first':>14} {'second':>14} "
          f"{'rel.diff':>9} {'bound':>6}  verdict")
    for workload in workloads:
        first, second = sets[0][workload], sets[1][workload]
        if not (first["correct"] and second["correct"]):
            disagreements += 1
            print(f"{workload:<20} a run was not correct")
        for entry in declared:
            name = entry["name"]
            a = first["metrics"].get(name, {}).get("value")
            b = second["metrics"].get(name, {}).get("value")
            if a is None or b is None:
                continue
            exact = entry["unit"] in EXACT_UNITS and name not in TIMED
            diff = abs(b - a) / abs(a) if a else float(b != a)
            bound = 0.0 if exact else entry.get("bound")
            if bound is None:
                verdict = "-"
            elif diff <= bound:
                verdict = "identical" if exact else "agree"
            else:
                verdict = "DIFFER" if exact else "DISAGREE"
                disagreements += 1
            if not exact:
                widest = max(widest, (diff, f"{workload} {name}"))
            shown = "-" if bound is None else f"{bound:.2f}"
            print(f"{workload:<20} {name:<28} {a:>14.6g} {b:>14.6g} "
                  f"{diff:>9.4f} {shown:>6}  {verdict}")
    print(f"widest difference of a timed metric: {widest[0]:.4f} ({widest[1]})")
    print(f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
