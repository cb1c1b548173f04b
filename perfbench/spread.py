"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload census --seeds 1-10 --seconds 25 [--trace 1] [--out FILE]

For every workload and metric it prints the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median,
the figure a metric's bound in BENCHMARK.json is compared with.  Runs
are sequential, one benchmark process at a time.  --out writes the same
summary as JSON, with the environment and the run settings; the baseline
files in this directory are such output, unedited.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import environment

RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    summary = {}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in args.seeds:
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed)]
            argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary[workload] = {
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: dict(summarise(v), unit=units[name], values=v) for name, v in values.items()},
        }
        print(f"{workload}: {len(args.seeds)} runs, {failed}/{attempted} failed")
        for name, s in summary[workload]["metrics"].items():
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:38} {s['median']:>16.6g} {s['unit']:6} spread {spread}")
    if args.out:
        runs = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace}
        with open(args.out, "w") as fh:
            json.dump({"environment": environment(), "runs": runs, "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
