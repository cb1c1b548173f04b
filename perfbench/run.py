"""The beattylab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and measures `src/beattylab` as
it is there.  Each pass of the workload runs in a fresh interpreter
(`worker.py`), as every `beatty-lab` invocation does, so no cache
outlives a pass.  Passes repeat until S seconds have gone; every output
is checked, CLI outputs against the digests in `reference.json` and
library answers against `oracle.py`.  Times are reported at a fixed
reference host speed (`hostspeed.py`); the report line has the raw ones.

With --trace 0 the last stdout line reports the end-to-end metrics
(medians over untraced passes).  With --trace 1 the first half of the
time runs untraced passes and the second half traced ones, and the last
line reports the per-layer metrics.  The line before it is a report with
the environment, the inputs, the failure list and the span table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
TMP_PARENT = ROOT / ".perfbench_tmp"
PASS_TIMEOUT_S = 150
MIN_PASSES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_us": "us",
    "query_p99_us": "us",
}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to the program answering wrongly)."""


def load_reference(path: Path = REFERENCE) -> dict[str, dict]:
    with open(path) as fh:
        return json.load(fh)["outputs"]


def run_pass(job: dict, tmp: str, trace: bool = False) -> dict:
    """Run one job in a fresh worker interpreter and return its result."""
    payload = json.dumps(dict(job, tmp=tmp, trace=trace))
    # -I keeps PYTHON* variables away from the program; this keeps the shard count at its default
    env = {name: value for name, value in os.environ.items() if name != "BEATTY_LAB_SHARDS"}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(WORKER), str(SRC)],
            input=payload,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
            cwd=ROOT,
            env=env,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass ran longer than {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # CLOCK_MONOTONIC is shared by all processes, so this spans exec, start-up and import
    result["raw_setup_s"] = result["ready"] - spawned
    add_scaled_times(result)
    return result


def add_scaled_times(result: dict) -> None:
    """Add the pass's times at reference host speed (hostspeed.py) to its result.

    Each timed unit, a CLI call or a chunk of library calls, is scaled by
    the probe time measured around it; set-up by the first probe.
    """
    if "ops" in result:
        units = [(op["seconds"], op["probe_s"], [op["seconds"]]) for op in result["ops"]]
    else:
        units = [(c["wall_s"], c["probe_s"], [ns / 1e9 for ns in c["latencies_ns"]]) for c in result.pop("chunks")]
    result["raw_wall_s"] = sum(seconds for seconds, _, _ in units)
    result["wall_s"] = sum(seconds * hostspeed.scale(probe) for seconds, probe, _ in units)
    result["latencies_us"] = [s * 1e6 * hostspeed.scale(probe) for _, probe, lat in units for s in lat]
    result["setup_s"] = result["raw_setup_s"] * hostspeed.scale(result["setup_probe_s"])


def cli_failures(result: dict, refs: dict[str, dict]) -> list[str]:
    """Operations whose exit code or output bytes differ from the seed commit's."""
    failures = []
    for op in result["ops"]:
        ref = refs.get(op["key"])
        if ref is None:
            failures.append(f"{op['key']}: no reference output")
        elif op["rc"] != ref["rc"] or op["sha256"] != ref["sha256"]:
            failures.append(
                f"{op['key']}: exit {op['rc']} sha256 {op['sha256'][:16]}, "
                f"expected exit {ref['rc']} sha256 {ref['sha256'][:16]}"
                + (f" ({op['error']})" if op["error"] else "")
            )
    return failures


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98] if len(values) > 1 else values[0]


def output_bytes(result: dict) -> int:
    return sum(op["bytes"] for op in result.get("ops", ()))


class Run:
    """Passes of one workload with their checks; the benchmark's unit of work."""

    def __init__(self, workload, seed: int, refs: dict[str, dict], tmp: str):
        self.workload = workload
        self.jobs = workload.jobs(seed)
        self.refs = refs
        self.tmp = tmp
        self.plain: list[dict] = []
        self.traced: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first few, for the report

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted

    def one_pass(self, trace: bool) -> None:
        job = next(self.jobs)
        result = run_pass(job, self.tmp, trace)
        if "ops" in job:
            failures = cli_failures(result, self.refs)
            self.attempted += len(job["ops"])
            self.failed += len(failures)
        else:
            failures = result["failures"]
            self.attempted += result["attempted"]
            self.failed += result["failed"]
        self.failures += failures[: 20 - len(self.failures)]
        try:
            result["units"] = self.workload.units(job, result)
        except (IndexError, TypeError, ValueError):  # unparseable output is already a failure
            result["units"] = 0
        (self.traced if trace else self.plain).append(result)

    def measure(self, seconds: float, trace: bool) -> None:
        start = time.monotonic()
        plain_until = start + (seconds / 2 if trace else seconds)
        while len(self.plain) < MIN_PASSES or time.monotonic() < plain_until:
            self.one_pass(trace=False)
        if trace:
            while not self.traced or time.monotonic() < start + seconds:
                self.one_pass(trace=True)

    def end_to_end(self) -> dict[str, float]:
        median = statistics.median
        return {
            "wall_s": median(p["wall_s"] for p in self.plain),
            "throughput_per_s": median(p["units"] / p["wall_s"] for p in self.plain),
            "setup_s": median(p["setup_s"] for p in self.plain + self.traced),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in self.plain),
            # a pass's quantile, then the median over passes: pooling the operations
            # of CLI passes would put p50 in the gap between two commands of different
            # cost, and p99 on the one operation of the run that straddled a change of
            # host speed (hostspeed.py)
            "query_p50_us": median(median(p["latencies_us"]) for p in self.plain),
            "query_p99_us": median(p99(p["latencies_us"]) for p in self.plain),
        }

    def per_layer(self) -> dict[str, float]:
        median = statistics.median
        layers = {name: median(p["layers"][name] for p in self.traced) for name in self.traced[0]["layers"]}
        layers["cli.output_bytes"] = median(output_bytes(p) for p in self.traced)
        layers["process.cpu_s"] = median(p["cpu_s"] for p in self.plain)
        layers["process.gc_gen0"] = median(p["gc_gen0"] for p in self.plain)
        layers["trace.overhead_s"] = median(p["wall_s"] for p in self.traced) - median(
            p["wall_s"] for p in self.plain
        )
        return layers


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the measured sources, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "beattylab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally: subprocess.run kills and reaps the worker, the temp dir is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "beattylab" / "__init__.py").is_file():
        print(f"error: no beattylab sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    refs = load_reference()
    load_before = os.getloadavg()
    TMP_PARENT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
            bench = Run(workload, args.seed, refs, tmp)
            bench.measure(args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            TMP_PARENT.rmdir()
        except OSError:  # another run's directory is still inside
            pass
    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in bench.per_layer().items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in bench.end_to_end().items()}
    report = {
        "environment": environment(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.params(args.seed),
        "passes": {"untraced": len(bench.plain), "traced": len(bench.traced)},
        "probe_reference_s": hostspeed.PROBE_REFERENCE_S,
        "pass_wall_s": [p["wall_s"] for p in bench.plain],
        "pass_raw_wall_s": [p["raw_wall_s"] for p in bench.plain],
        "pass_setup_s": [p["setup_s"] for p in bench.plain],
        "pass_raw_setup_s": [p["raw_setup_s"] for p in bench.plain],
        "pass_latency_us": [p["latencies_us"] for p in bench.plain if "ops" in p],
        "failed_ratio": bench.failed_ratio,
        "failures": bench.failures[:20],
        "spans": bench.traced[0]["spans"][:40] if bench.traced else [],
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
