"""One benchmark pass in a fresh interpreter.

Usage: python -I worker.py <src-dir>, with the job as JSON on stdin.
The worker imports beattylab first and notes the monotonic clock when it
is ready (the parent turns that into set-up time), then runs the job's
CLI calls through `beattylab.cli.main` or its library calls, and writes
one JSON result to stdout.  The clocks are read only around program
calls; drawing queries, digests and checks happen outside them.  The
host-speed probe (`hostspeed.py`) runs before the first timed unit and
after each one, so every unit has a probe time next to it.
"""

import sys
import time


class Meter:
    """CPU time and gen-0 collections over the timed program calls only."""

    def __init__(self):
        import gc

        self._gc = gc
        self.cpu_s = 0.0
        self.gc_gen0 = 0

    def __enter__(self):
        self._cpu0 = time.process_time()
        self._gen0 = self._gc.get_stats()[0]["collections"]
        return self

    def __exit__(self, *exc):
        self.cpu_s += time.process_time() - self._cpu0
        self.gc_gen0 += self._gc.get_stats()[0]["collections"] - self._gen0


class Probes(list):
    """Host-speed probe times; a timed unit's probe time is the mean of the two around it."""

    def __init__(self, hostspeed):
        super().__init__()
        self.probe = hostspeed.probe
        hostspeed.warm_up()
        self.append(self.probe())

    def around_last(self):
        return (self[-2] + self[-1]) / 2


def run_cli_ops(ops, tmp, probes, meter):
    import contextlib
    import hashlib
    import io
    import os

    from beattylab import cli

    results = []
    for op in ops:
        argv = [a.replace("{tmp}", tmp) for a in op["argv"]]
        buf = io.StringIO()
        error = None
        with meter:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            except Exception as exc:  # a crash is a failed operation, not a failed benchmark
                rc, error = None, repr(exc)
            seconds = time.perf_counter() - t0
        probes.append(probes.probe())
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
                os.remove(path)
            except FileNotFoundError:
                data = b""
            stdout = None
        else:
            stdout = buf.getvalue()
            data = stdout.encode()
        results.append(
            {
                "key": op["key"],
                "rc": rc,
                "error": error,
                "seconds": seconds,
                "probe_s": probes.around_last(),
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
                "stdout": stdout,
            }
        )
    return {"ops": results}


def plain_answer(kind, answer):
    """The answer as JSON-able plain values, the form the oracle checks."""
    if answer is None or kind == "klm":
        return answer
    if kind == "decompose":
        return [answer.column, answer.index, list(answer.signs)]
    return [answer.label.value, answer.witness]


def run_queries(spec, probes, meter):
    import hashlib
    import itertools
    from array import array

    from beattylab import partition, wythoff
    from workloads import answer_ok, query_stream

    stream = query_stream(spec["seed"], spec["pass"])
    digest = hashlib.sha256()
    chunks, failures = [], []
    attempted = failed = 0
    for _ in range(spec["count"] // spec["chunk"]):
        queries = list(itertools.islice(stream, spec["chunk"]))
        latencies, answers = array("q"), []
        with meter:
            start = time.perf_counter()
            for kind, *args in queries:
                t0 = time.perf_counter_ns()
                try:
                    if kind == "decompose":
                        answer = partition.decompose(args[0], partition.phi_spec(args[1]))
                    elif kind == "classify_ab":
                        answer = wythoff.classify_ab(args[0])
                    else:
                        answer = wythoff.klm(*args)
                except Exception:  # counted as a failed query below
                    answer = None
                latencies.append(time.perf_counter_ns() - t0)
                answers.append(answer)
            wall_s = time.perf_counter() - start
        probes.append(probes.probe())
        chunks.append({"wall_s": wall_s, "probe_s": probes.around_last(), "latencies_ns": latencies.tolist()})
        for query, answer in zip(queries, answers):
            answer = plain_answer(query[0], answer)
            digest.update(repr((query, answer)).encode())
            attempted += 1
            if not answer_ok(query, answer):
                failed += 1
                if len(failures) < 20:
                    failures.append(f"{query!r} -> {answer!r}")
    return {
        "chunks": chunks,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "answers_sha256": digest.hexdigest(),
    }


def main():
    sys.path.insert(0, sys.argv[1])
    import beattylab.cli  # noqa: F401  (imports every layer)

    ready = time.monotonic()
    import json
    import os
    import resource

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import hostspeed

    job = json.load(sys.stdin)
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    probes = Probes(hostspeed)
    meter = Meter()
    if "ops" in job:
        result = run_cli_ops(job["ops"], job["tmp"], probes, meter)
    else:
        result = run_queries(job["queries"], probes, meter)
    result["ready"] = ready
    result["setup_probe_s"] = probes[0]
    result["cpu_s"] = meter.cpu_s
    result["gc_gen0"] = meter.gc_gen0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.table()
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
