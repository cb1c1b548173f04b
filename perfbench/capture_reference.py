"""Record the reference outputs the benchmark checks CLI calls against.

    python3 perfbench/capture_reference.py

For every CLI input a workload seed can generate, plus the small control
inputs of the benchmark's tests, this runs the call once in a fresh
worker and stores its exit code and the sha256 and size of its output
(stdout, or the --out file) in reference.json.  It was run at the seed
commit; CLI output must stay byte-identical, so a later commit has no
reason to run it again.
"""

from __future__ import annotations

import json
import tempfile

from run import REFERENCE, TMP_PARENT, environment, run_pass
from workloads import CONTROL_OPS, WORKLOADS


def main() -> None:
    jobs = [{"ops": CONTROL_OPS}]
    for workload in WORKLOADS.values():
        if hasattr(workload, "sizes"):
            jobs += [{"ops": workload.make_ops(size)} for size in workload.sizes]
    outputs = {}
    TMP_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_PARENT) as tmp:
        for job in jobs:
            for op in run_pass(job, tmp)["ops"]:
                outputs[op["key"]] = {"rc": op["rc"], "sha256": op["sha256"], "bytes": op["bytes"]}
                print(op["key"], op["rc"], op["sha256"][:16], op["bytes"])
    with open(REFERENCE, "w") as fh:
        json.dump({"captured_at": environment(), "outputs": outputs}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
