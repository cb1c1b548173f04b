"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They check that its correctness checks can fail (negative controls), that
tracing does not change what the program outputs, that the oracle rejects
wrong answers, and that a run prints exactly the metrics BENCHMARK.json
declares.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
CONTROL = {"ops": workloads.CONTROL_OPS}
IDENTITIES_N3 = workloads.CONTROL_OPS[0]


class FixedJob:
    """A workload that repeats one job."""

    def __init__(self, job):
        self.job = job

    def jobs(self, seed):
        while True:
            yield self.job

    def units(self, job, result):
        return 1


@pytest.fixture(scope="module")
def refs():
    return run.load_reference()


def failed_ratio(job, refs, tmp) -> float:
    bench = run.Run(FixedJob(job), 0, refs, str(tmp))
    bench.measure(0, trace=False)
    return bench.failed_ratio


def test_control_inputs_match_reference(refs, tmp_path):
    assert failed_ratio(CONTROL, refs, tmp_path) == 0


def test_injected_off_by_one_is_a_failure(refs, tmp_path):
    injected = dict(IDENTITIES_N3, argv=IDENTITIES_N3["argv"] + ["--inject-off-by-one"])
    assert failed_ratio({"ops": [injected]}, refs, tmp_path) > 0


def test_corrupted_reference_digest_is_a_failure(refs, tmp_path):
    corrupted = dict(refs)
    ref = corrupted[IDENTITIES_N3["key"]]
    corrupted[IDENTITIES_N3["key"]] = dict(ref, sha256=("0" if ref["sha256"][0] != "0" else "1") + ref["sha256"][1:])
    assert failed_ratio(CONTROL, corrupted, tmp_path) > 0


def test_tracing_leaves_outputs_unchanged(tmp_path):
    plain = run.run_pass(CONTROL, str(tmp_path))
    traced = run.run_pass(CONTROL, str(tmp_path), trace=True)
    assert [(op["rc"], op["sha256"]) for op in plain["ops"]] == [(op["rc"], op["sha256"]) for op in traced["ops"]]
    assert traced["layers"]["identities.records"] > 0

    queries = {"queries": {"seed": 7, "pass": 0, "count": 40, "chunk": 20}}
    plain, traced = run.run_pass(queries, str(tmp_path)), run.run_pass(queries, str(tmp_path), trace=True)
    assert plain["attempted"] == traced["attempted"] == 40
    assert plain["failed"] == traced["failed"] == 0
    assert plain["answers_sha256"] == traced["answers_sha256"]
    assert traced["layers"]["partition.decompose.s"] > 0


def test_shard_variable_of_the_caller_does_not_reach_the_program(refs, tmp_path, monkeypatch):
    monkeypatch.setenv("BEATTY_LAB_SHARDS", "bogus")  # the CLI exits 2 on an invalid value
    assert failed_ratio(CONTROL, refs, tmp_path) == 0


def realizations(m: int, n: int) -> list[list]:
    """Every (column, k, signs) with m = l(k) + offset, by the oracle's arithmetic alone."""
    found = []
    for k in range(1, m + 1):
        if oracle.generator_term(n, k) - 2 ** (n - 1) > m:
            break
        for column in range(1, n + 1):
            signs = oracle.offset_signs(m - oracle.generator_term(n, k), n, column)
            if signs is not None:
                found.append([column, k, signs])
    return found


def test_oracle_rejects_wrong_answers():
    assert oracle.klm_ok(2, -1, 3, 5, oracle.lower(2 * oracle.lower(5) - 5 + 3))
    assert not oracle.klm_ok(2, -1, 3, 5, oracle.lower(2 * oracle.lower(5) - 5 + 3) + 1)
    w = 12345
    assert oracle.classify_ab_ok(oracle.lower(w), ["A", w])
    assert not oracle.classify_ab_ok(oracle.lower(w), ["B", w])
    assert not oracle.classify_ab_ok(oracle.lower(w), ["A", w + 1])
    for n in (3, 8):
        unique = next(m for m in range(1, 1000) if len(realizations(m, n)) == 1)
        column, k, signs = realizations(unique, n)[0]
        assert oracle.decompose_ok(unique, n, [column, k, signs])
        assert not oracle.decompose_ok(unique + 1, n, [column, k, signs])
        assert not oracle.decompose_ok(unique, n, [column, k + 1, signs])
        # in the overlap of two generator intervals only the smaller index is the answer
        twice = next(m for m in range(1, 1000) if len(realizations(m, n)) == 2)
        first, second = realizations(twice, n)
        assert first[1] < second[1]
        assert oracle.decompose_ok(twice, n, first)
        assert not oracle.decompose_ok(twice, n, second)
    # a call that raised reaches the check as None and is a failure
    assert not workloads.answer_ok(["klm", 1, 0, 0, 5], None)


def run_benchmark(workload, trace, cwd=run.ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1"]
    return subprocess.run(argv + ["--seconds", "0", "--trace", str(trace)], capture_output=True, text=True, cwd=cwd)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_exactly_the_declared_metrics(trace, section):
    proc = run_benchmark("point-queries", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("census", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
