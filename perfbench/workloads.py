"""The benchmark workloads: the inputs each one generates from its seed,
its work unit, and what counts as a correct answer.

A job is what one fresh worker interpreter runs (one pass): either a list
of CLI calls, {"ops": [{"key", "argv"}]}, or a batch of library calls
that the worker draws from a seed, {"queries": {"seed", "pass", "count",
"chunk"}}.  `key` names the input whose output must match the digest
captured at the seed commit; `{tmp}` in an argv stands for the pass's
temp directory.
"""

from __future__ import annotations

import itertools
import random

import oracle


def cli_op(*argv: str) -> dict:
    return {"key": " ".join(argv), "argv": list(argv)}


def identity_suite_ops(size: int) -> list[dict]:
    return [cli_op("identities", "--N", str(size))]


def census_ops(size: int) -> list[dict]:
    n = str(size)
    return [
        cli_op("classify", "census", "--N", n),
        cli_op("classify", "ab-over-scd", "--N", n),
        cli_op("density", "--N", n),
    ]


def partition_sweep_ops(size: int) -> list[dict]:
    common = ["--h", "phi", "--limit", str(size)]
    return [
        cli_op("verify", "--n", "3", *common, "--out", "{tmp}/verify3.csv"),
        cli_op("verify", "--n", "8", *common, "--out", "{tmp}/verify8.csv"),
        cli_op("gen", "--n", "3", *common, "--out", "{tmp}/gen3.csv"),
        cli_op("gen", "--n", "3", *common, "--format", "json", "--out", "{tmp}/gen3.json"),
    ]


def identity_records(table: str) -> int:
    """Sum of the `checks` column of the plain `identities` table."""
    rows = table.splitlines()[1:-1]  # header line and the `overall:` verdict
    return sum(int(row.split()[1]) for row in rows)


class CliWorkload:
    """Repeats one list of CLI calls whose size the seed picks from `sizes`.

    The sizes lie within 1% of each other, so seeds vary the input
    without moving its cost by more than run-to-run noise.
    """

    def __init__(self, name, sizes, make_ops, units, unit_name):
        self.name = name
        self.sizes = sizes
        self.make_ops = make_ops
        self.units = units  # (job, worker result) -> work units of the pass
        self.unit_name = unit_name

    def size(self, seed: int) -> int:
        return random.Random(seed).choice(self.sizes)

    def params(self, seed: int) -> dict:
        size = self.size(seed)
        return {"size": size, "argv": [op["argv"] for op in self.make_ops(size)], "unit": self.unit_name}

    def jobs(self, seed: int):
        size = self.size(seed)
        job = {"size": size, "ops": self.make_ops(size)}
        while True:
            yield job


QUERY_BATCH = 4000  # library calls per worker interpreter
QUERY_CHUNK = 1000  # library calls between two host-speed probes
MAX_DIGITS = 30  # magnitudes up to 10^30


def magnitude(rng: random.Random) -> int:
    """Log-uniform by decade: a digit count in 1..30, then a value with that many digits."""
    digits = rng.randint(1, MAX_DIGITS)
    return rng.randrange(10 ** (digits - 1), 10**digits)


def draw_query(rng: random.Random) -> list:
    kind = rng.randrange(4)
    if kind < 2:
        return ["decompose", magnitude(rng), (3, 8)[kind]]
    if kind == 2:
        return ["classify_ab", magnitude(rng)]
    while True:  # klm needs a positive argument K*a(n) + L*n + M
        K, L, M = (rng.randint(-5, 5) for _ in range(3))
        n = magnitude(rng)
        if K * oracle.lower(n) + L * n + M >= 1:
            return ["klm", K, L, M, n]


def query_stream(seed: int, pass_index: int):
    """The queries of one pass: the same seed and pass give the same queries."""
    rng = random.Random(f"{seed}/{pass_index}")
    while True:
        yield draw_query(rng)


def answer_ok(query: list, answer) -> bool:
    """Check one answer, in plain form (see worker.plain_answer), with the benchmark's own oracle."""
    kind, *args = query
    if answer is None:  # the call raised
        return False
    if kind == "decompose":
        return oracle.decompose_ok(args[0], args[1], answer)
    if kind == "classify_ab":
        return oracle.classify_ab_ok(args[0], answer)
    return oracle.klm_ok(*args, answer)


class QueryWorkload:
    """A closed loop of single library calls, one caller, one call at a time.

    The worker draws each pass's queries itself from the seed and the pass
    number, and checks each answer as it goes, so neither the queries nor
    the answers of a whole pass are held in memory next to the program's.
    """

    name = "point-queries"
    unit_name = "queries"

    def params(self, seed: int) -> dict:
        return {
            "generator": "seeded stream: decompose(m, phi_spec(3|8)), classify_ab(m), "
            "klm(K, L, M, n) with K, L, M in [-5, 5]; m, n log-uniform by decade up to 10^30",
            "batch": QUERY_BATCH,
            "unit": self.unit_name,
        }

    def jobs(self, seed: int):
        for pass_index in itertools.count():
            yield {"queries": {"seed": seed, "pass": pass_index, "count": QUERY_BATCH, "chunk": QUERY_CHUNK}}

    def units(self, job: dict, result: dict) -> int:
        return result["attempted"]


WORKLOADS = {
    w.name: w
    for w in (
        CliWorkload(
            "identity-suite",
            (148, 149, 150, 151, 152),
            identity_suite_ops,
            lambda job, result: identity_records(result["ops"][0]["stdout"]),
            "identity records",
        ),
        CliWorkload(
            "census",
            (29700, 29850, 30000, 30150, 30300),
            census_ops,
            lambda job, result: 3 * job["size"],
            "indices scanned",
        ),
        CliWorkload(
            "partition-sweep",
            (297000, 298500, 300000, 301500, 303000),
            partition_sweep_ops,
            lambda job, result: 4 * job["size"],
            "integers verified or emitted",
        ),
        QueryWorkload(),
    )
}

# Small inputs the benchmark's own tests run; their seed-commit outputs are kept too.
CONTROL_OPS = [cli_op("identities", "--N", "3"), cli_op("gen", "--n", "3", "--h", "phi", "--limit", "40")]
