"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass lines and the emitted open-question measurements.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product

import pytest

from beattylab import identities
from beattylab.partition import (
    Decomposition,
    PartitionSpec,
    decompose,
    decompositions,
    identity_spec,
    phi_spec,
    verify_partition,
)
from beattylab.qfield import INV_PHI, INV_PHI_SQ, QuadraticReal, SQRT2, fib
from beattylab.three_set import (
    ADMISSIBLE_ROW_CLASSES,
    density_report,
    row_class_census,
)
from beattylab.identities import fib_shift_converse
from beattylab.wythoff import klm, lower
from oracles import density_entry, limiting_prefix_check, linear_form

N_DESK = 100_000


@pytest.fixture(scope="module")
def desk_densities():
    return density_report(N_DESK)


@pytest.fixture(scope="module")
def desk_row_census():
    return row_class_census(N_DESK)


def _within(count: int, total: int, expected: QuadraticReal, tol: Fraction) -> bool:
    frequency = QuadraticReal(count, 0, total)
    band = QuadraticReal(tol.numerator, 0, tol.denominator)
    return -band <= frequency - expected <= band


def test_criterion_01_golden_tables(run_cli):
    started = time.time()
    code, out, _ = run_cli("gen", "--n", "3", "--h", "phi", "--limit", "33")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1:7] == ["1,1,4", "1,2,11", "1,3,15", "1,4,22", "1,5,29", "1,6,33"]
    second = [int(row.split(",")[2]) for row in lines if row.startswith("2,")]
    assert second == [2, 6, 9, 13, 17, 20, 24, 27, 31]
    third = [int(row.split(",")[2]) for row in lines if row.startswith("3,")]
    assert third[:9] == [1, 3, 5, 7, 8, 10, 12, 14, 16]

    code, out, _ = run_cli("classify", "rows", "--N", "6")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(int(r[1]), int(r[2]), int(r[3])) for r in rows] == [
        (1, 2, 4),
        (3, 6, 11),
        (5, 9, 15),
        (7, 13, 22),
        (8, 17, 29),
        (10, 20, 33),
    ]
    assert ["".join(r[4:7]) for r in rows] == ["ABA", "AAA", "BAB", "BBA", "AAA", "BBA"]
    elapsed = time.time() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 golden tables: PASS ({elapsed:.2f}s)")


def test_criterion_02_partition_property():
    started = time.time()
    specs = [identity_spec(n) for n in range(2, 9)]
    specs += [phi_spec(n) for n in (2, 3, 4)]
    specs += [PartitionSpec(2, SQRT2)]
    for spec in specs:
        report = verify_partition(spec, N_DESK)
        assert report.covered and report.disjoint, (spec.describe(), report)
    print(f"\nACCEPTANCE 2 partition property ({len(specs)} specs, limit {N_DESK}): "
          f"PASS ({time.time() - started:.2f}s)")


def test_criterion_03_klm_grid():
    started = time.time()
    for n in range(1, 501):
        an = lower(n)
        for K, L, M in product(range(-5, 6), repeat=3):
            argument = K * an + L * n + M
            if argument < 1:
                continue
            assert klm(K, L, M, n) == lower(argument), (K, L, M, n)
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 KLM grid [-5,5]^3, n<=500: PASS ({elapsed:.2f}s)")


IDENTITY_SUITE = (
    "frac-lower",
    "frac-upper",
    "nested-floors",
    "upper-gap",
    "frac-sum",
    "summary-lower",
    "summary-upper",
    "summary-d",
    "summary-c",
    "d-interval",
    "c-interval",
    "d-case",
    "c-odd-case",
    "fib-floor",
    "phi-power",
    "cassini",
    "col-d-frac",
    "col-c-frac",
    "col-s-frac",
    "col-sum",
)


def test_criterion_04_identity_suite():
    started = time.time()
    for name in IDENTITY_SUITE:
        summary = identities.summarize_identity(name, 10_000)
        assert summary.ok, (name, summary.first_failure)
        assert summary.checks >= 200
    print(f"\nACCEPTANCE 4 exact identity suite at n<=1e4: PASS ({time.time() - started:.2f}s)")


def test_criterion_05_shift_identity_both_directions():
    started = time.time()
    forward = identities.summarize_identity(
        "fib-shift", 1000, identities.CheckOptions(rs=(1, 3, 5, 7))
    )
    assert forward.ok and forward.checks == 4000
    for r in (1, 3):
        for n in range(1, 51):
            expected = lower(n) + n + fib(r)
            assert fib_shift_converse(r, n, 10_000) == {expected}, (r, n)
    elapsed = time.time() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 shift identity forward+converse: PASS ({elapsed:.2f}s)")


def test_criterion_06_row_class_census(desk_row_census):
    census = desk_row_census
    observed = set(census.counts)
    assert observed == ADMISSIBLE_ROW_CLASSES  # all six occur and nothing else
    assert not any(code.endswith("BB") for code in observed)  # (c,d) never (B,B)
    witnesses = {code: census.first_index[code] for code in sorted(observed)}
    print(f"\nACCEPTANCE 6 row classes at k<=1e5: PASS (first occurrences {witnesses})")


def test_criterion_07_densities(desk_densities):
    tol = Fraction(1, 100)
    report = desk_densities
    for name, expected in (
        ("c-half-in-A", QuadraticReal(1, 0, 2)),
        ("a-in-C", INV_PHI),
        ("a-in-D", INV_PHI_SQ),
        ("pair-SC", QuadraticReal(1, 0, 5)),
        ("pair-CS", QuadraticReal(1, 0, 5)),
        ("pair-DS", QuadraticReal(1, 0, 5)),
        ("pair-CD", QuadraticReal(-1, 1, 10)),
        ("pair-SS", QuadraticReal(5, -1, 10)),
    ):
        entry = density_entry(report, name)
        assert entry.expected == expected
        assert _within(entry.count, entry.total, expected, tol), (name, entry.count)
    for name in ("pair-SD", "pair-DC", "pair-CC", "pair-DD"):
        assert density_entry(report, name).count == 0, name
    print(f"\nACCEPTANCE 7 densities at N=1e5 within 0.01: PASS")


def test_criterion_08_limiting_prefixes():
    started = time.time()
    for n in range(2, 17):
        for e in range(0, n):
            assert limiting_prefix_check(n, e), (n, e)
    elapsed = time.time() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 8 limiting 2-adic prefixes n<=16: PASS ({elapsed:.2f}s)")


def test_criterion_09_structural_inverses():
    started = time.time()
    spec = phi_spec(3)
    for m in range(1, 10_001):
        reps = decompositions(m, spec)
        assert 1 <= len(reps) <= 2
        assert len({r.column for r in reps}) == 1  # the column is unique
        canonical = decompose(m, spec)
        assert canonical == reps[0]
        value = linear_form(spec.n, spec.term(canonical.index), canonical.column - 1, canonical.signs)
        assert value == m

    # every realization (column, index, signs) with value <= 1e4 is recovered
    k = 1
    while (t := spec.term(k)) - spec.half_width <= 10_000:
        for j in range(0, spec.n):
            for signs in product((1, -1), repeat=j):
                value = linear_form(spec.n, t, j, signs)
                if 1 <= value <= 10_000:
                    assert Decomposition(j + 1, k, signs) in decompositions(value, spec)
        k += 1

    for n in range(2, 9):
        width = 2 ** (n - 1) - 1
        samples = [2 ** (n - 1), 77, 100, 255, 256, 999, 1024, 5000, 65535, 10**6]
        for t in samples:
            values = sorted(
                linear_form(n, t, j, signs)
                for j in range(0, n)
                for signs in product((1, -1), repeat=j)
            )
            assert values == list(range(t - width, t + width + 1)), (n, t)
    print(f"\nACCEPTANCE 9 structural inverses + interval tiling: PASS ({time.time() - started:.2f}s)")


def test_criterion_10_open_measurements_emitted(desk_densities, desk_row_census):
    report = desk_densities
    s_entry = density_entry(report, "s-col-in-A")
    assert s_entry.status == "empirical-open"
    assert s_entry.expected is None
    assert s_entry.total == N_DESK  # the frequency is the exact rational count/total
    lines = [f"s-col-in-A = {s_entry.count}/{N_DESK} ~ {s_entry.count / N_DESK:.5f}"]
    for code in sorted(ADMISSIBLE_ROW_CLASSES):
        entry = density_entry(report, f"row-class-{code}")
        assert entry.status == "empirical-open"
        assert entry.count == desk_row_census.counts[code]
        lines.append(f"row-class-{code} = {entry.count}/{N_DESK} ~ {entry.count / N_DESK:.5f}")
    print("\nACCEPTANCE 10 open measurements (reported, not asserted):")
    for line in lines:
        print(f"  {line}")
    print("ACCEPTANCE 10 open measurements emitted: PASS")
