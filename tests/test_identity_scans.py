"""The identity suite's brute-force scans against their field-arithmetic references.

identities.fib_shift_converse tests every m up to its bound in integer
coordinates, and identities._check_klm_grid runs M only where the klm
argument is positive.  oracles.fib_shift_converse and oracles.klm_grid
are the old QuadraticReal scan and the full [-5, 5]^3 grid.  Both scans
read a(x) from the scan's identities.LowerTable, which is checked here
against oracles' lower and exact floor of x*phi.
"""

from __future__ import annotations

import tracemalloc
from itertools import product

import pytest

from beattylab import identities, wythoff
from beattylab.identities import (
    CONVERSE_BOUND_CAP,
    MAX_N,
    CheckOptions,
    IdentityCheck,
    LowerTable,
    _check_klm_grid,
    fib_shift_converse,
    summarize_identity,
)
from beattylab.qfield import PHI, fib
from beattylab.wythoff import lower
import oracles


class RecordingTable(LowerTable):
    """A LowerTable that records every index read from the arrays it hands out."""

    def __init__(self):
        super().__init__()
        self.reads = []

    def upto(self, top):
        return _RecordedReads(super().upto(top), self.reads)


class _RecordedReads:
    def __init__(self, values, reads):
        self.values, self.reads = values, reads

    def __getitem__(self, x):
        self.reads.append(x)
        return self.values[x]


class TestFibShiftConverse:
    def test_matches_field_scan(self):
        for r in (1, 3, 5, 7, 9):
            for n in range(1, 51):
                expected = lower(n) + n + fib(r)
                reference = oracles.fib_shift_converse(r, n, 2000)
                assert reference == {expected}, (r, n)
                for bound in (1, 6, expected - 1, expected, 400, 2000):
                    want = {m for m in reference if m <= bound}
                    assert fib_shift_converse(r, n, bound) == want, (r, n, bound)

    def test_every_m_is_evaluated(self):
        # the scan reads a(m) for each m in [1, bound], in order; it never solves for m
        table = RecordingTable()
        assert fib_shift_converse(3, 7, 250, table) == {lower(7) + 7 + fib(3)}
        assert table.reads == list(range(1, 251))

    def test_bound_is_capped(self):
        # the scan's table holds a(m) for every m up to the bound
        assert fib_shift_converse(1, 1, CONVERSE_BOUND_CAP) == {3}
        with pytest.raises(ValueError, match="search_bound must be at most"):
            fib_shift_converse(1, 1, CONVERSE_BOUND_CAP + 1)

    def test_scan_shares_one_table(self, monkeypatch):
        # both shift indices at every index read the scan's one table
        tables = []

        def recording_converse(r, n, bound, table):
            tables.append(table)
            return fib_shift_converse(r, n, bound, table)

        monkeypatch.setattr(identities, "fib_shift_converse", recording_converse)
        summary = summarize_identity("fib-shift-converse", 20)
        assert summary.ok and summary.checks == len(tables) == 40
        assert all(table is tables[0] for table in tables)


def _grid_record(n: int, fault_offset: int, table: LowerTable | None = None) -> IdentityCheck:
    """The klm-grid record of index n alone, stamped as iter_identity_checks stamps it."""
    options = CheckOptions(fault_offset=fault_offset)
    ((case, mismatches, zero),) = _check_klm_grid(n, options, LowerTable() if table is None else table)
    return IdentityCheck("klm-grid", n, case, mismatches, zero, mismatches == zero)


def _valid_triples(n: int) -> list[tuple[int, int, int]]:
    an = lower(n)
    return [(K, L, M) for K, L, M in product(range(-5, 6), repeat=3) if K * an + L * n + M >= 1]


class TestKlmGrid:
    def test_matches_full_grid(self):
        table = LowerTable()  # grown index by index, as one scan grows it
        for n in range(1, 61):
            for fault_offset in (0, 1):
                record = _grid_record(n, fault_offset, table)
                mismatches, case = oracles.klm_grid(n, fault_offset)
                assert (record.lhs, record.case) == (mismatches, case), (n, fault_offset)
                assert record.passed is (mismatches == 0)
                if fault_offset:
                    assert mismatches == len(_valid_triples(n)) and not record.passed

    def test_klm_called_once_per_valid_triple_in_order(self, monkeypatch):
        calls = []

        def counting_klm(K, L, M, n):
            calls.append((K, L, M))
            return wythoff.klm(K, L, M, n)

        monkeypatch.setattr(identities, "klm", counting_klm)
        for n in range(1, 61):
            calls.clear()
            assert _grid_record(n, 0).passed
            assert calls == _valid_triples(n), n

    def test_partial_fault_reports_same_first_triple(self, monkeypatch):
        # a fault on some triples only: the count and the first triple in
        # (K, L, M) order must agree with the full grid's
        def faulty_klm(K, L, M, n):
            return wythoff.klm(K, L, M, n) + (K < 0 and M == 2)

        monkeypatch.setattr(identities, "klm", faulty_klm)
        monkeypatch.setattr(oracles, "klm", faulty_klm)
        for n in range(1, 61):
            record = _grid_record(n, 0)
            mismatches, case = oracles.klm_grid(n)
            assert mismatches > 0
            assert (record.lhs, record.case) == (mismatches, case), n

    def test_table_from_a_faulty_lower_fails(self, monkeypatch):
        # klm stays right; a table built by a lower that is off at every
        # seventh argument must fail exactly the triples that read one
        with monkeypatch.context() as patch:
            patch.setattr(identities, "lower", lambda x: lower(x) + (x % 7 == 0))
            table = LowerTable()
            table.upto(5 * (lower(60) + 60 + 1))
        for n in range(1, 61):
            record = _grid_record(n, 0, table)
            an = lower(n)
            want = sum((K * an + L * n + M) % 7 == 0 for K, L, M in _valid_triples(n))
            assert (record.lhs, record.passed) == (want, False), n

    def test_patched_lower_lasts_one_scan(self, monkeypatch):
        # every scan builds its own table with the lower bound at the time,
        # so a patched lower takes effect at once and leaves nothing behind
        assert summarize_identity("klm-grid", 60).ok
        with monkeypatch.context() as patch:
            patch.setattr(identities, "lower", lambda x: lower(x) + (x > 150))
            faulty = summarize_identity("klm-grid", 60)
        assert faulty.failures > 0 and faulty.first_failure.n > 1
        assert summarize_identity("klm-grid", 60).ok


def _tops(n_max: int = 60) -> set[int]:
    """The tops a klm-grid scan over n <= n_max asks its table for."""
    return {5 * (lower(n) + n + 1) for n in range(1, n_max + 1)}


class TestLowerTable:
    def test_matches_oracle_lower_at_every_requested_size(self):
        converse = {1, 6, 399, 400, 401, 2000, 9000, CONVERSE_BOUND_CAP}
        size = 1 << CONVERSE_BOUND_CAP.bit_length()
        reference = [0, *map(oracles.lower, range(1, size))]
        assert reference[1:] == [oracles.beatty_term(PHI, x) for x in range(1, size)]
        for top in sorted(_tops() | converse):
            values = LowerTable().upto(top)
            assert len(values) == 1 << top.bit_length(), top  # the power of two past top
            assert list(values) == reference[: len(values)], top

    def test_grows_in_place_to_powers_of_two(self):
        # one scan's tops only rise; one past the size grows the array in place
        # to the power of two past it
        table = LowerTable()
        first = table.values
        for top in sorted(_tops()):
            assert table.upto(top) is first and len(first) == 1 << top.bit_length(), top

    def test_largest_table_stays_small(self):
        # MAX_N's largest grid argument asks for 2^17 entries of 8 bytes; a
        # list of ints would hold a 28-byte object per entry besides
        top = 5 * (lower(MAX_N) + MAX_N + 1)
        tracemalloc.start()
        try:
            values = LowerTable().upto(top)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(values) == 1 << top.bit_length() and values[top] == lower(top)
        assert peak < 2.5 * 2**20, peak
