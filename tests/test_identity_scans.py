"""The identity suite's brute-force scans against their field-arithmetic references.

identities.fib_shift_converse tests every m up to its bound in integer
coordinates, and identities._check_klm_grid runs M only where the klm
argument is positive.  oracles.fib_shift_converse and oracles.klm_grid
are the old QuadraticReal scan and the full [-5, 5]^3 grid.
"""

from __future__ import annotations

from itertools import product

from beattylab import identities, wythoff
from beattylab.identities import CheckOptions, IdentityCheck, _check_klm_grid, fib_shift_converse
from beattylab.qfield import fib
from beattylab.wythoff import lower
import oracles


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

    def test_every_m_is_evaluated(self, monkeypatch):
        # the scan reads a(m) for each m in [1, bound]; it never solves for m
        seen = []

        def counting_lower(m):
            seen.append(m)
            return lower(m)

        monkeypatch.setattr(wythoff, "lower", counting_lower)  # frac_phi's a(n)
        monkeypatch.setattr(identities, "lower", counting_lower)  # the scan's a(m)
        assert fib_shift_converse(3, 7, 250) == {lower(7) + 7 + fib(3)}
        assert seen == [7, *range(1, 251)]  # a(n) for the target, then a(m) per m


def _grid_record(n: int, fault_offset: int) -> IdentityCheck:
    """The klm-grid record of index n alone, stamped as iter_identity_checks stamps it."""
    ((case, mismatches, zero),) = _check_klm_grid(n, CheckOptions(fault_offset=fault_offset))
    return IdentityCheck("klm-grid", n, case, mismatches, zero, mismatches == zero)


def _valid_triples(n: int) -> list[tuple[int, int, int]]:
    an = lower(n)
    return [(K, L, M) for K, L, M in product(range(-5, 6), repeat=3) if K * an + L * n + M >= 1]


class TestKlmGrid:
    def test_matches_full_grid(self):
        for n in range(1, 61):
            for fault_offset in (0, 1):
                record = _grid_record(n, fault_offset)
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
