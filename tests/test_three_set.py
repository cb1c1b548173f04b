"""Rows, closed forms, and censuses of the three-column extension."""

from __future__ import annotations

import random
import tracemalloc
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import isqrt

import oracles
import pytest

from beattylab import partition, three_set
from beattylab.partition import MAX_LIMIT, build_columns, column_labels, decompose, phi_spec
from beattylab.qfield import INV_PHI, INV_PHI_SQ, ONE, PHI, QuadraticReal
from beattylab.three_set import (
    ADMISSIBLE_ROW_CLASSES,
    ALL_PAIR_CLASSES,
    MAX_INDEX,
    ab_over_scd_census,
    col_s,
    density_report,
    row_class_census,
    row_class_keys,
    row_columns,
)
from beattylab.identities import S_OFFSETS_EVEN, S_OFFSETS_ODD, frac_col_c, frac_col_d, frac_col_s
from beattylab.wythoff import ABLabel, c_half, classify_ab, frac_phi, lower, standard_fill, upper
from oracles import CDLabel, ab_label, cd_label, col_c, col_d, density_entry, row_class

TABLE_ROWS = [(1, 2, 4), (3, 6, 11), (5, 9, 15), (7, 13, 22), (8, 17, 29), (10, 20, 33)]
TABLE_CLASSES = ["ABA", "AAA", "BAB", "BBA", "AAA", "BBA"]

# partition column 1 is D, 2 is C, 3 is S
LETTER = {1: "D", 2: "C", 3: "S"}


def closed_form_labels(limit: int) -> bytearray:
    """Partition column of every value up to limit, filled from the oracles' col_d, col_c, col_s."""
    labels = bytearray(limit + 1)
    for column, term in ((1, col_d), (2, col_c), (3, oracles.col_s)):
        k = 1
        while term(k) <= limit:
            labels[term(k)] = column
            k += 1
    return labels


def tally(codes) -> tuple[dict[str, int], dict[str, int]]:
    """Counts and first indices of the codes of k = 1, 2, ..."""
    counts: dict[str, int] = {}
    first: dict[str, int] = {}
    for k, code in enumerate(codes, start=1):
        counts[code] = counts.get(code, 0) + 1
        first.setdefault(code, k)
    return counts, first


def row_class_recount(limit: int) -> tuple[dict[str, int], dict[str, int]]:
    """Counts and first indices of row_class(k).code, one per-point call per k."""
    return tally(row_class(k).code for k in range(1, limit + 1))


ORACLE_TOP = 10**5


def scan_limits() -> list[int]:
    """Limits where the bytes scans could go wrong: small ones, Fibonacci numbers and block edges, +-1.

    _shift_in works in blocks of _BLOCK bytes over buffers of limit
    codes, d(limit) + 1 tags for classify rows and the row scan, and
    b(limit) + 1 tags and a(limit) c-half marks for the oracles' pair
    and c-half scans, so each limit where one of those sizes reaches a
    multiple of _BLOCK is taken with its neighbours.
    """
    limits = set(range(1, 201)) | {ORACLE_TOP}
    f, g = 1, 2
    while g <= ORACLE_TOP:
        limits |= {g - 1, g, g + 1}
        f, g = g, f + g
    indices = range(1, ORACLE_TOP + 1)
    for size in (lambda n: n, lambda n: col_d(n) + 1, lambda n: upper(n) + 1, lower):
        for edge in range(three_set._BLOCK, size(ORACLE_TOP) + 1, three_set._BLOCK):
            n = indices[bisect_left(indices, edge, key=size)]  # the first limit whose size reaches edge
            limits |= {n - 1, n, n + 1}
    return sorted(limits & set(indices))


class PrefixTally:
    """Codes of every index up to ORACLE_TOP from a per-index scan, tallied over any prefix.

    A code depends on its index only, so the codes up to a limit are a
    prefix of the codes up to ORACLE_TOP.
    """

    def __init__(self, codes):
        self.codes = list(codes)
        self.first = tally(self.codes)[1]

    def __call__(self, limit: int) -> tuple[dict[str, int], dict[str, int]]:
        first = {code: k for code, k in self.first.items() if k <= limit}
        return dict(Counter(self.codes[:limit])), first


@pytest.fixture(scope="module")
def oracle_codes() -> tuple[PrefixTally, PrefixTally]:
    return PrefixTally(oracles.row_codes(ORACLE_TOP)), PrefixTally(oracles.pair_codes(ORACLE_TOP))


class TestRows:
    def test_first_six_rows(self):
        for k, expected in enumerate(TABLE_ROWS, start=1):
            assert (col_s(k), col_c(k), col_d(k)) == expected

    def test_rows_match_partition_columns(self):
        limit = col_d(200) + 3
        cols = build_columns(phi_spec(3), limit)
        for k in range(1, 201):
            assert col_d(k) == cols[0][k - 1]
            assert col_c(k) == cols[1][k - 1]
            assert col_s(k) == cols[2][k - 1]

    def test_rows_read_from_the_columns_match_scd(self):
        limit = 20000
        s, c, d, *planes = row_columns(limit)
        values = ["".join(runs).split()[:limit] for runs in (s, c, d)]  # the runs go on to d(limit)
        assert values == [[str(f(k)) for k in range(1, limit + 1)] for f in (oracles.col_s, col_c, col_d)]
        codes = [row_class(k).code for k in range(1, limit + 1)]
        assert [plane.decode() for plane in planes] == ["".join(code[i] for code in codes) for i in range(3)]

    def test_domain(self):
        for limit in (0, MAX_INDEX + 1):
            with pytest.raises(ValueError, match="limit must be"):
                row_columns(limit)
        with pytest.raises(ValueError):
            row_class(0)
        for census in (row_class_census, ab_over_scd_census, density_report):
            with pytest.raises(ValueError, match="limit must be positive, got 0"):
                census(0)
            with pytest.raises(ValueError, match=f"limit must be at most {MAX_INDEX}, got {MAX_INDEX + 1}"):
                census(MAX_INDEX + 1)
        # the row census at the cap tags [1, d(MAX_INDEX)], which the sweep accepts
        assert col_d(MAX_INDEX) <= MAX_LIMIT

    def test_row_codes_checks_its_range_before_the_word(self, monkeypatch):
        # the tag buffer and the Fibonacci word run to d(limit), about 5.9 bytes per index each
        def no_word(*args):
            raise AssertionError(f"a buffer built for a rejected limit: {args}")

        monkeypatch.setattr(three_set, "standard_fill", no_word)
        monkeypatch.setattr(partition, "column_labels", no_word)
        for limit in (MAX_INDEX + 1, 10**19):
            with pytest.raises(ValueError, match=f"limit must be at most {MAX_INDEX}, got {limit}"):
                row_columns(limit)
        with pytest.raises(ValueError, match="limit must be positive, got 0"):
            row_columns(0)

    def test_c_gaps_are_three_or_four(self):
        for k in range(1, 10**4):
            assert col_c(k + 1) - col_c(k) in (3, 4)

    def test_lower_wythoff_covers_with_shift(self):
        # every positive integer is a lower Wythoff value or one more than one
        values = set()
        n = 1
        while lower(n) <= 10**4 + 1:
            values.add(lower(n))
            n += 1
        for m in range(1, 10**4):
            assert m in values or m - 1 in values


class TestFracClosedForms:
    def test_d_column_examples(self):
        assert frac_col_d(1) == ONE - QuadraticReal(-5, 3, 2) * (PHI - 1)
        for k in (1, 2, 3, 17):
            assert frac_col_d(k) == frac_phi(col_d(k))

    def test_d_column_scan(self):
        for k in range(1, 1500):
            assert frac_col_d(k) == frac_phi(col_d(k))

    def test_d_breakpoint_equivalence(self):
        mixed = QuadraticReal(5, 1, 10)  # (5 + sqrt5)/10
        for k in range(1, 1500):
            below = frac_phi(k) < mixed
            assert (frac_col_d(k) > INV_PHI_SQ) == below

    def test_breakpoints_cut_unit_interval_exactly(self):
        # (0, 1/sqrt5), (1/sqrt5, (5+sqrt5)/10), ((5+sqrt5)/10, 1) tile (0, 1)
        inv_sqrt5 = QuadraticReal(0, 1, 5)
        mixed = QuadraticReal(5, 1, 10)
        assert QuadraticReal(0) < inv_sqrt5 < mixed < ONE
        lengths = (inv_sqrt5, mixed - inv_sqrt5, ONE - mixed)
        assert lengths[0] + lengths[1] + lengths[2] == ONE

    def test_c_column_cases(self):
        case1, value1 = frac_col_c(1)
        assert case1 == "above-inv-sqrt5"
        case2, value2 = frac_col_c(2)
        assert case2 == "below-inv-sqrt5"
        for k in range(1, 1500):
            assert frac_col_c(k)[1] == frac_phi(col_c(k))

    def test_c_d_weighted_sum(self):
        for k in range(1, 1500):
            total = frac_col_c(k)[1] + PHI * frac_col_d(k)
            assert total == ONE or total == QuadraticReal(2)

    def test_s_column_offsets(self):
        offset, value = frac_col_s(1)
        assert offset == QuadraticReal(3, -1, 4)
        assert value == frac_phi(col_s(1))
        for k in range(1, 1500):
            offset, value = frac_col_s(k)
            assert value == frac_phi(col_s(k))
            assert offset in (S_OFFSETS_EVEN if k % 2 == 0 else S_OFFSETS_ODD)


class TestRowClasses:
    def test_table_classes(self):
        assert [row_class(k).code for k in range(1, 7)] == TABLE_CLASSES

    def test_census_small(self):
        census = row_class_census(6)
        assert census.counts == {"AAA": 2, "ABA": 1, "BAB": 1, "BBA": 2}
        assert census.first_index == {"ABA": 1, "AAA": 2, "BAB": 3, "BBA": 4}

    def test_census_single(self):
        census = row_class_census(1)
        assert census.counts == {"ABA": 1}

    def test_census_scan(self):
        census = row_class_census(20000)
        assert set(census.counts) == ADMISSIBLE_ROW_CLASSES
        assert "ABB" not in census.counts and "BBB" not in census.counts

    @pytest.mark.parametrize("limit", [*range(1, 61), 2000])
    def test_census_matches_per_point_recount(self, limit):
        census = row_class_census(limit)
        assert (census.counts, census.first_index) == row_class_recount(limit)

    def test_row_class_agrees_with_membership(self):
        for k in range(1, 500):
            cls = row_class(k)
            assert cls.s == classify_ab(col_s(k)).label
            assert cls.c == classify_ab(col_c(k)).label
            assert cls.d == classify_ab(col_d(k)).label

    def test_row_class_keys_put_admissible_classes_first(self):
        assert row_class_keys({"ABA": 1}) == sorted(ADMISSIBLE_ROW_CLASSES)
        others = {"BBB": 1, "AAA": 2, "ABB": 1}
        assert row_class_keys(others) == [*sorted(ADMISSIBLE_ROW_CLASSES), "ABB", "BBB"]


class TestShiftIn:
    @pytest.mark.parametrize("shift", [1, 2])
    def test_largest_byte_the_contract_allows(self, shift):
        # out[i] = 2**(8 - shift) - 1 stays in its byte across block edges;
        # one more and the carry lands in the byte before
        size = 2 * three_set._BLOCK + 3
        top = 2 ** (8 - shift) - 1
        plane = bytes(i % 2**shift for i in range(size))
        out = bytearray([top]) * size
        three_set._shift_in(out, shift, plane)
        assert out == bytes(top << shift | bit for bit in plane)
        over = bytearray(size)
        over[-1] = top + 1
        three_set._shift_in(over, shift, bytes(size))
        assert over[-2:] == b"\x01\x00"


class TestColumnLookup:
    def test_examples(self):
        spec = phi_spec(3)
        assert LETTER[decompose(1, spec).column] == "S"
        assert LETTER[decompose(2, spec).column] == "C"
        assert LETTER[decompose(4, spec).column] == "D"

    def test_every_integer_has_one_column(self):
        labels = column_labels(phi_spec(3), 10**5)
        assert all(labels[1:])

    def test_lookup_agrees_with_label_array(self):
        limit = upper(2000)
        labels = column_labels(phi_spec(3), limit)
        assert labels == closed_form_labels(limit)
        for m in range(1, 2001):
            assert decompose(m, phi_spec(3)).column == labels[m]


class TestPairCensus:
    def test_zero_cells_empty(self):
        census = ab_over_scd_census(20000)
        for pair in ("SD", "DC", "CC", "DD"):
            assert census.counts.get(pair, 0) == 0

    def test_first_occurrences(self):
        census = ab_over_scd_census(50)
        assert census.first_index["SC"] == 1  # a(1)=1 in S, b(1)=2 in C
        assert census.first_index["SS"] == 2  # a(2)=3, b(2)=5 both in S
        assert census.first_index["DS"] == 3  # a(3)=4 in D, b(3)=7 in S
        assert census.first_index["CS"] == 4  # a(4)=6 in C, b(4)=10 in S
        assert census.first_index["CD"] == 6  # a(6)=9 in C, b(6)=15 in D

    @pytest.mark.parametrize("limit", [*range(1, 61), 2000])
    def test_census_matches_per_point_recount(self, limit):
        spec = phi_spec(3)
        census = ab_over_scd_census(limit)
        recount = tally(
            LETTER[decompose(lower(n), spec).column] + LETTER[decompose(upper(n), spec).column]
            for n in range(1, limit + 1)
        )
        assert (census.counts, census.first_index) == recount

    def test_pair_label_definition(self):
        spec = phi_spec(3)
        census = ab_over_scd_census(200)
        recount: dict[str, int] = {}
        for n in range(1, 201):
            pair = LETTER[decompose(lower(n), spec).column] + LETTER[decompose(upper(n), spec).column]
            recount[pair] = recount.get(pair, 0) + 1
        assert recount == census.counts


class TestDensities:
    def test_report_at_desk_scale(self):
        report = density_report(20000)
        half = density_entry(report, "c-half-in-A")
        assert abs(Fraction(half.count, half.total) - Fraction(1, 2)) < Fraction(1, 100)
        assert half.expected == QuadraticReal(1, 0, 2)
        assert half.status == "proved-density"
        a_in_c = density_entry(report, "a-in-C")
        assert a_in_c.expected == INV_PHI
        assert abs(a_in_c.count / a_in_c.total - float(INV_PHI)) < 0.01
        a_in_d = density_entry(report, "a-in-D")
        assert a_in_d.expected == INV_PHI_SQ
        assert a_in_c.count + a_in_d.count == report.total

    def test_open_quantities_flagged(self):
        report = density_report(2000)
        assert density_entry(report, "s-col-in-A").status == "empirical-open"
        assert density_entry(report, "s-col-in-A").expected is None
        for code in ADMISSIBLE_ROW_CLASSES:
            entry = density_entry(report, f"row-class-{code}")
            assert entry.status == "empirical-open"
            assert entry.expected is None

    def test_s_column_in_a_recount(self):
        report = density_report(2000)
        recount = sum(ab_label(col_s(n)) is ABLabel.A for n in range(1, 2001))
        assert density_entry(report, "s-col-in-A").count == recount

    @pytest.mark.parametrize("limit", [*range(1, 61), 2000])
    def test_proved_counts_recount(self, limit):
        report = density_report(limit)
        c_in_a = sum(ab_label(c_half(n)) is ABLabel.A for n in range(1, limit + 1))
        a_in_c = sum(cd_label(lower(n)) is CDLabel.C for n in range(1, limit + 1))
        assert density_entry(report, "c-half-in-A").count == c_in_a
        assert density_entry(report, "a-in-C").count == a_in_c
        assert density_entry(report, "a-in-D").count == limit - a_in_c

    def test_pair_reference_values(self):
        report = density_report(20000)
        for code in ALL_PAIR_CLASSES:
            entry = density_entry(report, f"pair-{code}")
            assert entry.status == "reported-density"
            assert abs(entry.count / entry.total - float(entry.expected)) < 0.01

    @pytest.mark.parametrize("census", [row_class_census, ab_over_scd_census, density_report])
    def test_peak_memory_is_constant(self, census):
        # the floor sums carry a few integers of O(log N) bits; a buffer of
        # one byte per index would take 1 MB at the cap
        census(100)
        tracemalloc.start()
        try:
            census(MAX_INDEX)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_c_half_in_a_is_every_odd_index(self):
        # c_half(2j) = b(j) is B, and c_half(2j - 1) is b(j) - 1 or b(j) - 2, both A
        assert [ab_label(c_half(i)).value for i in range(1, 2001)] == ["A", "B"] * 1000


class TestAgainstPerIndexScans:
    @pytest.mark.parametrize("limit", scan_limits())
    def test_censuses_and_proved_counts(self, limit, oracle_codes):
        rows, pairs = oracle_codes
        expected_rows = rows(limit)
        census = row_class_census(limit)
        assert (census.counts, census.first_index) == expected_rows
        planes = (plane.decode() for plane in three_set.row_columns(limit)[3:])
        assert list(map("".join, zip(*planes))) == rows.codes[:limit]
        assert scan_census(oracles.row_scan(limit), limit, oracles.ROW_CLASSES) == expected_rows
        census = ab_over_scd_census(limit)
        assert (census.counts, census.first_index) == pairs(limit)
        assert scan_census(oracles.pair_scan(limit), limit, oracles.PAIR_CLASSES) == pairs(limit)
        report = density_report(limit)
        for code in ADMISSIBLE_ROW_CLASSES:
            assert density_entry(report, f"row-class-{code}").count == expected_rows[0].get(code, 0)
        for code in ALL_PAIR_CLASSES:
            assert density_entry(report, f"pair-{code}").count == census.counts.get(code, 0)
        c_in_a, a_in_c = oracles.c_half_counts(limit)
        assert oracles.c_half_scan(limit) == (c_in_a, a_in_c)
        assert density_entry(report, "c-half-in-A").count == c_in_a
        assert density_entry(report, "a-in-C").count == a_in_c
        assert density_entry(report, "a-in-D").count == limit - a_in_c


TABLE_TOP = 2 * 10**5


def scan_census(codes: bytes, limit: int, names: dict[int, str]) -> tuple[dict[str, int], dict[str, int]]:
    """Counts and first indices of the first limit scan codes; a code depends on its index only."""
    census = oracles.tally(codes[:limit], names)
    return census.counts, census.first_index


class TestStepTables:
    """The step tables against the byte scans of tests/oracles.py.

    The tables were fitted, so these checks are their evidence; the CI
    job checks every index up to MAX_INDEX.
    """

    def test_row_classes_at_every_index(self):
        expected = [oracles.ROW_CLASSES[code] for code in oracles.row_scan(TABLE_TOP)]
        assert oracles.table_row_codes(TABLE_TOP) == expected

    def test_pair_classes_at_every_index(self):
        expected = [oracles.PAIR_CLASSES[code] for code in oracles.pair_scan(TABLE_TOP)]
        assert oracles.table_codes(TABLE_TOP, three_set._PAIR_SLOPE, three_set._PAIRS) == expected

    def test_a_columns_at_every_index(self):
        # word[m - 1] is C exactly when m is some c_half(i)
        word = bytearray(lower(TABLE_TOP))
        standard_fill(word, 2 * INV_PHI_SQ, b"C", b"D")
        expected = [chr(word[(n + isqrt(5 * n * n)) // 2 - 1]) for n in range(1, TABLE_TOP + 1)]
        assert oracles.table_codes(TABLE_TOP, three_set._PHI, three_set._A_COLUMNS) == expected

    def test_first_indices_are_the_first_occurrences(self):
        rows = oracles.table_row_codes(20)
        assert three_set._ROW_FIRST == {code: rows.index(code) + 1 for code in sorted(set(rows), key=rows.index)}
        assert list(three_set._ROW_FIRST.values()) == sorted(three_set._ROW_FIRST.values())
        pairs = oracles.table_codes(20, three_set._PAIR_SLOPE, three_set._PAIRS)
        assert three_set._PAIR_FIRST == {code: pairs.index(code) + 1 for code in sorted(set(pairs), key=pairs.index)}
        assert list(three_set._PAIR_FIRST.values()) == sorted(three_set._PAIR_FIRST.values())

    @pytest.mark.parametrize(
        "limits",
        [range(1, 2001), sorted(random.Random(12).sample(range(1, MAX_INDEX + 1), 30))],
        ids=["every-N-to-2000", "30-random-N-to-10^6"],
    )
    def test_censuses_equal_the_scan(self, limits):
        top = max(limits)
        rows, pairs = oracles.row_scan(top), oracles.pair_scan(top)
        for limit in limits:
            expected_rows = scan_census(rows, limit, oracles.ROW_CLASSES)
            census = row_class_census(limit)
            assert (census.counts, census.first_index) == expected_rows, limit
            assert list(census.counts) == list(census.first_index)  # in order of first occurrence
            expected_pairs = scan_census(pairs, limit, oracles.PAIR_CLASSES)
            census = ab_over_scd_census(limit)
            assert (census.counts, census.first_index) == expected_pairs, limit
            assert list(census.counts) == list(census.first_index)
            counts = {entry.name: entry.count for entry in density_report(limit).entries}
            c_in_a, a_in_c = oracles.c_half_scan(limit)
            assert (counts["c-half-in-A"], counts["a-in-C"], counts["a-in-D"]) == (c_in_a, a_in_c, limit - a_in_c)
            for code in ADMISSIBLE_ROW_CLASSES:
                assert counts[f"row-class-{code}"] == expected_rows[0].get(code, 0)
            assert counts["s-col-in-A"] == sum(n for code, n in expected_rows[0].items() if code[0] == "A")
            for code in ALL_PAIR_CLASSES:
                assert counts[f"pair-{code}"] == expected_pairs[0].get(code, 0)
