"""Beatty sequences, the KLM closed form, and the fractional-part identities."""

from __future__ import annotations

import dataclasses
import re

import pytest

from beattylab.identities import (
    C_FRAC_EVEN,
    C_FRAC_ODD,
    D_FRAC_ABOVE_HALF,
    D_FRAC_BELOW_HALF,
    IDENTITIES,
    CheckOptions,
    fib_shift_converse,
    frac_lower,
    frac_upper,
    iter_identity_checks,
)
from beattylab.qfield import (
    INV_PHI,
    INV_PHI_CUBED,
    INV_PHI_SQ,
    LAMBDA_SPLIT,
    ONE,
    ONE_HALF,
    PHI,
    PHI_CUBED,
    PHI_SQ,
    QuadraticReal,
    SQRT2,
    ZERO,
    fib,
)
from beattylab.wythoff import (
    ABLabel,
    c_half,
    classify_ab,
    d_cubed,
    frac_phi,
    klm,
    lower,
    upper,
)
from oracles import (
    UNIT_INTERVALS,
    CDLabel,
    IntervalLabel,
    ab_label,
    beatty_term,
    cd_label,
    classify_cd,
    unit_interval_label,
)

N_SCAN = 2000


def cd_pair_class(n: int) -> tuple[ABLabel, ABLabel]:
    """A/B labels of the pair (floor(n*phi^2/2), floor(n*phi^3))."""
    return (classify_ab(c_half(n)).label, classify_ab(d_cubed(n)).label)


def ab_pair_class(n: int) -> tuple[CDLabel, CDLabel]:
    """C/D labels of the Wythoff pair (a(n), b(n))."""
    return (cd_label(lower(n)), cd_label(upper(n)))


class TestSequences:
    def test_first_values(self):
        assert [lower(n) for n in range(1, 9)] == [1, 3, 4, 6, 8, 9, 11, 12]
        assert [upper(n) for n in range(1, 7)] == [2, 5, 7, 10, 13, 15]

    def test_nested_floor_relations(self):
        assert lower(lower(2)) == lower(3) == 4 == upper(2) - 1
        assert lower(upper(2)) == lower(5) == 8 == lower(2) + upper(2)

    def test_nonpositive_rejected(self):
        # every per-point kernel raises before any arithmetic: unchecked,
        # lower(-3) would return (-3 + isqrt(45))//2 = 1
        kernels = [(fn, "n") for fn in (lower, upper, c_half, d_cubed, frac_phi, lambda n: klm(0, 0, 1, n))]
        for fn, name in kernels + [(classify_ab, "m")]:
            for n in (0, -1, -(10**30)):
                with pytest.raises(ValueError, match=re.escape(f"{name} must be a positive integer, got {n}")):
                    fn(n)

    def test_floor_matches_field_arithmetic(self):
        for n in range(1, 500):
            assert lower(n) == (PHI * n).floor()
            assert upper(n) == (PHI_SQ * n).floor()
            assert c_half(n) == (PHI_SQ * n * QuadraticReal(1, 0, 2)).floor()
            assert d_cubed(n) == (PHI_CUBED * n).floor()

    def test_beatty_complement(self):
        limit = 10**5
        seen = bytearray(limit + 1)
        n = 1
        while lower(n) <= limit:
            assert not seen[lower(n)]
            seen[lower(n)] = 1
            n += 1
        n = 1
        while upper(n) <= limit:
            assert not seen[upper(n)]
            seen[upper(n)] = 1
            n += 1
        assert all(seen[1:])

    def test_half_cubed_complement(self):
        limit = 10**5
        seen = bytearray(limit + 1)
        n = 1
        while c_half(n) <= limit:
            assert not seen[c_half(n)]
            seen[c_half(n)] = 1
            n += 1
        n = 1
        while d_cubed(n) <= limit:
            assert not seen[d_cubed(n)]
            seen[d_cubed(n)] = 1
            n += 1
        assert all(seen[1:])


class TestBeattyTerm:
    def test_named_values(self):
        assert beatty_term(PHI_CUBED, 1) == 4
        assert beatty_term(PHI_SQ * ONE_HALF, 2) == 2
        assert [beatty_term(SQRT2 + 1, k) for k in range(1, 6)] == [2, 4, 7, 9, 12]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beatty_term(PHI, 0)
        with pytest.raises(ValueError):
            beatty_term(ZERO, 1)
        with pytest.raises(ValueError):
            beatty_term(-PHI, 1)


class TestKLM:
    def test_examples(self):
        assert klm(1, 0, 0, 4) == lower(lower(4)) == upper(4) - 1 == 9
        assert klm(0, 2, 0, 3) == lower(6) == 2 * lower(3) + (2 * frac_phi(3)).floor() == 9
        assert klm(1, 1, 1, 2) == lower(lower(2) + 2 + 1) == 9

    def test_grid_small(self):
        for n in range(1, 120):
            an = lower(n)
            for K in range(-3, 4):
                for L in range(-3, 4):
                    for M in range(-3, 4):
                        arg = K * an + L * n + M
                        if arg < 1:
                            continue
                        assert klm(K, L, M, n) == lower(arg), (K, L, M, n)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(ValueError):
            klm(-1, 0, 0, 1)
        with pytest.raises(ValueError):
            klm(0, 0, 0, 5)


class TestFracClosedForms:
    def test_frac_lower_at_one(self):
        # 1 - {phi}/phi = 1 - (2 - phi) = phi - 1
        assert frac_lower(1) == PHI - 1
        assert frac_lower(1) == frac_phi(lower(1))

    def test_frac_upper_at_two(self):
        assert frac_upper(2) == frac_phi(2) * INV_PHI_SQ
        assert frac_upper(2) == frac_phi(upper(2))

    def test_closed_forms_match_direct(self):
        for n in range(1, N_SCAN + 1):
            assert frac_lower(n) == frac_phi(lower(n))
            assert frac_upper(n) == frac_phi(upper(n))

    def test_weighted_sum_is_one(self):
        for n in range(1, N_SCAN + 1):
            assert frac_lower(n) + PHI * frac_upper(n) == ONE

    def test_upper_gap_identity(self):
        for n in range(1, N_SCAN + 1):
            assert upper(n) - PHI * lower(n) == frac_phi(n) * INV_PHI


class TestClassification:
    def test_examples(self):
        assert classify_ab(1) == (ABLabel.A, 1)
        assert classify_ab(2) == (ABLabel.B, 1)
        assert classify_ab(11) == (ABLabel.A, 7)

    def test_witnesses_validate(self):
        for m in range(1, N_SCAN + 1):
            label, witness = classify_ab(m)
            if label is ABLabel.A:
                assert lower(witness) == m
            else:
                assert upper(witness) == m

    def test_cd_witnesses_validate(self):
        for m in range(1, N_SCAN + 1):
            label, witness = classify_cd(m)
            if label is CDLabel.C:
                assert c_half(witness) == m
            else:
                assert d_cubed(witness) == m

    def test_interval_equivalences_against_set_membership(self):
        limit = 10**4
        in_b = set()
        n = 1
        while upper(n) <= limit:
            in_b.add(upper(n))
            n += 1
        in_c = set()
        n = 1
        while c_half(n) <= limit:
            in_c.add(c_half(n))
            n += 1
        # the quarter rule (the references' oracle) and the counting-floor labels
        for m in range(1, limit + 1):
            label = unit_interval_label(m)
            assert (label is IntervalLabel.I1) == (m in in_b)
            assert (label in (IntervalLabel.I1, IntervalLabel.I3)) == (m in in_c)
            assert (ab_label(m) is ABLabel.B) == (m in in_b)
            assert (cd_label(m) is CDLabel.C) == (m in in_c)

    def test_interval_table_geometry(self):
        lengths = [hi - lo for lo, hi in UNIT_INTERVALS.values()]
        assert sum(lengths[1:], lengths[0]) == ONE
        previous_hi = None
        for lo, hi in UNIT_INTERVALS.values():
            assert lo < hi
            if previous_hi is not None:
                assert lo == previous_hi
            previous_hi = hi


class TestPairClasses:
    def test_examples(self):
        assert cd_pair_class(1)[1] is ABLabel.A  # 4 is a lower Wythoff value
        assert cd_pair_class(2) == (ABLabel.B, ABLabel.A)  # (2, 8)
        assert ab_pair_class(1) == (CDLabel.C, CDLabel.C)  # (1, 2)

    def test_second_components_fixed(self):
        for n in range(1, N_SCAN + 1):
            assert cd_pair_class(n)[1] is ABLabel.A  # d(n) always lands in A
            assert ab_pair_class(n)[1] is CDLabel.C  # b(n) always lands in C

    def test_second_components_fixed_at_desk_scale(self):
        # label-only versions of the same facts, pushed to 1e5
        for n in range(1, 10**5 + 1):
            assert ab_label(d_cubed(n)) is ABLabel.A
            assert cd_label(upper(n)) is CDLabel.C

    def test_pair_value_sets(self):
        for n in range(1, N_SCAN + 1):
            assert cd_pair_class(n) in ((ABLabel.A, ABLabel.A), (ABLabel.B, ABLabel.A))
            assert ab_pair_class(n) in ((CDLabel.C, CDLabel.C), (CDLabel.D, CDLabel.C))


class TestCaseFormulas:
    def test_d_values(self):
        assert d_cubed(1) == 4
        assert d_cubed(2) == 8  # floor(2*phi^3) = floor(8.47...)
        assert c_half(2) == 2
        assert c_half(3) == 3 == upper(1) + 1  # e(1) = 1 since {phi} < (5-sqrt5)/4

    def test_d_case_split(self):
        for n in range(1, N_SCAN + 1):
            if frac_phi(n) < ONE_HALF:
                assert d_cubed(n) == 2 * lower(n) + n
            else:
                assert d_cubed(n) == 2 * lower(n) + n + 1

    def test_c_odd_split(self):
        for n in range(1, N_SCAN + 1):
            e = 1 if frac_phi(n) < LAMBDA_SPLIT else 2
            assert c_half(2 * n + 1) == upper(n) + e


class TestFracIntervals:
    def test_d_interval_examples(self):
        records = {r.n: r for r in iter_identity_checks("d-interval", 4)}
        assert records[1].case == "above-half"
        assert records[1].lhs == INV_PHI - INV_PHI_CUBED * (PHI - 1)
        assert records[2].case == "below-half"
        assert records[4].case == "below-half"

    def test_d_interval_scan(self):
        lo_hi = {"above-half": D_FRAC_ABOVE_HALF, "below-half": D_FRAC_BELOW_HALF}
        for record in iter_identity_checks("d-interval", N_SCAN):
            lo, hi = lo_hi[record.case]
            assert record.passed
            assert lo < record.lhs < hi
            assert record.lhs == frac_phi(d_cubed(record.n))

    def test_interval_lengths(self):
        assert D_FRAC_ABOVE_HALF[1] - D_FRAC_ABOVE_HALF[0] == QuadraticReal(-2, 1, 2)
        assert D_FRAC_BELOW_HALF[1] - D_FRAC_BELOW_HALF[0] == QuadraticReal(-2, 1, 2)
        assert C_FRAC_EVEN[1] - C_FRAC_EVEN[0] == INV_PHI_SQ
        assert C_FRAC_ODD[1] - C_FRAC_ODD[0] == INV_PHI_SQ

    def test_c_cases(self):
        # summary-c at n covers c(m) for m = 2n and m = 2n+1, tagged by case
        records = {r.n: r for r in iter_identity_checks("summary-c", 3) if r.case != "m=2n"}
        assert records[1].case == "m=2n+1,low" and records[1].rhs == PHI_SQ
        assert records[3].case == "m=2n+1,high" and records[3].rhs == ONE  # smallest n above the split
        assert PHI_CUBED * frac_phi(c_half(3)) - PHI * frac_phi(1) == PHI_SQ
        assert PHI_CUBED * frac_phi(c_half(7)) - PHI * frac_phi(3) == ONE

    def test_c_cases_reject_m_one(self):
        # the odd case needs m = 2n+1 with n >= 1, so the scan starts at m = 2, 3
        cases = [r.case for r in iter_identity_checks("summary-c", 1)]
        assert cases == ["m=2n", "m=2n+1,low"]

    def test_c_cases_scan(self):
        summary = list(iter_identity_checks("summary-c", N_SCAN // 2))
        assert len(summary) == N_SCAN and all(r.passed for r in summary)
        for record in iter_identity_checks("c-interval", N_SCAN // 2):
            m = 2 * record.n + (record.case == "odd")
            assert record.passed
            assert record.lhs == frac_phi(c_half(m))
            lo, hi = C_FRAC_ODD if m % 2 else C_FRAC_EVEN
            assert lo < record.lhs < hi
            assert record.rhs == ("(1/2, (4-sqrt5)/2)" if m % 2 else "(0, (3-sqrt5)/2)")


class TestFibShift:
    def test_examples(self):
        shifts = {(r.n, r.case.split(",")[0]): r for r in iter_identity_checks("fib-shift", 299)}
        assert shifts[(1, "r=5")].case == "r=5,m=7"
        for odd in iter_identity_checks("c-odd-case", 299):
            # c(2n+1) = b(n) + e is the shift target m = a(n) + n + F(r) with F(r) = e
            r = {"e=1": 1, "e=2": 3}[odd.case]
            shift = shifts[(odd.n, f"r={r}")]
            assert shift.passed and shift.case == f"r={r},m={odd.lhs}"

    def test_even_r_rejected(self, monkeypatch):
        def no_check(*args):
            raise AssertionError("a checker ran")

        monkeypatch.setitem(IDENTITIES, "fib-shift", dataclasses.replace(IDENTITIES["fib-shift"], checker=no_check))
        with pytest.raises(ValueError):
            list(iter_identity_checks("fib-shift", 1, CheckOptions(rs=(2,))))
        with pytest.raises(ValueError):
            fib_shift_converse(4, 1, 10)

    def test_forward_scan(self):
        for name in ("fib-shift", "fib-floor"):
            records = list(iter_identity_checks(name, 199, CheckOptions(rs=(1, 3, 5, 7))))
            assert len(records) == 4 * 199 and all(r.passed for r in records)
        for record in iter_identity_checks("fib-shift", 199):
            r = int(record.case.split(",")[0][2:])
            assert record.case == f"r={r},m={lower(record.n) + record.n + fib(r)}"

    def test_converse_examples(self):
        assert fib_shift_converse(1, 1, 50) == {3}
        assert fib_shift_converse(3, 2, 50) == {7}
        assert fib_shift_converse(5, 1, 6) == set()

    def test_converse_matches_forward(self):
        for r in (1, 3):
            for n in range(1, 12):
                expected = lower(n) + n + fib(r)
                assert fib_shift_converse(r, n, 300) == {expected}
