"""Column construction, decomposition, and brute-force partition checks."""

from __future__ import annotations

import random
import re
import tracemalloc
from itertools import product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattylab import partition, wythoff
from beattylab.partition import (
    MAX_COLUMNS,
    MAX_LIMIT,
    Decomposition,
    GeneratorError,
    PartitionSpec,
    build_columns,
    column_labels,
    column_offsets,
    column_values,
    d2_closed_form,
    decompose,
    decompositions,
    gap_set,
    identity_spec,
    phi_spec,
    verify_partition,
)
from beattylab.qfield import PHI, PHI_CUBED, QuadraticReal, SQRT2
from beattylab.wythoff import lower
from oracles import appended_columns, beatty_term, interval_labels, limiting_prefix_check, linear_form, offset_column


class TestGapSet:
    def test_values(self):
        assert gap_set(2) == {2, 3}
        assert gap_set(3) == {4, 6, 7}
        assert gap_set(4) == {8, 12, 14, 15}

    def test_extremes(self):
        for n in range(2, 12):
            s = gap_set(n)
            assert min(s) == 2 ** (n - 1)
            assert max(s) == 2**n - 1
            assert len(s) == n

    def test_domain(self):
        with pytest.raises(ValueError):
            gap_set(1)
        assert len(gap_set(MAX_COLUMNS)) == MAX_COLUMNS
        with pytest.raises(ValueError):
            gap_set(MAX_COLUMNS + 1)
        with pytest.raises(ValueError):
            phi_spec(MAX_COLUMNS + 1)


class TestSpecs:
    def test_term_values(self):
        assert [phi_spec(3).term(k) for k in range(1, 7)] == [4, 11, 15, 22, 29, 33]
        assert [identity_spec(3).term(k) for k in range(1, 4)] == [4, 8, 12]
        sqrt2 = PartitionSpec(2, SQRT2)
        assert [sqrt2.term(k) for k in range(1, 6)] == [2, 4, 7, 9, 12]

    def test_explicit_exhaustion(self):
        spec = PartitionSpec(3, [4, 11])
        assert spec.term(2) == 11
        assert spec.term(3) is None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_alpha_step_matches_field_floor(self, data):
        # every p with 1 <= (p + q*sqrt r)/d < 2, as one of the d integers from
        # ceil(d - q*sqrt r) = d - floor(q*sqrt r) on
        r = data.draw(st.sampled_from((2, 3, 5, 7)))
        q = data.draw(st.integers(-50, 50))
        d = data.draw(st.integers(1, 100))
        floor_q_root = isqrt(r * q * q) if q >= 0 else -isqrt(r * q * q) - 1
        p = d - floor_q_root + data.draw(st.integers(0, d - 1))
        alpha = QuadraticReal(p, q, d, r)
        k = data.draw(st.integers(1, 10**40))
        n = data.draw(st.sampled_from((2, 3, 8, 64)))
        assert PartitionSpec(n, alpha).term(k) == (2 ** (n - 1) - 1) * beatty_term(alpha, k) + k

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            PartitionSpec(3, PHI_CUBED)
        with pytest.raises(ValueError):
            PartitionSpec(3, QuadraticReal(1, 0, 2))

    def test_too_few_columns(self):
        with pytest.raises(ValueError):
            PartitionSpec(1, PHI)


def _violation(spec: PartitionSpec, limit: int):
    with pytest.raises(GeneratorError) as info:
        build_columns(spec, limit)
    assert info.value.violation_index is not None
    return info.value


class TestValidateGenerator:
    def test_phi_ok(self):
        spec = phi_spec(3)
        columns = build_columns(spec, spec.term(200))
        assert columns[0] == [spec.term(k) for k in range(1, 201)]

    def test_sqrt2_ok(self):
        spec = PartitionSpec(2, SQRT2)
        columns = build_columns(spec, spec.term(200))
        assert columns[0] == [spec.term(k) for k in range(1, 201)]

    def test_bad_gap_reported(self):
        err = _violation(PartitionSpec(3, [4, 9, 13]), 13)
        assert err.violation_index == 2
        assert "5" in str(err)

    def test_bad_start_reported(self):
        assert _violation(PartitionSpec(3, [5, 9]), 9).violation_index == 1

    def test_repeated_value_reported(self):
        assert _violation(PartitionSpec(3, [4, 4]), 4).violation_index == 2


class TestLinearForms:
    def test_base_form_is_generator(self):
        assert linear_form(3, 4, 0, ()) == 4

    def test_single_sign(self):
        assert linear_form(3, 4, 1, (-1,)) == 2
        assert linear_form(3, 4, 1, (1,)) == 6

    def test_two_signs_fill_first_block(self):
        values = {linear_form(3, 4, 2, signs) for signs in product((1, -1), repeat=2)}
        assert values == {1, 3, 5, 7}

    def test_arity_error(self):
        with pytest.raises(ValueError):
            linear_form(3, 4, 1, (1, -1))
        with pytest.raises(ValueError):
            linear_form(3, 4, 2, (1,))

    def test_sign_value_error(self):
        with pytest.raises(ValueError):
            linear_form(3, 4, 1, (0,))

    def test_index_range_error(self):
        with pytest.raises(ValueError):
            linear_form(3, 4, 3, (1, 1, 1))

    def test_offsets_enumerate_forms(self):
        for n in range(2, 9):
            for column in range(1, n + 1):
                explicit = sorted(
                    linear_form(n, 0, column - 1, signs)
                    for signs in product((1, -1), repeat=column - 1)
                )
                assert explicit == list(column_offsets(n, column))

    def test_offsets_of_wide_columns_take_no_memory(self):
        offsets = column_offsets(40, 40)
        assert isinstance(offsets, range)
        assert len(offsets) == 2**39
        assert (offsets[0], offsets[1], offsets[-1]) == (-(2**39) + 1, -(2**39) + 3, 2**39 - 1)

    def test_forms_fill_interval_once(self):
        # all 2^n - 1 form values at one generator term tile the interval exactly
        for n in range(2, 7):
            for t in (2 ** (n - 1), 100, 1000):
                values = []
                for j in range(0, n):
                    for signs in product((1, -1), repeat=j):
                        values.append(linear_form(n, t, j, signs))
                width = 2 ** (n - 1) - 1
                assert sorted(values) == list(range(t - width, t + width + 1))


class TestBuildColumns:
    def test_phi_three_columns(self):
        cols = build_columns(phi_spec(3), 33)
        assert cols[0] == [4, 11, 15, 22, 29, 33]
        assert cols[1] == [2, 6, 9, 13, 17, 20, 24, 27, 31]
        assert cols[2] == [1, 3, 5, 7, 8, 10, 12, 14, 16, 18, 19, 21, 23, 25, 26, 28, 30, 32]

    def test_identity_three_columns(self):
        assert build_columns(identity_spec(3), 12) == [
            [4, 8, 12],
            [2, 6, 10],
            [1, 3, 5, 7, 9, 11],
        ]

    def test_phi_two_columns_are_wythoff_rows(self):
        cols = build_columns(phi_spec(2), 10)
        assert cols == [[2, 5, 7, 10], [1, 3, 4, 6, 8, 9]]

    def test_sqrt2_extension(self):
        cols = build_columns(PartitionSpec(2, SQRT2), 12)
        assert cols == [[2, 4, 7, 9, 12], [1, 3, 5, 6, 8, 10, 11]]

    def test_sqrt2_extension_is_not_the_beatty_pair(self):
        window = 12
        ours = build_columns(PartitionSpec(2, SQRT2), window)
        beatty_small = [beatty_term(SQRT2, k) for k in range(1, 10) if beatty_term(SQRT2, k) <= window]
        beatty_big = [beatty_term(SQRT2 + 2, k) for k in range(1, 6) if beatty_term(SQRT2 + 2, k) <= window]
        assert beatty_big == [3, 6, 10]
        assert {tuple(c) for c in ours} != {tuple(beatty_small), tuple(beatty_big)}
        # under the size-based pairing the first disagreement is already at 1
        assert 1 in ours[1] and 1 not in beatty_big

    def test_generator_violation_raises(self):
        with pytest.raises(GeneratorError) as err:
            build_columns(PartitionSpec(3, [4, 9, 13]), 12)
        assert err.value.violation_index == 2

    def test_explicit_generator_checked_past_the_limit(self):
        # l(3) = 8 breaks the gap rule although its interval starts past limit 1
        with pytest.raises(GeneratorError) as err:
            build_columns(PartitionSpec(3, [4, 11, 8]), 1)
        assert err.value.violation_index == 3

    def test_columns_agree_with_decompose(self):
        # decompose inverts the construction through the 2-adic sign expansion,
        # independently of the sweep that builds the columns
        specs = [identity_spec(n) for n in range(2, 11)] + [phi_spec(n) for n in range(2, 11)]
        specs += [
            PartitionSpec(2, [2, 4, 7, 9, 12]),
            PartitionSpec(3, [4, 11, 15, 22, 29, 33]),
            PartitionSpec(4, [8, 16, 28, 43, 51, 66]),
        ]
        for spec in specs:
            if isinstance(spec.generator, tuple):
                limit = spec.generator[-1] + spec.half_width
            else:
                limit = 1200
            columns = [set(column) for column in build_columns(spec, limit)]
            assert sum(len(column) for column in columns) == limit
            for m in range(1, limit + 1):
                assert m in columns[decompose(m, spec).column - 1], (spec, m)

    def test_forty_columns_at_small_limit(self):
        # [1, 1000] lies in the first interval [1, 2**40 - 1]: column 40 - e holds
        # exactly the multiples 2**e * odd, the start of its limiting prefix
        for spec in (identity_spec(40), phi_spec(40)):
            assert verify_partition(spec, 1000).ok
            columns = build_columns(spec, 1000)
            for e in range(40):
                assert columns[39 - e] == list(range(2**e, 1001, 2 ** (e + 1)))


class TestDecompose:
    def test_examples(self):
        spec = phi_spec(3)
        assert decompose(1, spec) == Decomposition(3, 1, (-1, -1))
        assert decompose(4, spec) == Decomposition(1, 1, ())
        assert decompose(20, spec) == Decomposition(2, 4, (-1,))

    def test_double_representation_shares_column(self):
        spec = phi_spec(3)
        both = decompositions(12, spec)
        assert [(d.column, d.index) for d in both] == [(3, 2), (3, 3)]
        assert decompose(12, spec) == both[0]
        both = decompositions(13, spec)
        assert [(d.column, d.index) for d in both] == [(2, 2), (2, 3)]

    def test_round_trip_on_values(self):
        spec = phi_spec(3)
        for m in range(1, 3000):
            dec = decompose(m, spec)
            t = spec.term(dec.index)
            assert linear_form(spec.n, t, dec.column - 1, dec.signs) == m

    def test_round_trip_on_canonical_triples(self):
        spec = phi_spec(4)
        for k in range(1, 60):
            t = spec.term(k)
            for j in range(0, 4):
                for signs in product((1, -1), repeat=j):
                    value = linear_form(4, t, j, signs)
                    if value < 1:
                        continue
                    reps = decompositions(value, spec)
                    assert Decomposition(j + 1, k, signs) in reps
                    canonical = decompose(value, spec)
                    assert canonical == reps[0]
                    assert canonical.column == j + 1

    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_large_m_rebuilds_through_the_linear_form(self, n):
        # m past 2**63 and up to 301 digits: the term search and the signs stay
        # in Python integers, every realization rebuilds m, and all share one column
        rng = random.Random(n)
        ms = [2**63 - 1, 2**63, 2**64 + 1, 10**30 + 7, 10**300 + 7]
        ms += [int(10 ** (30 * rng.random())) for _ in range(200)]  # log-uniform up to 10**30
        spec = phi_spec(n)
        for m in ms:
            found = decompositions(m, spec)
            assert found and len({dec.column for dec in found}) == 1, m
            for dec in found:
                assert linear_form(n, spec.term(dec.index), dec.column - 1, dec.signs) == m, (m, dec)

    def test_domain(self):
        with pytest.raises(ValueError):
            decompose(0, phi_spec(3))

    def test_digit_bound_comes_before_the_term_search(self, monkeypatch):
        # the term search grows with the digits of m: 10**MAX_M_DIGITS and past
        # it raise before any term is computed, for a tuple of terms too
        cap = partition.MAX_M_DIGITS

        def no_search(*args):
            raise AssertionError("term search reached")

        monkeypatch.setattr(PartitionSpec, "term", no_search)
        for spec in (phi_spec(3), phi_spec(64), PartitionSpec(3, [4, 11])):
            for m in (10**cap, 10**cap + 7, 10**5000):
                message = f"m must have at most {cap} digits, got a {m.bit_length()}-bit integer"
                with pytest.raises(ValueError, match=re.escape(message)):
                    decompose(m, spec)
        with pytest.raises(AssertionError, match="term search reached"):
            decompositions(10**cap - 1, phi_spec(3))

    def test_uncovered_value_raises(self):
        with pytest.raises(ArithmeticError):
            decompose(1000, PartitionSpec(3, [4, 11]))

    def test_unsorted_list_is_read_in_full(self):
        # 11 is term 3 of 4, 30, 11: a search that assumes increasing terms misses it
        spec = PartitionSpec(3, [4, 30, 11])
        assert decompose(11, spec) == Decomposition(1, 3, ())
        assert decompose(10, spec) == Decomposition(3, 3, (-1, 1))
        assert decompose(12, spec) == Decomposition(3, 3, (1, -1))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((2, 3, 4)), st.lists(st.integers(1, 80), max_size=8))
    def test_explicit_lists_match_a_brute_force(self, n, terms):
        # valid or not: every term in list order, every column, every sign prefix
        spec = PartitionSpec(n, terms)
        for m in range(1, 101):
            expected = [
                Decomposition(j + 1, k, signs)
                for k, t in enumerate(terms, start=1)
                for j in range(n)
                for signs in product((1, -1), repeat=j)
                if linear_form(n, t, j, signs) == m
            ]
            if len({dec.column for dec in expected}) > 1:
                with pytest.raises(ArithmeticError):
                    decompositions(m, spec)
            else:
                assert decompositions(m, spec) == expected, (terms, m)


class TestVerify:
    def test_phi_spec_ok(self):
        assert verify_partition(phi_spec(3), 3000).ok

    def test_identity_specs_ok(self):
        for n in range(2, 7):
            report = verify_partition(identity_spec(n), 3000)
            assert report.ok, report

    def test_sqrt2_ok(self):
        assert verify_partition(PartitionSpec(2, SQRT2), 3000).ok

    def test_corrupted_generator_detected(self):
        report = verify_partition(PartitionSpec(3, [4, 9, 12, 19]), 10)
        assert not report.disjoint
        assert report.first_defect == 6

    def test_short_generator_leaves_holes(self):
        report = verify_partition(PartitionSpec(3, [4, 11]), 30)
        assert not report.covered
        assert report.first_defect == 15

    def test_non_monotone_explicit_data_measured(self):
        # out-of-order values are invalid input but still scanned faithfully
        report = verify_partition(PartitionSpec(3, [4, 11, 8]), 14)
        assert report.covered and not report.disjoint
        assert report.first_defect == 8

    def test_interval_crossing_one_is_clipped_on_the_offset_grid(self):
        # l(1) = 2 breaks the start rule for n = 3, and its interval [-1, 5] crosses 1;
        # columns 3, 1, 3, 2, 3 hold 1..5, as decompose finds too
        spec = PartitionSpec(3, [2])
        assert [decompose(m, spec).column for m in range(1, 6)] == [3, 1, 3, 2, 3]
        assert verify_partition(spec, 5).ok
        assert verify_partition(spec, 6).first_defect == 6

    def test_json_shape(self):
        obj = verify_partition(phi_spec(3), 50).to_json_dict()
        assert set(obj) == {"n", "generator", "limit", "covered", "disjoint", "first_defect"}


class TestClosedForms:
    def test_d2_matches_examples(self):
        assert [d2_closed_form(3, k) for k in range(1, 7)] == [2, 6, 9, 13, 17, 20]
        for k in range(1, 20):
            assert d2_closed_form(2, k) == lower(k)
        assert d2_closed_form(4, 1) == 4

    def test_d2_matches_built_column(self):
        for n in (2, 3, 4, 5):
            limit = d2_closed_form(n, 120) + 2 ** (n - 1)
            column = build_columns(phi_spec(n), limit)[1]
            for k in range(1, 121):
                assert d2_closed_form(n, k) == column[k - 1]



class TestLimitingPrefix:
    def test_small_cases(self):
        assert limiting_prefix_check(3, 0)
        assert limiting_prefix_check(3, 1)
        assert limiting_prefix_check(5, 2)

    def test_all_small_n(self):
        for n in range(2, 11):
            for e in range(0, n):
                assert limiting_prefix_check(n, e), (n, e)

    def test_generator_independent(self):
        for e in range(0, 3):
            assert limiting_prefix_check(3, e, phi_spec(3))
        for e in range(0, 4):
            assert limiting_prefix_check(4, e, phi_spec(4))

    def test_domain(self):
        with pytest.raises(ValueError):
            limiting_prefix_check(3, 3)
        with pytest.raises(ValueError):
            limiting_prefix_check(3, 0, phi_spec(4))

    def test_prefix_past_the_limit_cap_rejected_before_any_work(self, monkeypatch):
        # the expected prefix of 2**(n-e-1) values would exhaust memory at n = 64
        def no_work(*args):
            raise AssertionError("a rejected prefix must stop before any work")

        monkeypatch.setattr(partition, "column_labels", no_work)
        for n, e in ((64, 0), (64, 63), (24, 0)):
            assert 2**e * (2 ** (n - e) - 1) > MAX_LIMIT
            with pytest.raises(ValueError, match="limit cap"):
                limiting_prefix_check(n, e)


@st.composite
def random_valid_generators(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    gaps = draw(st.lists(st.sampled_from(sorted(gap_set(n))), min_size=2, max_size=25))
    values = [2 ** (n - 1)]
    for gap in gaps:
        values.append(values[-1] + gap)
    return PartitionSpec(n, values)


def _first_bad_prefix(n: int, terms: list[int]) -> int | None:
    """Length of the shortest prefix that is no valid generator, 1 for an empty list, None if all are valid.

    A prefix is valid when it starts at 2**(n-1) and each step is
    2**n - 2**(n-b) for some b in 1..n.
    """

    def valid(prefix: list[int]) -> bool:
        steps = zip(prefix, prefix[1:])
        return prefix[:1] == [2 ** (n - 1)] and all(
            any(t - s == 2**n - 2 ** (n - b) for b in range(1, n + 1)) for s, t in steps
        )

    return next((k for k in range(1, max(len(terms), 1) + 1) if not valid(terms[:k])), None)


@st.composite
def term_lists(draw):
    """(n, terms, limit): lists valid or not, empty ones, crowded ones, and ones invalid only past the limit."""
    n = draw(st.integers(2, 5))
    half = 2 ** (n - 1)
    kind = draw(st.sampled_from(("near-valid", "near-valid", "arbitrary", "empty")))
    if kind == "empty":
        return n, [], draw(st.integers(1, 40))
    if kind == "arbitrary":
        terms = draw(st.lists(st.integers(1, 40), min_size=1, max_size=8))
    else:
        terms = [draw(st.sampled_from((half,) * 4 + (half + 1, half - 1)))]
        gaps = draw(st.lists(st.sampled_from(sorted(gap_set(n))), max_size=16))
        if gaps and draw(st.booleans()):  # one more gap anywhere, allowed or not
            gaps[draw(st.integers(0, len(gaps) - 1))] = draw(st.integers(half - 1, 2**n + 1))
        for gap in gaps:
            terms.append(terms[-1] + gap)
    bad = _first_bad_prefix(n, terms)
    if bad is not None and bad > 1 and draw(st.booleans()):
        # the first bad term's interval starts past the limit
        first_value = terms[bad - 1] - (half - 1)
        if first_value > 1:
            return n, terms, draw(st.integers(1, first_value - 1))
    return n, terms, draw(st.integers(1, max(terms) + half))


def _measured_as_given(call) -> None:
    """call may find a defect or refuse a crowded list, but never checks the generator."""
    try:
        call()
    except GeneratorError as exc:
        raise AssertionError(f"a measurement raised {exc!r}") from exc
    except (ValueError, ArithmeticError):
        pass


class TestTupleCheck:
    @settings(max_examples=400, deadline=None)
    @given(term_lists())
    def test_check_matches_a_brute_force(self, case):
        n, terms, limit = case
        spec = PartitionSpec(n, terms)
        w = 2 ** (n - 1) - 1
        reached = sum(1 for t in terms for v in range(t - w, t + w + 1) if 1 <= v <= limit)
        bad = _first_bad_prefix(n, terms)
        if reached > 2 * limit:
            # the sweep's work bound comes first, whatever the terms
            with pytest.raises(ValueError, match=r"more than 2\*limit") as info:
                column_labels(spec, limit)
            assert not isinstance(info.value, GeneratorError)
        elif bad is None:
            assert len(column_labels(spec, limit)) == limit + 1
        else:
            with pytest.raises(GeneratorError) as info:
                column_labels(spec, limit)
            assert info.value.violation_index == bad, (terms, limit)
        _measured_as_given(lambda: verify_partition(spec, limit))
        for m in (1, limit, max(terms, default=1)):
            _measured_as_given(lambda: decompositions(m, spec))

    def test_messages(self):
        for terms, index, message in (
            ([], 1, "generator violation: no l(1) in an empty list, expected 4"),
            ([5, 9], 1, "generator violation: l(1) = 5, expected 4"),
            ([4, 11, 16], 3, "generator violation: gap l(3) - l(2) = 5 not in [4, 6, 7]"),
        ):
            with pytest.raises(GeneratorError) as info:
                partition._check_terms(3, tuple(terms))
            assert (info.value.violation_index, str(info.value)) == (index, message)


class TestRandomGenerators:
    @settings(max_examples=120)
    @given(random_valid_generators())
    def test_any_valid_generator_partitions(self, spec):
        limit = spec.generator[-1] + spec.half_width
        report = verify_partition(spec, limit)
        assert report.covered and report.disjoint, report

    @settings(max_examples=120)
    @given(random_valid_generators(), st.data())
    def test_decompositions_reconstruct_and_agree(self, spec, data):
        limit = spec.generator[-1] + spec.half_width
        m = data.draw(st.integers(min_value=1, max_value=limit))
        reps = decompositions(m, spec)
        assert 1 <= len(reps) <= 2
        assert len({r.column for r in reps}) == 1
        for rep in reps:
            t = spec.term(rep.index)
            assert linear_form(spec.n, t, rep.column - 1, rep.signs) == m

    @settings(max_examples=60)
    @given(random_valid_generators())
    def test_columns_agree_with_decompose(self, spec):
        limit = spec.generator[-1] + spec.half_width
        for j, column in enumerate(build_columns(spec, limit), start=1):
            for m in column:
                assert decompose(m, spec).column == j

    @settings(max_examples=60)
    @given(random_valid_generators())
    def test_validate_accepts_what_it_generated(self, spec):
        values = list(spec.generator)
        assert build_columns(spec, values[-1])[0] == values


class TestColumnValues:
    """column_values against one append per value, on every kind of label buffer."""

    @pytest.mark.parametrize("n", range(2, 17))
    def test_phi_both_sides_of_the_fill_threshold(self, n):
        # a cut interval, the whole interval of l(1) (the fill copies from
        # the next value on), one value more, and a range of 2n*2**n values
        for limit in (2**n - 2, 2**n - 1, 2**n, 2 * n << n):
            assert build_columns(phi_spec(n), limit) == appended_columns(phi_spec(n), limit), (n, limit)

    @pytest.mark.parametrize(
        "spec, limit",
        [
            pytest.param(identity_spec(40), 5000, id="identity-40"),
            pytest.param(PartitionSpec(2, SQRT2), 5000, id="sqrt2"),
            pytest.param(PartitionSpec(3, QuadraticReal(7, -1, 4)), 5000, id="7,-1,4"),
            # identity columns are residue classes: column n - 1 holds the
            # v = 2 mod 4, cut at limits 4m + 1 and 4m + 3
            *(
                pytest.param(identity_spec(n), limit, id=f"identity-{n}-{limit}")
                for n in (3, 8, 20)
                for limit in (4001, 4003, 4 * 2**16 + 1, 4 * 2**16 + 3)
            ),
            # values 2**16 - 1, 2**16 and 2**17 lie in columns 3, 2 and 3
            pytest.param(phi_spec(3), 3 * 2**16 + 4321, id="phi-3-across-2**17"),
        ],
    )
    def test_other_generators(self, spec, limit):
        assert build_columns(spec, limit) == appended_columns(spec, limit)

    def test_unreached_values(self):
        # label 0 holds labels[0] and every value past the last term's interval
        for terms, limit, first_unreached in (([4, 11, 15, 22], 60, 26), ([4], 2 * 2**16 + 99, 8)):
            spec = PartitionSpec(3, terms)
            labels = column_labels(spec, limit)
            assert build_columns(spec, limit) == appended_columns(spec, limit)
            assert list(column_values(labels, 0)) == [0, *range(first_unreached, limit + 1)]

    def test_wide_columns_mostly_empty(self):
        spec = identity_spec(64)
        columns = build_columns(spec, 2**20)
        assert columns == appended_columns(spec, 2**20)
        # the first term 2**63 reaches column 64 - v2(v) for v <= 2**20
        assert sum(1 for column in columns if column) == 21
        # [1, 1000] lies in the first interval, which reaches columns 55-64 only
        labels = column_labels(spec, 1000)
        for j in (1, 54, 255):
            assert list(column_values(labels, j)) == []
        assert list(column_values(labels, 64)) == list(range(1, 1001, 2))

    def test_dense_column_reads_a_window_at_a_time(self):
        # a mask or a list of the whole column would take 10**6 bytes
        labels = column_labels(phi_spec(3), 10**6 - 1)
        tracemalloc.start()
        try:
            count = sum(1 for _ in column_values(labels, 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == labels.count(3)
        assert peak < 2**19, peak


# limits around every value and row count where v gains a digit, and around
# the runs of partition._RUN labels
_RUN_EDGES = sorted(
    {10**i + d for i in range(6) for d in (-1, 0, 1) if 10**i + d >= 1}
    | {q * partition._RUN + d for q in (1, 2, 3) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize(
    "spec",
    [
        phi_spec(3),
        phi_spec(8),
        identity_spec(20),
        PartitionSpec(2, SQRT2),
        PartitionSpec(3, QuadraticReal(7, -1, 4)),
        PartitionSpec(3, QuadraticReal(3, 0, 2)),
        PartitionSpec(3, [4, 11, 15, 22]),
    ],
    ids=lambda spec: f"{spec.n}-{spec.describe()}",
)
@pytest.mark.parametrize("line", ["%s\n", ',\n      "%s"'], ids=["csv", "json"])
def test_column_runs_spell_column_values(spec, line):
    # label 0 (values no term reaches) and n + 1 (absent) are read like any
    # column; column_runs starts at value 1, column_values at index 0
    for limit in _RUN_EDGES:
        labels = column_labels(spec, limit)
        for j in range(spec.n + 2):
            runs = list(partition.column_runs(labels, j, line))
            expected = "".join(line % v for v in column_values(labels, j) if v)
            assert "".join(runs) == expected, (limit, j)
            for run in runs:
                assert run and len({len(v) for v in re.findall(r"\d+", run)}) == 1, (limit, j)


class TestIntervalSeparation:
    def test_two_apart_never_touch(self):
        for spec in (phi_spec(3), phi_spec(5), PartitionSpec(2, SQRT2)):
            width = spec.half_width
            for k in range(1, 500):
                assert spec.term(k + 2) - spec.term(k) > 2 * width

    def test_max_gap_gives_disjoint_neighbours(self):
        spec = PartitionSpec(2, SQRT2)
        found = 0
        for k in range(1, 500):
            if spec.term(k + 1) - spec.term(k) == 3:  # 2^n - 1 for n = 2
                assert spec.term(k) + spec.half_width < spec.term(k + 1) - spec.half_width
                found += 1
        assert found > 0

    def test_beatty_steps_small(self):
        # any exact alpha in [1, 2) steps by 1 or 2, so it is a valid h-sequence
        for alpha in (PHI, SQRT2, QuadraticReal(1), QuadraticReal(3, 0, 2)):
            previous = beatty_term(alpha, 1)
            for k in range(2, 10**4 + 1):
                current = beatty_term(alpha, k)
                assert current - previous in (1, 2)
                previous = current


# -- the fill: the labels of every alpha range as the image of a characteristic word -------

# phi, identity and irrationals in Q(sqrt5), Q(sqrt2), Q(sqrt3) and Q(sqrt13),
# then rationals: alpha - 1 is the slope of the fill
ALPHAS = [
    PHI,
    QuadraticReal(1),
    SQRT2,
    QuadraticReal(7, -1, 4),
    QuadraticReal(3, 1, 4),
    QuadraticReal(0, 1, 1, radicand=3),
    QuadraticReal(1, 1, 3, radicand=13),
    QuadraticReal(3, 1, 3, radicand=2),
    QuadraticReal(25, -1, 20),
] + [QuadraticReal(p, 0, q) for p, q in [(3, 2), (5, 3), (7, 4), (11, 7), (13, 8), (101, 64), (65, 64), (127, 64)]]


def _explicit_twin(spec: PartitionSpec, limit: int) -> PartitionSpec:
    """The same terms as an explicit list: every term whose interval reaches [1, limit], and one more."""
    terms = [spec.term(1)]
    while terms[-1] - spec.half_width <= limit:
        terms.append(spec.term(len(terms) + 1))
    return PartitionSpec(spec.n, terms)


def _ruler_edges(size: int) -> set[int]:
    """Each side of the ruler word's copy edges 2**k - 1, up to size."""
    return {2**k + d for k in range(1, size.bit_length() + 1) for d in (-2, -1, 0) if 0 < 2**k + d <= size}


def _boundary_limits(spec: PartitionSpec, top: int) -> set[int]:
    """1, 2, 2**(n-1) +- 1, 2**n - 1, 40 * 2**(n-1), each side of the first terms, of the
    ruler word's copy edges in l(1)'s interval, and of the fill's copy
    edges up to top: value 1 + |s(k)| starts the copy after the image of
    the standard word s(k), |s(k)| = d(k)*|s(k-1)| + |s(k-2)|."""
    half = 2 ** (spec.n - 1)
    limits = {1, 2, half - 1, half, half + 1, 2 * half - 1, 2 * half, 40 * half, top}
    limits |= _ruler_edges(2 * half - 1)
    for k in range(2, 6):
        t = spec.term(k)
        limits |= {t - 1, t, t + 1}
    previous, size = 2 * half - 1, half  # the images of s(-1) and s(0)
    quotients = wythoff._quotients(spec.generator - 1)
    while size <= top:
        d = next(quotients, 1)  # past a rational's expansion: its period, again and again
        previous, size = size, d * size + previous
        limits |= {size, size + 1, size + 2}
    return {limit for limit in limits if 1 <= limit <= top}


def _assert_fill_matches_value_sweep(spec: PartitionSpec, limit: int) -> None:
    twin = _explicit_twin(spec, limit)
    labels, conflict = partition._value_sweep(twin, limit)
    assert conflict is None
    partition._check_terms(twin.n, twin.generator)  # the twin is a valid generator
    assert partition._alpha_labels(spec.n, spec.generator, limit) == labels, (spec, limit)


class TestTiles:
    def test_tiled_labels_match_the_value_sweep(self):
        # each limit of _boundary_limits against one value sweep of the terms
        # to top: the labels of a valid generator do not depend on the
        # limit, so each shorter range is its prefix; every alpha, n = 2..10,
        # to 30000
        top = 30000
        for alpha in ALPHAS:
            for n in range(2, 11):
                spec = PartitionSpec(n, alpha)
                twin = _explicit_twin(spec, top)
                reference, conflict = partition._value_sweep(twin, top)
                assert conflict is None
                partition._check_terms(twin.n, twin.generator)
                for limit in sorted(_boundary_limits(spec, top)):
                    labels = partition._alpha_labels(n, alpha, limit)
                    assert labels == reference[: limit + 1], (alpha, n, limit)
                for limit in (1, 2, 2 ** (n - 1) - 1, 2 ** (n - 1) + 1, 2**n - 1):
                    _assert_fill_matches_value_sweep(spec, limit)

    @settings(max_examples=120)
    @given(
        st.sampled_from(ALPHAS),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=1, max_value=5000),
    )
    def test_random_ranges_match_the_value_sweep(self, alpha, n, limit):
        _assert_fill_matches_value_sweep(PartitionSpec(n, alpha), limit)

    def test_tile_lengths_and_head(self):
        # label 0 is unused, and l(1) = 2**(n-1) owns [1, 2**(n-1)] whatever
        # its gap; where the next term starts earlier, the two intervals agree
        for alpha in ALPHAS:
            for n in range(2, 11):
                w = 2 ** (n - 1) - 1
                interval = interval_labels(n)
                assert len(interval) == 2 * w + 1 and interval[w] == 1
                labels = partition._alpha_labels(n, alpha, 2 * w + 1)
                assert labels[0] == 0 and labels[1:] == interval

    def test_interval_matches_the_inverse_map(self):
        # the ruler word written in place against the column of each offset
        # (oracles.offset_column, which the next test holds to _sign_expansion),
        # whole for n <= 20 and its first 10**5 labels at n = 24 and 64 (the
        # first 2**12 at every other n), cut at every length to 300 and at
        # each side of every copy edge
        for n in range(2, MAX_COLUMNS + 1):
            size = 2**n - 1 if n <= 20 else 10**5 if n in (24, 64) else 2**12
            reference = interval_labels(n, size)
            for cut in sorted(_ruler_edges(size) | set(range(1, min(size, 300) + 1)) | {size}):
                assert partition._alpha_labels(n, PHI, cut)[1:] == reference[:cut], (n, cut)

    def test_inverse_map_columns_follow_the_offset_rule(self):
        # the column and signs decompose's inverse map gives each offset of a
        # whole interval: column n - v2(d), and signs whose signed sum is d
        for n in range(2, 15):
            w = 2 ** (n - 1) - 1
            for d in range(-w, w + 1):
                column, signs = partition._sign_expansion(n, d)
                assert column == offset_column(n, d), (n, d)
                assert linear_form(n, 0, column - 1, signs) == d, (n, d)

    def test_sweep_fills_every_alpha_range(self, monkeypatch):
        def not_reached(*args):
            raise AssertionError("the other path labels this range")

        with monkeypatch.context() as patch:
            patch.setattr(partition, "_value_sweep", not_reached)
            for alpha in ALPHAS:
                for n in range(2, MAX_COLUMNS + 1):
                    for limit in (1, min(2**n - 2, 5000)):
                        assert verify_partition(PartitionSpec(n, alpha), limit).ok, (alpha, n, limit)
                for n in (3, 8):
                    assert verify_partition(PartitionSpec(n, alpha), 2 * n << n).ok, (alpha, n)
        # an explicit list is swept value by value, however short or long the range,
        # also when it lists an alpha generator's own terms
        monkeypatch.setattr(partition, "_alpha_labels", not_reached)
        for spec in (identity_spec(5), PartitionSpec(4, SQRT2)):
            for limit in (1, 2 * spec.n << spec.n):
                assert verify_partition(_explicit_twin(spec, limit), limit).ok, (spec, limit)
        assert verify_partition(PartitionSpec(2, [2]), 1).ok
        report = verify_partition(PartitionSpec(3, [4, 11, 18, 22]), 48)
        assert not report.covered and report.first_defect == 26

    def test_flipped_tile_byte_raises(self, monkeypatch):
        # a wrong column for one offset d != 0 breaks the agreement of two
        # consecutive intervals on their overlap (d and d - 2**(n-1) pair up
        # under the smallest gap, which phi and sqrt2 use), so the labels are
        # refused before the fill copies them; the byte is flipped in the
        # written interval
        real = partition._ruler_word
        for alpha in (PHI, SQRT2):
            for n in range(2, 7):
                w = 2 ** (n - 1) - 1
                for flipped in [d for d in range(-w, w + 1) if d != 0]:

                    def corrupted(view, n, at=w + flipped):
                        real(view, n)
                        view[at] = view[at] % n + 1

                    monkeypatch.setattr(partition, "_ruler_word", corrupted)
                    with pytest.raises(ArithmeticError):
                        partition._alpha_labels(n, alpha, 2 * w + 1)
                    with pytest.raises(ArithmeticError):
                        verify_partition(PartitionSpec(n, alpha), 2 * n << n)
                    monkeypatch.setattr(partition, "_ruler_word", real)
        assert verify_partition(phi_spec(6), 2 * 6 << 6).ok
        assert verify_partition(PartitionSpec(6, SQRT2), 2 * 6 << 6).ok
