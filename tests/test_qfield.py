"""Exact field arithmetic: canonical forms, ordering, floor, Fibonacci."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattylab import qfield
from beattylab.qfield import (
    INV_PHI,
    INV_PHI_SQ,
    INV_SQRT5,
    LAMBDA_SPLIT,
    ONE,
    ONE_HALF,
    PHI,
    PHI_CUBED,
    PHI_SQ,
    QuadraticReal,
    SQRT2,
    SQRT5,
    ZERO,
    fib,
    floor_sum,
    phi_pow,
)
from oracles import quadratic_from_json


def decimal_sign(x: QuadraticReal) -> int:
    """Independent sign oracle via high-precision decimal arithmetic.

    Precision scales with the operand so that a nonzero value can never
    be mistaken for zero (a nonzero (p + q*sqrt(r))/d is bounded away
    from zero by roughly 1/(d*(|p| + |q|*sqrt(r)))).
    """
    digits = 50 + 2 * len(str(abs(x.p) + abs(x.q) + x.d))
    with localcontext() as ctx:
        ctx.prec = digits
        value = (Decimal(x.p) + Decimal(x.q) * Decimal(x.radicand).sqrt()) / Decimal(x.d)
        if x.p == 0 and x.q == 0:
            return 0
        assert abs(value) > Decimal(10) ** (-digits + 10), "oracle margin too small"
        return 1 if value > 0 else -1


def as_pair(x: QuadraticReal) -> tuple[Fraction, Fraction]:
    return Fraction(x.p, x.d), Fraction(x.q, x.d)


small_ints = st.integers(min_value=-(10**12), max_value=10**12)
denoms = st.integers(min_value=1, max_value=10**9)


@st.composite
def quadratic_reals(draw, radicand=5):
    return QuadraticReal(draw(small_ints), draw(small_ints), draw(denoms), radicand)


class TestCanonicalForm:
    def test_phi_construction(self):
        x = QuadraticReal(1, 1, 2)
        assert (x.p, x.q, x.d, x.radicand) == (1, 1, 2, 5)

    def test_gcd_reduction(self):
        assert QuadraticReal(2, 2, 4) == QuadraticReal(1, 1, 2)
        assert (QuadraticReal(2, 2, 4).p, QuadraticReal(2, 2, 4).q, QuadraticReal(2, 2, 4).d) == (1, 1, 2)

    def test_phi_cubed_value(self):
        x = QuadraticReal(4, 2, 2)
        assert (x.p, x.q, x.d) == (2, 1, 1)
        assert x == PHI_CUBED
        assert x == 2 * PHI + 1  # symbolic expansion of the third power

    def test_negative_denominator_absorbed(self):
        x = QuadraticReal(1, -1, -2)
        assert (x.p, x.q, x.d) == (-1, 1, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            QuadraticReal(1, 1, 0)

    def test_square_radicand_rejected(self):
        for radicand in (4, 1, 0, -3):
            with pytest.raises(ValueError, match="radicand must be a non-square integer >= 2"):
                QuadraticReal(1, 1, 1, radicand=radicand)

    def test_square_radicand_allowed_for_rationals(self):
        assert QuadraticReal(7, 0, 4, radicand=4) == QuadraticReal(7, 0, 4)
        assert QuadraticReal(3, 0, 1, radicand=1) == 3
        x = QuadraticReal(3, 0, 2, 4)
        assert (x.p, x.q, x.d, x.radicand) == (3, 0, 2, 5)

    def test_rationals_hash_like_numbers(self):
        assert len({QuadraticReal(3), 3}) == 1
        assert hash(QuadraticReal(6, 0, 4)) == hash(Fraction(3, 2))
        assert hash(QuadraticReal(-5)) == hash(-5)
        assert {QuadraticReal(1, 0, 2): "half"}[QuadraticReal(2, 0, 4, radicand=2)] == "half"

    @given(st.integers(-(10**30), 10**30), st.integers(1, 10**6))
    def test_rational_hash_matches_fraction(self, p, d):
        x = QuadraticReal(p, 0, d)
        assert hash(x) == hash(Fraction(p, d))
        if d == 1:
            assert x == p and hash(x) == hash(p)

    def test_rational_values_share_field_tag(self):
        assert QuadraticReal(3, 0, 2, radicand=2) == QuadraticReal(3, 0, 2)
        assert hash(QuadraticReal(2, 2, 4)) == hash(QuadraticReal(1, 1, 2))

    @given(quadratic_reals(), st.integers(min_value=1, max_value=10**6))
    def test_common_factor_invisible(self, x, g):
        assert QuadraticReal(x.p * g, x.q * g, x.d * g) == x

    @given(quadratic_reals())
    def test_canonical_invariants(self, x):
        assert x.d > 0
        assert math.gcd(x.p, x.q, x.d) == 1


class TestArithmetic:
    def test_phi_squared(self):
        assert PHI * PHI == PHI + 1
        assert PHI * PHI == PHI_SQ

    def test_reciprocal_identity(self):
        assert INV_PHI + INV_PHI_SQ == ONE

    def test_phi_times_phi_squared(self):
        assert PHI * PHI_SQ == QuadraticReal(2, 1, 1)

    def test_division(self):
        assert PHI / PHI == ONE
        assert ONE / PHI == INV_PHI
        assert SQRT5 / 5 == INV_SQRT5
        with pytest.raises(ZeroDivisionError):
            _ = ONE / ZERO

    def test_pow(self):
        assert PHI**0 == ONE
        assert PHI**5 == phi_pow(5)
        assert PHI**-1 == INV_PHI
        assert PHI**-2 == INV_PHI_SQ

    def test_mixed_radicands_rejected(self):
        with pytest.raises(ValueError):
            _ = SQRT2 + SQRT5
        assert SQRT2 + 1 == QuadraticReal(1, 1, 1, radicand=2)
        assert (SQRT2 * 0 + 7) == QuadraticReal(7)

    @given(quadratic_reals(), quadratic_reals())
    def test_add_matches_fraction_pairs(self, x, y):
        a1, b1 = as_pair(x)
        a2, b2 = as_pair(y)
        s = x + y
        assert as_pair(s) == (a1 + a2, b1 + b2)

    @given(quadratic_reals(), quadratic_reals())
    def test_mul_matches_fraction_pairs(self, x, y):
        a1, b1 = as_pair(x)
        a2, b2 = as_pair(y)
        m = x * y
        assert as_pair(m) == (a1 * a2 + 5 * b1 * b2, a1 * b2 + a2 * b1)

    @given(quadratic_reals(), quadratic_reals())
    def test_sub_then_add_round_trips(self, x, y):
        assert (x - y) + y == x

    @settings(max_examples=50)
    @given(quadratic_reals(), quadratic_reals())
    def test_division_inverts_multiplication(self, x, y):
        if y == ZERO:
            return
        assert (x * y) / y == x


class TestIntOperands:
    """An int operand enters the coordinates directly; the result is the one
    the operand gives as QuadraticReal(i, 0, 1, r)."""

    @pytest.mark.parametrize("r", (5, 2))
    def test_operators_match_the_field_operand(self, r):
        def coordinates(x: QuadraticReal) -> tuple[int, int, int, int]:
            return x.p, x.q, x.d, x.radicand

        values = [
            QuadraticReal(p, q, d, r)
            for p, q, d in ((1, 1, 2), (-7, 3, 5), (10**40, -1, 3), (3, 0, 4), (1, 0, 3), (-2, 0, 1), (0, 0, 1))
        ]
        for x in values:
            for i in (0, 1, -1, 10**40, -(10**40), True, False):
                y = QuadraticReal(i, 0, 1, r)
                pairs = ((x + i, x + y), (i + x, y + x), (x - i, x - y), (i - x, y - x), (x * i, x * y), (i * x, y * x))
                for got, want in pairs:
                    assert coordinates(got) == coordinates(want), (x, i)
                    if got.q == 0:
                        assert got.radicand == 5
                        if got.d == 1:
                            assert got == got.p and got.p == got and hash(got) == hash(got.p)
                assert x.compare(i) == x.compare(y), (x, i)
                assert (x < i, x <= i, x > i, x >= i) == (x < y, x <= y, x > y, x >= y), (x, i)
                assert (x == i, i == x, x != i) == (x == y, y == x, x != y), (x, i)
                if x == i:
                    assert hash(x) == hash(i)


class TestOrdering:
    def test_phi_above_one(self):
        assert PHI > 1
        assert PHI.compare(ONE) == 1

    def test_interval_endpoint_below_half(self):
        assert INV_PHI_SQ < ONE_HALF  # (3 - sqrt5)/2 < 1/2

    def test_inv_sqrt5_below_mixed_breakpoint(self):
        assert INV_SQRT5 < QuadraticReal(5, 1, 10)  # 1/sqrt5 < (5 + sqrt5)/10

    def test_compare_is_subtraction_sign(self):
        for x in (PHI, INV_PHI, LAMBDA_SPLIT, ZERO, QuadraticReal(-7, 2, 3)):
            for y in (ONE, INV_PHI_SQ, x):
                assert x.compare(y) == (x - y).sign()

    @given(quadratic_reals(), quadratic_reals())
    def test_compare_matches_decimal_oracle(self, x, y):
        assert x.compare(y) == decimal_sign(x - y)

    @given(quadratic_reals())
    def test_total_order_consistency(self, x):
        assert x.compare(x) == 0
        assert (x + 1) > x
        assert (x - 1) < x


class TestFloorFrac:
    def test_floor_examples(self):
        assert PHI.floor() == 1
        assert (PHI * 5).floor() == 8
        assert (PHI_SQ * 6).floor() == 15

    def test_floor_negative_values(self):
        assert (-PHI).floor() == -2
        assert QuadraticReal(-7, 0, 2).floor() == -4
        assert (-SQRT5).floor() == -3

    def test_frac_examples(self):
        assert PHI.frac() == PHI - 1
        assert PHI.frac() == INV_PHI
        three_phi = PHI * 3
        assert three_phi.frac() == QuadraticReal(-5, 3, 2)
        assert three_phi.frac() == ONE - (PHI * 2).frac() * INV_PHI
        seven_phi = PHI * 7
        assert seven_phi.frac() == QuadraticReal(-15, 7, 2)
        assert seven_phi.frac() == (PHI * 3).frac() * INV_PHI_SQ

    @given(quadratic_reals())
    def test_floor_brackets_value(self, x):
        f = x.floor()
        assert x >= f
        assert x < f + 1

    @given(quadratic_reals())
    def test_frac_plus_floor_reconstructs(self, x):
        assert x.frac() + x.floor() == x
        assert ZERO <= x.frac() < ONE

    @given(quadratic_reals(radicand=2))
    def test_floor_brackets_value_sqrt2(self, x):
        f = x.floor()
        assert x >= f
        assert x < f + 1

    def test_irrational_frac_strictly_interior(self):
        for k in range(1, 400):
            f = (PHI * k).frac()
            assert ZERO < f < ONE

    def test_frac_never_hits_breakpoints(self):
        breakpoints = (
            INV_PHI_SQ,
            ONE_HALF,
            INV_SQRT5,
            LAMBDA_SPLIT,
            QuadraticReal(5, 1, 10),
            QuadraticReal(4, -1, 2),
        )
        for k in range(1, 3000):
            f = (PHI * k).frac()
            for b in breakpoints:
                assert f.compare(b) != 0


# (a, b) for the floor-sum oracle: both signs of a, rational a, Q(sqrt5)
# and Q(sqrt2), and b = j - t*a, where a*k + b is the integer j at k = t
FLOOR_SUM_CASES = [
    (PHI, PHI),
    (PHI, PHI - QuadraticReal(3, -1, 4)),
    (QuadraticReal(5, -1, 10), QuadraticReal(5, -1, 10) - QuadraticReal(5, 1, 10)),
    (-PHI, QuadraticReal(7, 3, 5)),
    (-PHI_CUBED, QuadraticReal(-11, 2, 3)),
    (INV_PHI_SQ, 4 - 17 * INV_PHI_SQ),
    (-INV_PHI, -3 + 40 * INV_PHI),
    (SQRT2, QuadraticReal(1, -1, 3, radicand=2)),
    (-3 * SQRT2, QuadraticReal(-5, 1, 1, radicand=2)),
    (QuadraticReal(-1, 1, 1, radicand=2), 2 - 9 * QuadraticReal(-1, 1, 1, radicand=2)),
    (QuadraticReal(3, 0, 7), QuadraticReal(1, 1, 3)),
    (QuadraticReal(3, 0, 7), 2 - 5 * QuadraticReal(3, 0, 7)),
    (QuadraticReal(-22, 0, 7), QuadraticReal(0, 1, 1, radicand=2)),
    (QuadraticReal(-22, 0, 7), QuadraticReal(-1, 0, 7)),
    (QuadraticReal(2), QuadraticReal(-1, 0, 2)),
    (ZERO, QuadraticReal(1, 1, 3)),
]


class TestFloorSum:
    @pytest.mark.parametrize("a, b", FLOOR_SUM_CASES, ids=[f"{a}|{b}" for a, b in FLOOR_SUM_CASES])
    def test_every_n_to_200_against_term_by_term_floors(self, a, b):
        total = 0
        for n in range(201):
            assert floor_sum(n, a, b) == total, n
            total += (a * n + b).floor()

    def test_ties_are_hit(self):
        # b = j - t*a puts a*k + b on an integer, where ceil(y) = -floor(-y) decides
        hits = [a * t + b for a, b in FLOOR_SUM_CASES for t in range(201) if (a * t + b).frac() == ZERO]
        assert len(hits) >= 6

    def test_no_terms(self):
        for n in (0, -1, -(10**30)):
            assert floor_sum(n, PHI, PHI) == 0

    def test_mixed_radicands_raise(self):
        with pytest.raises(ValueError, match="mixed radicands"):
            floor_sum(10, PHI, SQRT2)

    @pytest.mark.parametrize("a, b", [FLOOR_SUM_CASES[1], FLOOR_SUM_CASES[2], FLOOR_SUM_CASES[7]], ids=["phi", "pairs", "sqrt2"])
    def test_coordinates_stay_small_at_10_to_300(self, monkeypatch, a, b):
        # reduced at every step, the coordinates of a and b keep a few
        # digits, so each floor's arguments stay within n's length plus a
        # constant; unreduced they double in length at every step
        n = 10**300
        bound = n.bit_length() + 64
        floor = qfield.floor_surd

        def guarded(p, q, d, r=5):
            assert max(abs(p), abs(q), d).bit_length() <= bound, "floor_sum coordinates grow"
            return floor(p, q, d, r)

        monkeypatch.setattr(qfield, "floor_surd", guarded)
        total = floor_sum(n, a, b)
        # the sum of floor(a*k + b) is within n of a*n*(n - 1)/2 + b*n
        assert -n <= total - (a * (n * (n - 1) // 2) + b * n) <= n


class TestFibonacci:
    def test_base_values(self):
        assert fib(0) == 0
        assert fib(1) == 1
        assert fib(4) == 3
        assert fib(5) == 5
        assert fib(10) == 55

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fib(-1)

    def test_cassini(self):
        for n in range(1, 201):
            assert fib(n + 1) * fib(n - 1) - fib(n) ** 2 == (-1) ** n

    def test_phi_pow_examples(self):
        assert phi_pow(1) == PHI
        assert phi_pow(2) == PHI + 1
        assert phi_pow(3) == 2 * PHI + 1
        with pytest.raises(ValueError):
            phi_pow(0)

    def test_phi_pow_matches_iterated_multiplication(self):
        product = ONE
        for k in range(1, 201):
            product = product * PHI
            assert phi_pow(k) == product

    def test_binet_evaluated_symbolically(self):
        # F(k) = (phi^k - (-1/phi)^k)/sqrt5, with every power exact
        for k in range(1, 60):
            signed = INV_PHI**k if k % 2 == 0 else -(INV_PHI**k)
            assert (phi_pow(k) - signed) / SQRT5 == QuadraticReal(fib(k))


class TestSerialization:
    def test_json_digit_strings(self):
        obj = PHI.to_json_dict()
        assert obj == {"p": "1", "q": "1", "d": "2"}
        assert quadratic_from_json(obj) == PHI

    def test_json_radicand_tagged(self):
        obj = SQRT2.to_json_dict()
        assert obj == {"p": "0", "q": "1", "d": "1", "radicand": "2"}
        assert quadratic_from_json(obj) == SQRT2

    @given(quadratic_reals())
    def test_json_round_trip(self, x):
        assert quadratic_from_json(x.to_json_dict()) == x

    def test_str_forms(self):
        assert str(PHI) == "(1+sqrt5)/2"
        assert str(ONE_HALF) == "1/2"
        assert str(SQRT5) == "sqrt5"
        assert str(QuadraticReal(3)) == "3"
        assert str(SQRT2) == "sqrt2"

    def test_float_is_approximate_rendering_only(self):
        assert abs(float(PHI) - 1.618033988749895) < 1e-12

    def test_float_of_huge_coordinates(self):
        # no common factor to reduce, coordinates far beyond the float range, value near phi
        x = QuadraticReal(10**400 + 1, 10**400, 2 * 10**400)
        assert len(str(x.d)) == 401
        assert abs(float(x) - 1.618033988749895) < 1e-12
        assert abs(float(-x) + 1.618033988749895) < 1e-12
        # L(k) - F(k)*sqrt5 = 2/phi**k cancels almost completely
        k = 200
        lucas, fk = fib(k - 1) + fib(k + 1), fib(k)
        assert float(QuadraticReal(lucas, -fk)) == pytest.approx(2 / 1.618033988749895**k, rel=1e-12)
