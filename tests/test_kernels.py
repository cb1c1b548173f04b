"""Differential tests of the integer kernels in wythoff.

The reference implementations below evaluate the same closed forms in
QuadraticReal field arithmetic, comparing against the QuadraticReal
breakpoints with strict_compare.  A second, independent oracle is the
Fibonacci word: m is a lower Wythoff value exactly when its Zeckendorf
representation ends in an even number of zeros (OEIS A003849, A000201).
"""

from __future__ import annotations

import math
import tracemalloc
from decimal import Decimal
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beattylab import wythoff
from beattylab.qfield import (
    INV_PHI,
    INV_PHI_CUBED,
    INV_PHI_SQ,
    ONE,
    ONE_HALF,
    PHI,
    QuadraticReal,
    _sign_of,
    floor_surd,
)
from beattylab.wythoff import (
    BREAK_HIGH,
    ABLabel,
    ABMembership,
    CDLabel,
    IntervalLabel,
    ab_label,
    c_half,
    classify_ab,
    d_cubed,
    fibonacci_fill,
    frac_phi,
    klm,
    lower,
    strict_compare,
    unit_interval_label,
    upper,
)
import oracles
from oracles import CDMembership, classify_cd

BIG = 10**30
indices = st.integers(min_value=1, max_value=BIG)
coefficients = st.one_of(st.integers(-5, 5), st.integers(-BIG, BIG))


# -- QuadraticReal reference implementations -----------------------------------


def ref_klm(K: int, L: int, M: int, n: int) -> int:
    an = lower(n)
    arg = K * an + L * n + M
    if arg < 1:
        raise ValueError(f"argument K*a(n)+L*n+M = {arg} must be positive")
    correction = (PHI * M + (PHI * L - K) * (frac_phi(n) * INV_PHI)).floor()
    return K * (an + n) + L * an + correction


def ref_ab_label(m: int) -> ABLabel:
    return ABLabel.A if strict_compare(frac_phi(m), INV_PHI_SQ) > 0 else ABLabel.B


def ref_unit_interval_label(m: int) -> IntervalLabel:
    f = frac_phi(m)
    if strict_compare(f, INV_PHI_SQ) < 0:
        return IntervalLabel.I1
    if strict_compare(f, ONE_HALF) < 0:
        return IntervalLabel.I2
    if strict_compare(f, BREAK_HIGH) < 0:
        return IntervalLabel.I3
    return IntervalLabel.I4


def ref_classify_ab(m: int) -> ABMembership:
    if ref_ab_label(m) is ABLabel.A:
        i = (INV_PHI * (m + 1)).floor()
        return ABMembership(ABLabel.A, wythoff._witness_search(m, i, lower))
    i = (INV_PHI_SQ * (m + 1)).floor()
    return ABMembership(ABLabel.B, wythoff._witness_search(m, i, upper))


def ref_classify_cd(m: int) -> CDMembership:
    if ref_unit_interval_label(m) in (IntervalLabel.I1, IntervalLabel.I3):
        i = ((ONE - INV_PHI_CUBED) * (m + 1)).floor()  # (m+1) * 2/phi^2
        return CDMembership(CDLabel.C, wythoff._witness_search(m, i, c_half))
    i = (INV_PHI_CUBED * (m + 1)).floor()  # (m+1) / phi^3
    return CDMembership(CDLabel.D, wythoff._witness_search(m, i, d_cubed))


# -- Zeckendorf oracle ---------------------------------------------------------


def zeckendorf_label(m: int) -> ABLabel:
    """A when the Zeckendorf digits of m end in an even number of zeros.

    Digits are indexed by F(2) = 1, F(3) = 2, F(4) = 3, ...; the greedy
    expansion's smallest part F(k) leaves k - 2 trailing zeros.
    """
    fibs = [1, 2]
    while fibs[-1] <= m:
        fibs.append(fibs[-1] + fibs[-2])
    rest, k = m, 0
    for idx in range(len(fibs) - 1, -1, -1):
        if fibs[idx] <= rest:
            rest -= fibs[idx]
            k = idx
    return ABLabel.A if k % 2 == 0 else ABLabel.B


class TestZeckendorfOracle:
    def test_oracle_matches_definition(self):
        lows = {lower(i) for i in range(1, 200)}
        assert all((zeckendorf_label(m) is ABLabel.A) == (m in lows) for m in range(1, 300))

    def test_ab_label_exhaustive(self):
        for m in range(1, 50_001):
            assert ab_label(m) is zeckendorf_label(m), m

    @settings(max_examples=300, deadline=None)
    @given(indices)
    def test_ab_label_large(self, m):
        assert ab_label(m) is zeckendorf_label(m)


def fill_word(limit: int) -> str:
    """The A/B labels of 1, ..., limit as fibonacci_fill writes them with A -> "A", B -> "B"."""
    word = bytearray(limit)
    fibonacci_fill(word, b"A", b"B")
    return word.decode("ascii")


class TestFibonacciWord:
    def test_small_limits(self):
        assert fill_word(0) == ""
        assert fill_word(1) == "A"
        assert fill_word(8) == "ABAABABA"

    def test_word_matches_kernel_and_oracle(self):
        word = fill_word(10**5)
        assert len(word) == 10**5
        for m, letter in enumerate(word, start=1):
            assert letter == ab_label(m).value == zeckendorf_label(m).value, m

    def test_limits_at_and_around_fibonacci_numbers(self):
        # the substitution words have Fibonacci lengths, so these limits cut
        # exactly at, just before and just after a built word; the reference
        # builds the word by string concatenation
        word = oracles.ab_word(10**6)
        limits = [0, 1, 2, 3, 10**6]
        f, g = 1, 2
        while g < 10**6:
            limits += [g - 1, g, g + 1]
            f, g = g, f + g
        for limit in limits:
            assert fill_word(limit) == word[:limit], limit

    def test_fill_allocates_nothing_per_letter(self):
        # every step copies within the buffer
        buffer = bytearray(10**6)
        tracemalloc.start()
        try:
            fibonacci_fill(buffer, b"A", b"B")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert buffer[:8] == b"ABAABABA"
        assert peak <= 10_000, peak

    def test_repeat_four_marks_the_c_half_values(self):
        # T1 = "1", T2 = "1110", T(k+1) = T(k)^4 T(k-1) is the standard word
        # of slope 3 - sqrt5 = [0; 1, 3, 4, 4, ...], the density of the
        # values floor(i*phi^2/2); checked here against c_half for every m
        top = 10**6
        marks = bytearray(top + 1)
        i = 1
        while (m := c_half(i)) <= top:
            marks[m] = 1
            i += 1
        word = bytearray(top)
        fibonacci_fill(word, b"\x01", b"\x01\x01\x00", repeat=4)
        assert word == marks[1:]
        with pytest.raises(ValueError, match="repeat must be positive, got 0"):
            fibonacci_fill(word, b"\x01", b"\x01\x01\x00", repeat=0)


class TestFibonacciFill:
    # the phi partition's pieces: A -> the labels of a term's interval, B -> its first 2**(n-1)
    PIECES = [(b"A", b"B"), (b"xyz", b"q")] + [
        (interval, interval[: 2 ** (n - 1)]) for n in range(2, 7) for interval in [oracles.interval_labels(n)]
    ]

    def test_fill_matches_concatenated_pieces(self):
        # every length to 300 (including buffers shorter than a and between
        # |a| and |a| + |b|), and each side of the image lengths |T(k)| of
        # the Fibonacci words S(k), where a fill step copies up to the end
        top = 10**5
        word = oracles.ab_word(top + 2)
        for a, b in self.PIECES:
            image = b"".join(a if letter == "A" else b for letter in word)[: top + 2]
            lengths = set(range(301))
            previous, size = len(b), len(a)  # |T(0)| for S(0) = "B", then |T(1)|
            while size <= top:
                lengths |= {size - 1, size, size + 1}
                previous, size = size, size + previous
            for length in sorted(lengths):
                buffer = bytearray(length)
                fibonacci_fill(buffer, a, b)
                assert buffer == image[:length], (a, b, length)
                if a.startswith(b):
                    # as the phi partition calls it: a is already the buffer's
                    # prefix, and both pieces are views of that prefix
                    buffer = bytearray(length)
                    view = memoryview(buffer)
                    view[: len(a)] = a[:length]
                    fibonacci_fill(view, view[: len(a)], view[: len(b)])
                    assert buffer == image[:length], (a, b, length)


# -- kernels against the QuadraticReal reference -------------------------------


class TestAgainstReference:
    def test_klm_full_grid(self):
        for n in range(1, 151):
            an = lower(n)
            for K, L, M in product(range(-5, 6), repeat=3):
                if K * an + L * n + M >= 1:
                    assert klm(K, L, M, n) == ref_klm(K, L, M, n), (K, L, M, n)

    @settings(max_examples=400, deadline=None)
    @given(coefficients, coefficients, coefficients, indices)
    def test_klm(self, K, L, M, n):
        assume(K * lower(n) + L * n + M >= 1)
        value = klm(K, L, M, n)
        assert value == ref_klm(K, L, M, n)
        assert value == lower(K * lower(n) + L * n + M)

    @settings(max_examples=100, deadline=None)
    @given(coefficients, coefficients, coefficients, indices)
    def test_klm_rejects_like_reference(self, K, L, M, n):
        assume(K * lower(n) + L * n + M < 1)
        with pytest.raises(ValueError):
            klm(K, L, M, n)
        with pytest.raises(ValueError):
            ref_klm(K, L, M, n)

    def test_classifiers_exhaustive(self):
        for m in range(1, 5001):
            assert ab_label(m) is ref_ab_label(m), m
            assert unit_interval_label(m) is ref_unit_interval_label(m), m
            assert classify_ab(m) == ref_classify_ab(m), m
            assert classify_cd(m) == ref_classify_cd(m), m

    @settings(max_examples=300, deadline=None)
    @given(indices)
    def test_ab_label(self, m):
        assert ab_label(m) is ref_ab_label(m)

    @settings(max_examples=300, deadline=None)
    @given(indices)
    def test_unit_interval_label(self, m):
        assert unit_interval_label(m) is ref_unit_interval_label(m)

    @settings(max_examples=300, deadline=None)
    @given(indices)
    def test_classify_ab(self, m):
        assert classify_ab(m) == ref_classify_ab(m)

    @settings(max_examples=300, deadline=None)
    @given(indices)
    def test_classify_cd(self, m):
        assert classify_cd(m) == ref_classify_cd(m)


class TestExactness:
    def test_zero_sign_is_a_defect(self):
        # {1*phi} = (-1 + sqrt5)/2 against the breakpoint (-1 + sqrt5)/2 itself
        with pytest.raises(ArithmeticError):
            wythoff._frac_phi_sign(1, lower(1), (-1, 1))

    # the kernels' integer sign and floor of p + q*sqrt5, against decimals
    @pytest.mark.parametrize("p, q", [(3, 1), (-3, 1), (3, -1), (-3, -1), (2, 1), (-2, 1), (0, 1), (5, 0)])
    def test_sign5(self, p, q):
        value = Decimal(p) + q * Decimal(5).sqrt()
        assert _sign_of(p, q, 5) == (value > 0) - (value < 0)

    @pytest.mark.parametrize("p, q, d", [(1, 1, 2), (-1, 1, 2), (3, -1, 2), (7, 0, 3), (-7, 0, 3), (0, -4, 1)])
    def test_floor5(self, p, q, d):
        assert floor_surd(p, q, d) == math.floor((Decimal(p) + q * Decimal(5).sqrt()) / d)

    def test_nonpositive_rejected(self):
        for fn in (ab_label, unit_interval_label, classify_ab, classify_cd):
            with pytest.raises(ValueError):
                fn(0)
