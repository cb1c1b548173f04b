"""Differential tests of the integer kernels in wythoff.

The reference implementations below evaluate the same closed forms in
QuadraticReal field arithmetic.  The kernels decide membership by the
counting floor; the references decide it by the quarter rule, comparing
{m*phi} with the QuadraticReal breakpoints (oracles.unit_interval_label),
and find each witness by a +-1 search around the inverted floor.  A
second, independent oracle is the Fibonacci word: m is a lower Wythoff
value exactly when its Zeckendorf representation ends in an even number
of zeros (OEIS A003849, A000201).
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import threading
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beattylab import wythoff
from beattylab.qfield import (
    HALF_PHI_SQ,
    INV_PHI,
    INV_PHI_CUBED,
    INV_PHI_SQ,
    ONE,
    PHI,
    QuadraticReal,
    SQRT2,
    _sign_of,
    floor_surd,
)
from beattylab.wythoff import (
    ABLabel,
    ABMembership,
    c_half,
    classify_ab,
    d_cubed,
    frac_phi,
    klm,
    lower,
    standard_fill,
    upper,
)
from beattylab.identities import strict_compare
import oracles
from oracles import (
    CDLabel,
    CDMembership,
    IntervalLabel,
    ab_label,
    cd_label,
    classify_cd,
    unit_interval_label,
    witness_search,
)

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


def ref_classify_ab(m: int) -> ABMembership:
    if ref_ab_label(m) is ABLabel.A:
        i = (INV_PHI * (m + 1)).floor()
        return ABMembership(ABLabel.A, witness_search(m, i, lower))
    i = (INV_PHI_SQ * (m + 1)).floor()
    return ABMembership(ABLabel.B, witness_search(m, i, upper))


def ref_classify_cd(m: int) -> CDMembership:
    if unit_interval_label(m) in (IntervalLabel.I1, IntervalLabel.I3):
        i = ((ONE - INV_PHI_CUBED) * (m + 1)).floor()  # (m+1) * 2/phi^2
        return CDMembership(CDLabel.C, witness_search(m, i, c_half))
    i = (INV_PHI_CUBED * (m + 1)).floor()  # (m+1) / phi^3
    return CDMembership(CDLabel.D, witness_search(m, i, d_cubed))


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
    """The A/B labels of 1, ..., limit as standard_fill writes them with slope 1/phi, 1 -> "A", 0 -> "B"."""
    word = bytearray(limit)
    standard_fill(word, INV_PHI, b"A", b"B")
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

    def test_b_word_has_slope_inv_phi_sq(self):
        # m is an upper Wythoff value exactly when c(m) = 1 for slope 1/phi^2
        word = bytearray(10**5)
        standard_fill(word, INV_PHI_SQ, b"B", b"A")
        assert word.decode("ascii") == fill_word(10**5)

    def test_limits_at_and_around_fibonacci_numbers(self):
        # the standard words have Fibonacci lengths, so these limits cut
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
            standard_fill(buffer, INV_PHI, b"A", b"B")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert buffer[:8] == b"ABAABABA"
        assert peak <= 10_000, peak


def brute_word(slope: QuadraticReal, size: int) -> bytes:
    """c(1), ..., c(size) with c(k) = floor((k+1)*slope) - floor(k*slope), one QuadraticReal floor per k."""
    floors = [(slope * k).floor() for k in range(1, size + 2)]
    return bytes(b - a for a, b in zip(floors, floors[1:]))


def expansion(slope: QuadraticReal, count: int) -> list[int]:
    """The first count quotients d1, d2, ... of slope = [0; d1, d2, ...], independent of QuadraticReal.

    Euclid on a Fraction for a rational slope; for an irrational one,
    (p + q*sqrt(r))/d in 400-digit Decimal arithmetic, where a count of 30
    small quotients leaves well over 100 digits of margin.
    """
    if slope.q == 0:
        x, out = Fraction(slope.p, slope.d), []
        while x and len(out) < count:
            x = 1 / x
            out.append(math.floor(x))
            x -= out[-1]
        return out
    with localcontext() as context:
        context.prec = 400
        x = (Decimal(slope.p) + Decimal(slope.q) * Decimal(slope.radicand).sqrt()) / Decimal(slope.d)
        out = []
        while len(out) < count:
            x = 1 / x
            out.append(int(x))
            x -= out[-1]
        return out


class TestStandardFill:
    # irrationals in Q(sqrt5), Q(sqrt2), Q(sqrt3) and Q(sqrt13); rationals
    # whose expansion has odd (1/2, 1/3, 3/8) and even length; and 0
    SLOPES = [
        INV_PHI,
        INV_PHI_SQ,
        2 * INV_PHI_SQ,
        SQRT2 - 1,
        2 - SQRT2,
        QuadraticReal(-1, 1, 1, radicand=3),
        QuadraticReal(-2, 1, 3, radicand=13),
    ] + [QuadraticReal(p, 0, q) for p, q in [(1, 2), (1, 3), (3, 8), (2, 3), (3, 7), (5, 8), (37, 64), (63, 64), (0, 1)]]
    # one-byte and multi-byte pieces, and pieces with one starting with zero
    # (the partition's: one -> a term's interval, zero -> its first 2**(n-1) labels)
    PIECES = [(b"\x01", b"\x00"), (b"xyz", b"q"), (b"q", b"xyz"), (b"xyzw", b"xy")] + [
        (interval, interval[: 2 ** (n - 1)]) for n in range(2, 7) for interval in [oracles.interval_labels(n)]
    ]

    def test_fill_matches_brute_force_words(self):
        # every length to 300 (including buffers shorter than one piece), and
        # each side of the image lengths of the standard words s(k) and of
        # the first periods of a rational word, to 10**5 bytes for 1/phi
        # (whose word is oracles.ab_word, built by concatenation) and to 3000
        # for the other slopes (one QuadraticReal floor per k)
        for slope in self.SLOPES:
            top = 10**5 if slope == INV_PHI else 3000
            if slope == INV_PHI:
                word = bytes(letter == "A" for letter in oracles.ab_word(top + 2))
            else:
                word = brute_word(slope, top + 2)
            for one, zero in self.PIECES:
                image = b"".join(one if c else zero for c in word)[: top + 2]
                lengths = set(range(301))
                previous, size = len(one), len(zero)  # s(-1), s(0)
                quotients = wythoff._quotients(slope)
                while size <= top:
                    d = next(quotients, 1)  # past a rational's expansion: its period, again and again
                    previous, size = size, d * size + previous
                    lengths |= {size - 1, size, size + 1}
                for length in sorted(n for n in lengths if n <= top + 1):
                    buffer = bytearray(length)
                    standard_fill(buffer, slope, one, zero)
                    assert buffer == image[:length], (slope, one, zero, length)
                    if length and one.startswith(zero):
                        # as the partition calls it: one is already the buffer's
                        # prefix, and both (non-empty) pieces are views of that prefix
                        buffer = bytearray(length)
                        view = memoryview(buffer)
                        view[: len(one)] = one[:length]
                        standard_fill(view, slope, view[: len(one)], view[: len(zero)])
                        assert buffer == image[:length], (slope, one, zero, length)

    def test_quotients_match_the_expansion(self):
        # d1 - 1, d2, ..., and a rational's odd expansion [..., d] read as
        # [..., d - 1, 1], against Euclid and Decimal expansions
        slopes = [
            QuadraticReal(p, q, d, radicand=r).frac()
            for p, q, d, r in product(range(-7, 8, 2), range(-3, 4), (1, 2, 3, 10), (2, 3, 5, 13))
        ]
        for slope in slopes + self.SLOPES:
            expected = expansion(slope, 30)
            if slope.q == 0 and len(expected) % 2:
                expected[-1:] = [expected[-1] - 1, 1]
            expected[:1] = [d - 1 for d in expected[:1]]
            # a rational's quotients end; islice asks for one more to show it
            assert list(islice(wythoff._quotients(slope), len(expected) + (slope.q == 0))) == expected, slope

    def test_huge_quotient_finishes(self):
        # 1/10**30 = [0; 10**30] and 1 - 1/10**30 = [0; 1, 10**30 - 1]: the
        # first word takes only as many copies as the buffer holds
        buffer = bytearray(10**6)
        standard_fill(buffer, QuadraticReal(1, 0, 10**30), b"\x01", b"\x00")
        assert buffer.count(0) == 10**6
        standard_fill(buffer, 1 - QuadraticReal(1, 0, 10**30), b"\x01", b"\x00")
        assert buffer.count(1) == 10**6
        assert brute_word(QuadraticReal(1, 0, 10**30), 300) == bytes(300)

    def test_slope_three_minus_sqrt5_marks_every_c_half_value(self):
        # m = floor(i*phi^2/2) for some i exactly when c(m) = 1 for slope
        # 2/phi^2 = 3 - sqrt5, checked here against c_half for every m
        top = 10**6
        marks = bytearray(top + 1)
        i = 1
        while (m := c_half(i)) <= top:
            marks[m] = 1
            i += 1
        word = bytearray(top)
        standard_fill(word, 2 * INV_PHI_SQ, b"\x01", b"\x00")
        assert word == marks[1:]

    def test_slope_outside_the_unit_interval_raises(self):
        word = bytearray(10)
        for slope in (HALF_PHI_SQ, ONE, 2 * INV_PHI_SQ - 1, PHI, SQRT2):
            with pytest.raises(ValueError, match=r"need 0 <= slope < 1 and non-empty pieces, got slope"):
                standard_fill(word, slope, b"\x01", b"\x00")
        for one, zero in ((b"", b"\x00"), (b"\x01", b"")):
            with pytest.raises(ValueError, match="need 0 <= slope < 1 and non-empty pieces"):
                standard_fill(word, INV_PHI, one, zero)


# -- kernels against the QuadraticReal reference -------------------------------


class TestAgainstReference:
    def test_klm_full_grid(self):
        for n in range(1, 151):
            an = lower(n)
            for K, L, M in product(range(-5, 6), repeat=3):
                if K * an + L * n + M >= 1:
                    assert klm(K, L, M, n) == ref_klm(K, L, M, n), (K, L, M, n)

    def test_klm_does_not_call_lower(self, monkeypatch):
        # the klm-grid identity compares klm(K, L, M, n) with lower(K*a(n) + L*n + M),
        # two independent computations only while klm never calls lower
        rng = random.Random(7)
        grid = rng.sample(list(product(range(-5, 6), repeat=3)), 80)
        ns = [1, 2, 3, 150, 10**6] + [rng.randint(1, BIG) for _ in range(10)] + [BIG]
        cases = [(K, L, M, n) for n in ns for K, L, M in grid if K * lower(n) + L * n + M >= 1]
        expected = [ref_klm(*case) for case in cases]

        def no_lower(n):
            raise AssertionError("klm called wythoff.lower")

        monkeypatch.setattr(wythoff, "lower", no_lower)
        with pytest.raises(AssertionError):
            wythoff.frac_phi(5)  # the patch is live inside the module
        assert len(cases) > 500
        assert [klm(*case) for case in cases] == expected

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
            assert classify_ab(m) == ref_classify_ab(m), m
            assert classify_cd(m) == ref_classify_cd(m), m

    @settings(max_examples=300, deadline=None)
    @given(indices)
    def test_ab_label(self, m):
        assert ab_label(m) is ref_ab_label(m)

    @settings(max_examples=300, deadline=None)
    @given(indices)
    def test_classify_ab(self, m):
        assert classify_ab(m) == ref_classify_ab(m)

    @settings(max_examples=300, deadline=None)
    @given(indices)
    def test_classify_cd(self, m):
        assert classify_cd(m) == ref_classify_cd(m)


class TestKlmRecord:
    """klm keeps the last row (n, K, L); no call may read another row's terms."""

    def test_grid_with_n_innermost_and_rejected_calls_between(self):
        # n changes at every step, each n is also passed as an equal int that
        # is not the same object, and a call rejected for n <= 0 or for an
        # argument below 1 comes between any two calls
        ns = (1, 150, 10**6, 10**30)
        for K, L, M in product(range(-5, 6), repeat=3):
            for n in ns:
                for same in (n, int(str(n))):
                    if K * lower(n) + L * n + M >= 1:
                        assert klm(K, L, M, same) == ref_klm(K, L, M, n), (K, L, M, n)
                    else:
                        with pytest.raises(ValueError, match="must be positive"):
                            klm(K, L, M, same)
                    with pytest.raises(ValueError, match="n must be a positive integer"):
                        klm(K, L, M, -n if n % 2 else 0)
                    with pytest.raises(ValueError, match="argument K\\*a\\(n\\)\\+L\\*n\\+M = 0 must be positive"):
                        klm(0, 0, 0, same)

    def test_first_call_in_a_fresh_interpreter(self):
        # the record klm starts from must hold no n a caller can pass
        code = (
            f"import sys\nsys.path.insert(0, {str(Path(wythoff.__file__).resolve().parents[1])!r})\n"
            "from beattylab.wythoff import klm\nprint(klm(1, 1, 1, 1), klm(1, 1, 1, 2))\n"
        )
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True)
        assert proc.stdout.split() == [str(lower(lower(1) + 2)), str(lower(lower(2) + 3))]

    def test_grid_with_m_innermost_and_rejected_calls_between(self):
        # each row (n, K, L) runs over M, so after its first call every call
        # reads the record; a call rejected for an argument of 0 at the same
        # row comes between any two of them
        for n in (1, 150, 10**6, 10**30):
            an = lower(n)
            for K, L in product(range(-5, 6), repeat=2):
                base = K * an + L * n
                for M in range(max(-5, 1 - base), 6):
                    assert klm(K, L, M, n) == ref_klm(K, L, M, n), (K, L, M, n)
                    with pytest.raises(ValueError, match="argument K\\*a\\(n\\)\\+L\\*n\\+M = 0 must be positive"):
                        klm(K, L, -base, n)

    def test_k_or_l_alone_changes_at_one_n(self):
        # L changes at every step with K and n kept, then K with L and n kept
        rows = list(product(range(-5, 6), repeat=2))
        for n in (1, 150, 10**6, 10**30):
            an = lower(n)
            for K, L in rows + [(K, L) for L, K in rows]:
                M = max(5, 1 - (K * an + L * n))
                assert klm(K, L, M, n) == ref_klm(K, L, M, n), (K, L, M, n)

    def test_equal_arguments_that_are_other_objects(self):
        # an n, K or L equal to the row's but not the same object is computed
        # afresh: it answers as after a call at another row, an int built
        # anew or a bool as its int, a float or a Fraction as a non-int does
        big = 10**20

        def outcome(K, L, n):
            try:
                return klm(K, L, 1, n)
            except (TypeError, ValueError) as exc:
                return type(exc), str(exc)

        for n in (1, 150, 10**6, 10**30):
            cases = [
                ((big, 1), (int(str(big)), 1, n)),
                ((1, big), (1, int(str(big)), n)),
                ((1, 1), (True, 1, n)),
                ((1, 1), (1, True, n)),
                ((2, 3), (2.0, 3, n)),
                ((2, 3), (2, Fraction(3), n)),
                ((2, 3), (2, 3, Fraction(n))),
            ]
            for (K, L), equal in cases:
                klm(1, 1, 1, n + 1)
                fresh = outcome(*equal)
                klm(K, L, 1, n)
                assert outcome(*equal) == fresh, (K, L, equal)
                if all(type(x) in (int, bool) for x in equal):
                    assert fresh == ref_klm(K, L, 1, n), (K, L, n)

    def test_a_call_before_every_opcode(self):
        # a trace hook calls klm before each opcode of klm(K, L, M, n), in
        # turn at another n and at n with another (K, L), so the record
        # changes at every point of the call; the call must still answer from
        # its own row, whether the record held that row (and is read), its n
        # with another (K, L), or another n (and is replaced) when it began
        code = wythoff.klm.__code__
        other = 10**30 + 7
        hooked = 0

        def interleave(frame, event, arg):
            nonlocal hooked
            if event == "opcode":
                hooked += 1
                klm(*((1, 1, 1, other) if hooked % 2 else neighbour))
            return interleave

        def on_call(frame, event, arg):
            if frame.f_code is code:
                frame.f_trace_opcodes = True
                return interleave
            return None

        for n in (1, 150, 10**6, 10**30):
            for K, L, M in ((1, 1, 1), (2, -3, 5), (-1, 2, 0), (1, -1, 1), (5, -5, 4), (0, 0, 1)):
                # another row at n, with a positive argument at M = 1
                neighbour = (2, 1, 1, n) if (K, L) == (1, 1) else (1, 1, 1, n)
                for before in ((K, L, M, n), neighbour, (1, 1, 1, other)):
                    klm(*before)
                    hooked = 0
                    previous = sys.gettrace()
                    sys.settrace(on_call)
                    try:
                        value = klm(K, L, M, n)
                    finally:
                        sys.settrace(previous)
                    assert value == lower(K * lower(n) + L * n + M), (K, L, M, n, before)
                    assert hooked >= 20, hooked  # the hook ran inside the call

    def test_threads_on_disjoint_n(self):
        # four threads switch every microsecond; a record read in two steps or
        # changed in place would hand one thread the coordinates of another's n
        # (under a GIL no switch falls inside klm's body, which calls no Python
        # function and has no loop, so there the opcode test above is the sharp one)
        triples = random.Random(11).sample(list(product(range(-5, 6), repeat=3)), 6)
        bases = (0, 10**6, 10**20, 10**30)
        results = {}

        def run(base):
            out = []
            for n in range(base + 1, base + 51):
                for K, L, M in triples:
                    try:
                        out.append(klm(K, L, M, n))
                    except ValueError:
                        out.append(None)
            results[base] = out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(base,)) for base in bases]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for base in bases:
            expected = []
            for n in range(base + 1, base + 51):
                an = lower(n)
                for K, L, M in triples:
                    arg = K * an + L * n + M
                    expected.append(lower(arg) if arg >= 1 else None)
            assert results[base] == expected, base


# the label of the values each enumerator lists
OWN_LABEL = {"lower": ABLabel.A, "upper": ABLabel.B, "c_half": CDLabel.C, "d_cubed": CDLabel.D}
FAULT_POINTS = list(range(1, 3001)) + [int(10 ** (30 * random.Random(k).random())) + 1 for k in range(300)]


class TestFaultInjection:
    @pytest.mark.parametrize("offset", [-1, 1])
    @pytest.mark.parametrize("name", OWN_LABEL)
    def test_off_by_one_enumerator_raises(self, monkeypatch, name, offset):
        # a value of the faulty enumerator's set matches neither candidate and
        # must raise ArithmeticError; a value of the complement may match both
        # (which raises too) but never only the wrong one.  A ValueError, which
        # the CLI reports as a usage error, fails the test.
        truth = {m: (classify_ab(m), cd_label(m)) for m in FAULT_POINTS}
        real = getattr(wythoff, name)
        monkeypatch.setattr(wythoff, name, lambda n: real(n) + offset)
        raised = 0
        for m in FAULT_POINTS:
            membership, cd = truth[m]
            if name in ("c_half", "d_cubed"):
                cases = [(cd_label, cd)]
            else:
                cases = [(classify_ab, membership), (ab_label, membership.label)]
            for fn, expected in cases:
                try:
                    got = fn(m)
                except ArithmeticError:
                    raised += 1
                    continue
                assert OWN_LABEL[name] not in (membership.label, cd), (fn.__name__, m)
                assert got == expected, (fn.__name__, m)
        assert raised


class TestExactness:
    def test_zero_sign_is_a_defect(self):
        # {1*phi} = (-1 + sqrt5)/2 against the breakpoint 1/phi = (-1 + sqrt5)/2 itself:
        # the only breakpoint comparison left, strict_compare, and the quarter rule built on it
        with pytest.raises(ArithmeticError, match="equals breakpoint"):
            strict_compare(frac_phi(1), INV_PHI)
        assert strict_compare(frac_phi(1), INV_PHI_SQ) > 0

    # the kernels' integer sign and floor of p + q*sqrt5, against decimals
    @pytest.mark.parametrize("p, q", [(3, 1), (-3, 1), (3, -1), (-3, -1), (2, 1), (-2, 1), (0, 1), (5, 0)])
    def test_sign5(self, p, q):
        value = Decimal(p) + q * Decimal(5).sqrt()
        assert _sign_of(p, q, 5) == (value > 0) - (value < 0)

    @pytest.mark.parametrize("p, q, d", [(1, 1, 2), (-1, 1, 2), (3, -1, 2), (7, 0, 3), (-7, 0, 3), (0, -4, 1)])
    def test_floor5(self, p, q, d):
        assert floor_surd(p, q, d) == math.floor((Decimal(p) + q * Decimal(5).sqrt()) / d)

    def test_nonpositive_rejected(self):
        for fn in (ab_label, classify_ab, cd_label, classify_cd):
            with pytest.raises(ValueError):
                fn(0)
