"""Golden-ratio Beatty sequences, membership and the KLM closed form.

The lower and upper Wythoff sequences floor(n*phi) and floor(n*phi^2)
partition the positive integers, as do the complementary Beatty pair
floor(n*phi^2/2) and floor(n*phi^3).  This module computes all four
exactly, classifies integers by membership, evaluates the KLM closed
form for floor((K*a(n) + L*n + M)*phi) and the fractional part
{n*phi}, and fills the characteristic word of any exact slope.

Membership has one rule, the one the range fills use: for irrational
alpha > 1, exactly i = floor((m+1)/alpha) of the values floor(k*alpha)
are <= m (Fraenkel 1969), so m is the i-th of them or the (m - i)-th
value of the complement.  classify_ab computes i with one integer floor,
and _split recomputes both candidates and raises ArithmeticError unless
exactly one is m.  classify_ab and klm work on plain integers and never
build a QuadraticReal.  Range scans fill the labels of a whole range
with standard_fill, the characteristic word of an exact slope (1/phi
marks the A values, 1/phi^2 the B values).  The per-point A/B and C/D
labels the scans are tested against are test oracles, built on
classify_ab and _split.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, repeat
from math import isqrt
from typing import Iterator, NamedTuple

from .qfield import ONE, QuadraticReal, ZERO, floor_surd


class ABLabel(Enum):
    """Membership among the lower (A) / upper (B) Wythoff values."""

    A = "A"
    B = "B"


class ABMembership(NamedTuple):
    label: ABLabel
    witness: int


def _require_positive(n: int, name: str = "n") -> None:
    # the per-point kernels test n < 1 inline and call this only to raise
    if n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n}")


def lower(n: int) -> int:
    """Lower Wythoff value floor(n*phi), exactly."""
    if n < 1:
        _require_positive(n)
    return (n + isqrt(5 * n * n)) // 2


def upper(n: int) -> int:
    """Upper Wythoff value floor(n*phi^2) = floor(n*phi) + n."""
    if n < 1:
        _require_positive(n)
    return (n + isqrt(5 * n * n)) // 2 + n


def c_half(n: int) -> int:
    """floor(n*phi^2/2) = floor(n*(3+sqrt5)/4), exactly."""
    if n < 1:
        _require_positive(n)
    return (3 * n + isqrt(5 * n * n)) // 4


def d_cubed(n: int) -> int:
    """floor(n*phi^3) = 2n + floor(n*sqrt5), exactly."""
    if n < 1:
        _require_positive(n)
    return 2 * n + isqrt(5 * n * n)


def frac_phi(n: int) -> QuadraticReal:
    """Fractional part of n*phi as an exact field element."""
    if n < 1:
        _require_positive(n)
    return QuadraticReal(n - 2 * lower(n), n, 2)


# (n, K, L, K*a(n) + L*n, K*b(n) + L*a(n), cp, cq) of the last row klm was
# called with, where 8*(M*phi + (L*phi - K)*{n*phi}/phi) = cp + 4M + (cq + 4M)*sqrt5;
# klm reads it by identity with n, K and L, and None is no int
_klm_record: tuple = (None, None, None, 0, 0, 0, 0)


def klm(K: int, L: int, M: int, n: int) -> int:
    """Closed form for floor((K*a(n) + L*n + M)*phi) with a = lower Wythoff.

    Returns K*b(n) + L*a(n) + floor(M*phi + (L*phi - K)*{n*phi}/phi); the
    argument K*a(n) + L*n + M must itself be a positive integer.  A scan
    over (K, L, M) calls it with one row (n, K, L) for several M in a row,
    so that row's M-free terms are kept in _klm_record, read once per call
    as one tuple and replaced whole: callers in several threads never mix
    two rows, and an n, K or L equal to the last but not the same object
    (2.0 for 2, True for 1) is computed afresh.
    """
    if n < 1:
        _require_positive(n)
    global _klm_record
    rn, rK, rL, base, whole, cp, cq = _klm_record
    if rn is not n or rK is not K or rL is not L:
        an = (n + isqrt(5 * n * n)) // 2  # a(n), as in lower
        fp = n - 2 * an  # {n*phi} = (fp + n*sqrt5)/2
        gp = 5 * n - fp  # {n*phi}/phi = (gp + gq*sqrt5)/4
        gq = fp - n
        hp = L - 2 * K  # L*phi - K = (hp + L*sqrt5)/2
        base = K * an + L * n
        whole = K * (an + n) + L * an
        cp = hp * gp + 5 * L * gq
        cq = hp * gq + L * gp
        _klm_record = (n, K, L, base, whole, cp, cq)
    if base + M < 1:
        raise ValueError(f"argument K*a(n)+L*n+M = {base + M} must be positive")
    # with tq = cq + 4M the floor is floor_surd(cp + 4M, tq, 8), inlined
    tq = cq + 4 * M
    root = isqrt(5 * tq * tq)  # floor(tq*sqrt5) for tq >= 0
    if tq < 0:
        root = -root - 1
    return whole + (cp + 4 * M + root) // 8


def _split(m: int, count: int, first, second) -> tuple[bool, int]:
    """(True, count) if m = first(count), (False, m - count) if m = second(m - count).

    first and second enumerate a complementary Beatty pair, and exactly
    count values of first are <= m, so exactly one holds; neither or both
    is an arithmetic bug.
    """
    in_first = first(count) == m
    if in_first == (count < m and second(m - count) == m):
        raise ArithmeticError(f"{m} is not exactly one of {first.__name__}({count}), {second.__name__}({m - count})")
    return in_first, count if in_first else m - count


def classify_ab(m: int) -> ABMembership:
    """A/B membership of m with a witness index i (a(i) = m or b(i) = m).

    i = floor((m+1)/phi) of the values a(k) are <= m, so m is a(i) or b(m - i).
    """
    _require_positive(m, "m")
    in_a, witness = _split(m, floor_surd(-(m + 1), m + 1, 2), lower, upper)  # (m+1)/phi = (m+1)*(-1 + sqrt5)/2
    return ABMembership(ABLabel.A if in_a else ABLabel.B, witness)


def _quotients(slope: QuadraticReal) -> Iterator[int]:
    """d1 - 1, d2, d3, ... of slope = [0; d1, d2, ...]; a rational's odd [..., d] is read as [..., d - 1, 1]."""
    x, k = slope, 0
    while x:  # x = [0; d(k+1), ...]
        x = x.inverse()
        d = x.floor()
        x -= d
        k += 1
        yield d - (k == 1) - (k % 2 and not x)
    if k % 2:
        yield 1


def standard_fill(
    buffer: bytearray | memoryview, slope: QuadraticReal, one: bytes | memoryview, zero: bytes | memoryview
) -> None:
    """Fill a writable buffer with the image of c(k) = floor((k+1)*slope) - floor(k*slope), k >= 1.

    c, the characteristic word of slope = [0; d1, d2, ...] in [0, 1), is the
    limit of the standard words s(-1) = 1, s(0) = 0, s(1) = s(0)^(d1-1) s(-1),
    s(k) = s(k-1)^dk s(k-2) (Lothaire, ch. 2); a rational's last s(k) ends in
    10 and is c's period.  s(k-2) is a prefix of s(k-1) from s(1) on, so each
    step copies doubling prefixes of the buffer in place.  one may be a view
    of the buffer's prefix and zero one of one's: s(k-2) goes in first.
    """
    if not (ZERO <= slope < ONE and len(one) and len(zero)):
        raise ValueError(f"need 0 <= slope < 1 and non-empty pieces, got slope {slope}")
    with memoryview(buffer) as view:
        size = len(view)
        view[: len(zero)] = zero[:size]
        previous, end = len(one), len(zero)  # |s(k-2)|, |s(k-1)|
        quotients = chain(_quotients(slope), repeat(size))  # past a rational's last one, a period repeats
        for last, d in zip(chain((one, zero), repeat(view)), quotients):  # last is s(k-2)
            at, top = min(d * end, size), min(d * end + previous, size)
            view[at:top] = last[: top - at]
            previous, done = end, end
            while done < at:  # s(k-1)^d
                step = min(done, at - done)
                view[done : done + step] = view[:step]
                done += step
            end = top
            if end == size:
                return

