"""Exact arithmetic in real quadratic fields Q(sqrt(r)).

Every value is a triple of arbitrary-precision integers (p, q, d) with
d > 0 and gcd(p, q, d) = 1, representing (p + q*sqrt(r))/d for a fixed
non-square radicand r (5 by default, 2 for the sqrt(2) constructions).
All operations -- field arithmetic, ordering, floor, fractional part --
are exact; no floating point is ever consulted for a result.
"""

from __future__ import annotations

import sys
from math import gcd, isqrt

DEFAULT_RADICAND = 5


def _brief(value: object) -> str:
    """str(value) for an error message, or only its length past 40 characters, so no message grows with its input."""
    text = str(value)
    return text if len(text) <= 40 else f"a value of {len(text)} characters"


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _sign_of(p: int, q: int, r: int) -> int:
    """Exact sign of p + q*sqrt(r).

    When p and q disagree in sign the dominant term is decided by
    comparing p^2 with r*q^2; equality is impossible for q != 0 because
    r is not a perfect square.
    """
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    if p > 0:  # q < 0
        return 1 if p * p > r * q * q else -1
    return -1 if p * p > r * q * q else 1


def floor_surd(p: int, q: int, d: int, r: int = DEFAULT_RADICAND) -> int:
    """floor((p + q*sqrt(r))/d) for d > 0 and non-square r, via one integer square root.

    floor(q*sqrt(r)) is isqrt(q^2 r) for q >= 0 and -isqrt(q^2 r) - 1
    for q < 0 (q^2 r is never a perfect square for q != 0).  Adding p
    and flooring the division by d then gives the result, because the
    value lies strictly between consecutive integers p + floor(q*sqrt(r))
    and p + floor(q*sqrt(r)) + 1.
    """
    m = isqrt(q * q * r)
    if q < 0:
        m = -m - 1
    return (p + m) // d


def floor_sum(n: int, a: QuadraticReal, b: QuadraticReal) -> int:
    """S(n, a, b) = sum of floor(a*k + b) over k in [0, n), for a and b in one Q(sqrt(r)); 0 for n <= 0.

    Euclid's reduction for floor sums (Graham, Knuth and Patashnik,
    Concrete Mathematics, section 3.5), in a loop.  With the floors of a
    and b taken out, 0 <= a, b < 1, and the m = floor(a*(n - 1) + b)
    integers j in [1, m] each count the k with a*k + b >= j, that is
    n - ceil((j - b)/a) of them.  With ceil(y) = -floor(-y) that gives
    S(n, a, b) = m*n + S(m, -1/a, (b - 1)/a), and m < n.  a and b travel
    as the integers (p1 + q1*sqrt(r))/d and (p2 + q2*sqrt(r))/d over one
    denominator, reduced by their gcd at every step (without it the
    coordinates double in length at every step), and every floor is one
    floor_surd, so no float and no QuadraticReal enters the loop.
    """
    o = a._coerce(b)
    if o is None:
        raise TypeError(f"floor_sum needs QuadraticReal a and b, got {type(a).__name__} and {type(b).__name__}")
    r = a._field(o)
    p1, q1, p2, q2, d = a._p * o._d, a._q * o._d, o._p * a._d, o._q * a._d, a._d * o._d
    total = 0
    while n > 0:
        whole_a = floor_surd(p1, q1, d, r)
        whole_b = floor_surd(p2, q2, d, r)
        total += whole_a * (n * (n - 1) // 2) + whole_b * n
        p1 -= whole_a * d
        p2 -= whole_b * d
        m = floor_surd(p1 * (n - 1) + p2, q1 * (n - 1) + q2, d, r)
        if m == 0:  # a*k + b < 1 for every k < n, a = 0 included
            break
        total += m * n
        norm = p1 * p1 - r * q1 * q1  # nonzero: a > 0 here, and r is not a square
        p1, q1, p2, q2, d = (
            -d * p1,
            d * q1,
            (p2 - d) * p1 - r * q2 * q1,
            q2 * p1 - (p2 - d) * q1,
            norm,
        )
        if d < 0:
            p1, q1, p2, q2, d = -p1, -q1, -p2, -q2, -d
        g = gcd(p1, q1, p2, q2, d)
        p1, q1, p2, q2, d = p1 // g, q1 // g, p2 // g, q2 // g, d // g
        n = m
    return total


class QuadraticReal:
    """An exact element (p + q*sqrt(radicand))/d of Q(sqrt(radicand))."""

    __slots__ = ("_p", "_q", "_d", "_r")

    def __init__(self, p: int, q: int = 0, d: int = 1, radicand: int = DEFAULT_RADICAND):
        if d == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        # only the int 5 itself (identity, not equality) skips the square test
        if q != 0 and radicand is not DEFAULT_RADICAND and (radicand < 2 or _is_square(radicand)):
            raise ValueError(f"radicand must be a non-square integer >= 2, got {_brief(radicand)}")
        if d < 0:
            p, q, d = -p, -q, -d
        g = gcd(p, q, d)
        if g > 1:
            p, q, d = p // g, q // g, d // g
        self._p = p
        self._q = q
        # rational values live in every quadratic field; tag them uniformly
        self._d = d
        self._r = DEFAULT_RADICAND if q == 0 else radicand

    @property
    def p(self) -> int:
        return self._p

    @property
    def q(self) -> int:
        return self._q

    @property
    def d(self) -> int:
        return self._d

    @property
    def radicand(self) -> int:
        return self._r

    def to_json_dict(self) -> dict:
        """JSON form with decimal digit strings, bit-exact across platforms."""
        obj = {"p": str(self._p), "q": str(self._q), "d": str(self._d)}
        if self._r != DEFAULT_RADICAND:
            obj["radicand"] = str(self._r)
        return obj

    def _coerce(self, other: int | QuadraticReal) -> QuadraticReal | None:
        if isinstance(other, int):
            return QuadraticReal(other, 0, 1, self._r)
        if isinstance(other, QuadraticReal):
            if self._r == other._r or self._q == 0 or other._q == 0:
                return other
            raise ValueError(f"mixed radicands {self._r} and {other._r}")
        return None

    def _field(self, other: QuadraticReal) -> int:
        return other._r if self._q == 0 else self._r

    # -- arithmetic ----------------------------------------------------------

    # an int operand enters the coordinates directly, where _coerce would
    # build QuadraticReal(other) first

    def __add__(self, other: int | QuadraticReal) -> QuadraticReal:
        if isinstance(other, int):
            return QuadraticReal(self._p + other * self._d, self._q, self._d, self._r)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticReal(
            self._p * o._d + o._p * self._d,
            self._q * o._d + o._q * self._d,
            self._d * o._d,
            self._field(o),
        )

    __radd__ = __add__

    def __sub__(self, other: int | QuadraticReal) -> QuadraticReal:
        if isinstance(other, int):
            return QuadraticReal(self._p - other * self._d, self._q, self._d, self._r)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadraticReal(
            self._p * o._d - o._p * self._d,
            self._q * o._d - o._q * self._d,
            self._d * o._d,
            self._field(o),
        )

    def __rsub__(self, other: int | QuadraticReal) -> QuadraticReal:
        return (-self) + other

    def __neg__(self) -> QuadraticReal:
        return QuadraticReal(-self._p, -self._q, self._d, self._r)

    def __mul__(self, other: int | QuadraticReal) -> QuadraticReal:
        if isinstance(other, int):
            return QuadraticReal(self._p * other, self._q * other, self._d, self._r)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = self._field(o)
        return QuadraticReal(
            self._p * o._p + r * self._q * o._q,
            self._p * o._q + self._q * o._p,
            self._d * o._d,
            r,
        )

    __rmul__ = __mul__

    def inverse(self) -> QuadraticReal:
        """Field inverse: d*(p - q*sqrt(r)) / (p^2 - r*q^2)."""
        norm = self._p * self._p - self._r * self._q * self._q
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return QuadraticReal(self._d * self._p, -self._d * self._q, norm, self._r)

    def __truediv__(self, other: int | QuadraticReal) -> QuadraticReal:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: int | QuadraticReal) -> QuadraticReal:
        return self.inverse() * other

    def __pow__(self, exponent: int) -> QuadraticReal:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QuadraticReal(1, 0, 1, self._r)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- ordering ------------------------------------------------------------

    def sign(self) -> int:
        return _sign_of(self._p, self._q, self._r)

    def compare(self, other: int | QuadraticReal) -> int:
        """Exact sign of self - other: -1, 0, or +1."""
        if isinstance(other, int):
            return _sign_of(self._p - other * self._d, self._q, self._r)
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare QuadraticReal with {type(other).__name__}")
        return _sign_of(
            self._p * o._d - o._p * self._d,
            self._q * o._d - o._q * self._d,
            self._field(o),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._q == 0 and self._d == 1 and self._p == other
        if not isinstance(other, QuadraticReal):
            return NotImplemented
        return (
            self._p == other._p
            and self._q == other._q
            and self._d == other._d
            and self._r == other._r
        )

    def __hash__(self) -> int:
        # rationals equal ints (see __eq__), so they must hash like numbers:
        # Python's documented hash of p/d, |p| times the inverse of d modulo
        # sys.hash_info.modulus, which is also Fraction's
        if self._q == 0:
            modulus = sys.hash_info.modulus
            try:
                h = hash(abs(self._p) * pow(self._d, -1, modulus))
            except ValueError:  # d is a multiple of the modulus
                h = sys.hash_info.inf
            h = h if self._p >= 0 else -h
            return -2 if h == -1 else h
        return hash((self._p, self._q, self._d, self._r))

    def __lt__(self, other: int | QuadraticReal) -> bool:
        return self.compare(other) < 0

    def __le__(self, other: int | QuadraticReal) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: int | QuadraticReal) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: int | QuadraticReal) -> bool:
        return self.compare(other) >= 0

    def __bool__(self) -> bool:
        return self._p != 0 or self._q != 0

    # -- floor and fractional part -------------------------------------------

    def floor(self) -> int:
        """Greatest integer <= value, via integer square roots only (floor_surd)."""
        return floor_surd(self._p, self._q, self._d, self._r)

    def frac(self) -> QuadraticReal:
        """Fractional part, exactly self - floor(self); in [0, 1)."""
        return self - self.floor()

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:
        if self._r == DEFAULT_RADICAND:
            return f"QuadraticReal({self._p}, {self._q}, {self._d})"
        return f"QuadraticReal({self._p}, {self._q}, {self._d}, radicand={self._r})"

    def __str__(self) -> str:
        if self._q == 0:
            return str(self._p) if self._d == 1 else f"{self._p}/{self._d}"
        if self._p == 0:
            num = f"{self._q}*sqrt{self._r}" if self._q != 1 else f"sqrt{self._r}"
            wrapped = num
        else:
            qpart = f"{self._q:+}*sqrt{self._r}"
            if self._q == 1:
                qpart = f"+sqrt{self._r}"
            elif self._q == -1:
                qpart = f"-sqrt{self._r}"
            num = f"{self._p}{qpart}"
            wrapped = f"({num})"
        if self._d == 1:
            return num
        return f"{wrapped}/{self._d}"

    def __float__(self) -> float:
        """Approximate float value. Debug/rendering only, never used in results.

        q*sqrt(r) is scaled by 2**shift and truncated with isqrt, then one
        integer division rounds, so coordinates of any size work.  Since
        |p**2 - r*q**2| >= 1, |p + q*sqrt(r)| >= 1/(|p| + |q|*sqrt(r)); the
        shift exceeds that many bits by 64, so cancellation cannot eat the
        precision.
        """
        if self._q == 0:
            return self._p / self._d
        shift = max(abs(self._p), abs(self._q)).bit_length() + self._r.bit_length() + 64
        root = isqrt(self._q * self._q * self._r << 2 * shift)
        if self._q < 0:
            root = -root
        return ((self._p << shift) + root) / (self._d << shift)


# -- Fibonacci numbers and golden-ratio powers --------------------------------


def fib(k: int) -> int:
    """k-th Fibonacci number: F(0) = 0, F(1) = 1, F(k+2) = F(k+1) + F(k)."""
    if k < 0:
        raise ValueError(f"index must be non-negative, got {k}")
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def phi_pow(k: int) -> QuadraticReal:
    """phi**k for k >= 1 through the identity phi**k = F(k)*phi + F(k-1)."""
    if k < 1:
        raise ValueError(f"exponent must be positive, got {k}")
    fk = fib(k)
    fk1 = fib(k - 1)
    return QuadraticReal(fk + 2 * fk1, fk, 2)


# -- frequently used constants -------------------------------------------------

ZERO = QuadraticReal(0)
ONE = QuadraticReal(1)
ONE_HALF = QuadraticReal(1, 0, 2)
SQRT5 = QuadraticReal(0, 1)
PHI = QuadraticReal(1, 1, 2)  # golden ratio (1 + sqrt5)/2
PHI_SQ = QuadraticReal(3, 1, 2)  # phi + 1
PHI_CUBED = QuadraticReal(2, 1, 1)  # 2*phi + 1 = 2 + sqrt5
HALF_PHI_SQ = QuadraticReal(3, 1, 4)  # phi^2 / 2
INV_PHI = QuadraticReal(-1, 1, 2)  # 1/phi = phi - 1
INV_PHI_SQ = QuadraticReal(3, -1, 2)  # 1/phi^2 = 2 - phi
INV_PHI_CUBED = QuadraticReal(-2, 1, 1)  # 1/phi^3 = sqrt5 - 2
INV_SQRT5 = QuadraticReal(0, 1, 5)  # 1/sqrt5 = sqrt5/5
LAMBDA_SPLIT = QuadraticReal(5, -1, 4)  # (5 - sqrt5)/4, the odd-index split point
SQRT2 = QuadraticReal(0, 1, 1, radicand=2)
