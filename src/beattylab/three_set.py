"""Interaction of the Wythoff pair with its three-column extension.

The three-column partition generated by l(k) = 3*a(k) + k has columns
D = {3a(k)+k}, C = {a(k)+2k-1} and S = {c(k)-1} union {c(k)+1}; each row
(s(k), c(k), d(k)) carries a triple of A/B memberships and only six of
the eight conceivable triples ever occur.  This module computes the
rows, their exact fractional-part closed forms, the row-class census,
and the census of which columns the Wythoff values a(n), b(n) land in;
column membership is read from the partition sweep of phi_spec(3), and
the range scans read A/B membership from the Fibonacci word
(wythoff.ab_word), with row_class as the per-point path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Iterator, NamedTuple

from . import partition
from .qfield import (
    INV_PHI,
    INV_PHI_SQ,
    INV_SQRT5,
    ONE,
    QuadraticReal,
)
from .wythoff import (
    ABLabel,
    ab_label,
    ab_word,
    frac_phi,
    lower,
    strict_compare,
    upper,
)

# slopes and offsets of the fractional-part closed forms
SQRT5_OVER_PHI_SQ = QuadraticReal(-5, 3, 2)  # sqrt5/phi^2 = (3*sqrt5-5)/2
SQRT5_OVER_PHI = QuadraticReal(5, -1, 2)  # sqrt5/phi = (5-sqrt5)/2
SQRT5_OVER_TWO_PHI = QuadraticReal(5, -1, 4)  # sqrt5/(2*phi) = (5-sqrt5)/4

S_OFFSETS_EVEN = (
    QuadraticReal(0),
    QuadraticReal(1, -1, 4),  # (1-sqrt5)/4
    QuadraticReal(5, -1, 4),  # (5-sqrt5)/4
)
S_OFFSETS_ODD = (
    QuadraticReal(-1, 0, 2),
    QuadraticReal(1, 0, 2),
    QuadraticReal(3, -1, 4),  # (3-sqrt5)/4
    QuadraticReal(2, -1, 2),  # 1 - sqrt5/2
    QuadraticReal(4, -1, 2),  # 2 - sqrt5/2
)

ADMISSIBLE_ROW_CLASSES = frozenset({"AAA", "AAB", "ABA", "BAA", "BBA", "BAB"})
ALL_PAIR_CLASSES = ("SC", "CS", "DS", "CD", "SS", "SD", "DC", "CC", "DD")

THREE_SET_SPEC = partition.phi_spec(3)

# Largest index range the scans accept.  The census word runs to d(N),
# about 5.9*N bytes, and the pair census sweeps [1, b(N)], which must stay
# within partition.MAX_LIMIT (b(10**6) = 2618034).  At this cap density
# peaks at about 36 MB.
MAX_INDEX = 10**6

# partition column 1 is D, column 2 is C, column 3 is S
_COLUMN_LETTER = {1: "D", 2: "C", 3: "S"}


def col_d(k: int) -> int:
    """k-th element of column D: 3*a(k) + k."""
    return 3 * lower(k) + k


def col_c(k: int) -> int:
    """k-th element of column C: a(k) + 2k - 1."""
    return lower(k) + 2 * k - 1


def col_s(k: int) -> int:
    """k-th element of column S: c(k/2)+1 for even k, c((k+1)/2)-1 for odd."""
    if k % 2 == 0:
        return col_c(k // 2) + 1
    return col_c((k + 1) // 2) - 1


@dataclass(frozen=True)
class SCDTriple:
    k: int
    s: int
    c: int
    d: int


def scd(k: int) -> SCDTriple:
    """Row k of the three-column table."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return SCDTriple(k, col_s(k), col_c(k), col_d(k))


def frac_col_d(k: int) -> QuadraticReal:
    """{d(k)*phi} in closed form: 1 - (sqrt5/phi^2)*{k*phi}."""
    return ONE - SQRT5_OVER_PHI_SQ * frac_phi(k)


def frac_col_c(k: int) -> tuple[str, QuadraticReal]:
    """{c(k)*phi} in closed form, split exactly at {k*phi} = 1/sqrt5.

    Above the split the offset is (1-sqrt5)/2, below it (3-sqrt5)/2.
    """
    fk = frac_phi(k)
    if strict_compare(fk, INV_SQRT5) > 0:
        return "above-inv-sqrt5", SQRT5_OVER_PHI * fk + QuadraticReal(1, -1, 2)
    return "below-inv-sqrt5", SQRT5_OVER_PHI * fk + INV_PHI_SQ


def frac_col_s(k: int) -> tuple[QuadraticReal, QuadraticReal]:
    """({s(k)*phi} as (offset, value)) with value = sqrt5/(2*phi)*{k*phi} + offset.

    The offset is not predicted from {k*phi}; it is realized from the
    exact value and then required to lie in the parity-appropriate
    candidate set ({0, (1-sqrt5)/4, (5-sqrt5)/4} for even k, five values
    for odd k).
    """
    value = frac_phi(col_s(k))
    offset = value - SQRT5_OVER_TWO_PHI * frac_phi(k)
    candidates = S_OFFSETS_EVEN if k % 2 == 0 else S_OFFSETS_ODD
    if offset not in candidates:
        raise ArithmeticError(f"offset {offset} for s({k}) outside the candidate set")
    return offset, value


class RowClass(NamedTuple):
    s: ABLabel
    c: ABLabel
    d: ABLabel

    @property
    def code(self) -> str:
        return self.s.value + self.c.value + self.d.value


def row_class(k: int) -> RowClass:
    """A/B memberships of (s(k), c(k), d(k))."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return RowClass(ab_label(col_s(k)), ab_label(col_c(k)), ab_label(col_d(k)))


@dataclass(frozen=True)
class Census:
    """Counts plus first-occurrence indices over an index range [1, total]."""

    total: int
    counts: dict[str, int]
    first_index: dict[str, int]

    def frequency(self, key: str) -> Fraction:
        return Fraction(self.counts.get(key, 0), self.total)


def _require_index_limit(limit: int) -> None:
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if limit > MAX_INDEX:
        raise ValueError(f"limit must be at most {MAX_INDEX}, got {limit}")


def _census(limit: int, codes: Iterable[str]) -> Census:
    """Count the codes of indices 1, 2, ..., limit and note where each first occurs.

    limit is checked before codes is read, so a generator may size its
    work from limit.
    """
    _require_index_limit(limit)
    counts: dict[str, int] = {}
    first: dict[str, int] = {}
    for k, code in enumerate(codes, start=1):
        counts[code] = counts.get(code, 0) + 1
        if code not in first:
            first[code] = k
    return Census(limit, counts, first)


def row_codes(limit: int) -> Iterator[str]:
    """row_class(k).code for k in [1, limit], read from one Fibonacci word.

    Per k, a(k) and a(ceil(k/2)) cost one isqrt each (lower and the col_*
    closed forms inlined); word[m - 1] is the A/B label of m, and d(limit)
    is the largest value read.  A limit outside [1, MAX_INDEX] raises
    ValueError on the first read, before the word is built.
    """
    _require_index_limit(limit)
    word = ab_word(col_d(limit))
    for k in range(1, limit + 1):
        a = (k + isqrt(5 * k * k)) // 2
        h = (k + 1) // 2
        c_h = (h + isqrt(5 * h * h)) // 2 + 2 * h - 1  # c(ceil(k/2))
        s = c_h + 1 if k % 2 == 0 else c_h - 1
        yield word[s - 1] + word[a + 2 * k - 2] + word[3 * a + k - 1]


def row_class_census(limit: int) -> Census:
    """Census of row classes for k in [1, limit].

    Any class outside the six admissible ones would disprove the
    classification; callers should treat such keys as defects.
    """
    return _census(limit, row_codes(limit))


def _pair_codes(limit: int) -> Iterator[str]:
    labels = partition.column_labels(THREE_SET_SPEC, upper(limit))
    for n in range(1, limit + 1):
        a = (n + isqrt(5 * n * n)) // 2  # a(n), and b(n) = a(n) + n
        yield _COLUMN_LETTER[labels[a]] + _COLUMN_LETTER[labels[a + n]]


def ab_over_scd_census(limit: int) -> Census:
    """Census of (column of a(n), column of b(n)) for n in [1, limit]."""
    return _census(limit, _pair_codes(limit))


# -- density measurements ------------------------------------------------------

PAIR_DENSITY_REFERENCE: dict[str, QuadraticReal] = {
    "SC": QuadraticReal(1, 0, 5),
    "CS": QuadraticReal(1, 0, 5),
    "DS": QuadraticReal(1, 0, 5),
    "CD": QuadraticReal(-1, 1, 10),  # (phi-1)/5 = (sqrt5-1)/10
    "SS": QuadraticReal(5, -1, 10),  # (3-phi)/5 = (5-sqrt5)/10
}


@dataclass(frozen=True)
class DensityEntry:
    name: str
    count: int
    total: int
    expected: QuadraticReal | None
    status: str  # "proved-density" | "reported-density" | "empirical-open"

    @property
    def frequency(self) -> Fraction:
        return Fraction(self.count, self.total)


@dataclass(frozen=True)
class DensityReport:
    total: int
    entries: tuple[DensityEntry, ...]

    def entry(self, name: str) -> DensityEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def density_report(limit: int) -> DensityReport:
    """Desk-scale density measurements over indices up to limit.

    Proved densities (membership of floor(n*phi^2/2) in A, of a(n) in C
    and in D) come with their exact expected values; the pair census is
    compared against the reported table; the density of S-column rows in
    A and the six row-class frequencies have no proof and are flagged
    empirical-open.
    """
    rows = row_class_census(limit)
    # One pass over the C values m = c_half(i) <= a(limit), reading the
    # Fibonacci word: the A values up to a(limit) are a(1), ..., a(limit),
    # so an m labelled A is one a(n) in C, and for i <= limit it is also a
    # c_half(i) in A.
    top = lower(limit)
    word = ab_word(top)
    c_in_a = 0
    a_in_c = 0
    i = 1
    while (m := (3 * i + isqrt(5 * i * i)) // 4) <= top:
        if word[m - 1] == "A":
            a_in_c += 1
            if i <= limit:
                c_in_a += 1
        i += 1
    # a row-class code starts with the letter of s(k), ab_label(col_s(k))
    s_in_a = sum(count for code, count in rows.counts.items() if code[0] == ABLabel.A.value)
    entries = [
        DensityEntry("c-half-in-A", c_in_a, limit, QuadraticReal(1, 0, 2), "proved-density"),
        DensityEntry("a-in-C", a_in_c, limit, INV_PHI, "proved-density"),
        DensityEntry("a-in-D", limit - a_in_c, limit, INV_PHI_SQ, "proved-density"),
        DensityEntry("s-col-in-A", s_in_a, limit, None, "empirical-open"),
    ]
    for code in sorted(ADMISSIBLE_ROW_CLASSES):
        entries.append(
            DensityEntry(f"row-class-{code}", rows.counts.get(code, 0), limit, None, "empirical-open")
        )
    for code in sorted(rows.counts.keys() - ADMISSIBLE_ROW_CLASSES):
        entries.append(DensityEntry(f"row-class-{code}", rows.counts[code], limit, None, "empirical-open"))
    pairs = ab_over_scd_census(limit)
    for code in ALL_PAIR_CLASSES:
        entries.append(
            DensityEntry(
                f"pair-{code}",
                pairs.counts.get(code, 0),
                limit,
                PAIR_DENSITY_REFERENCE.get(code, QuadraticReal(0)),
                "reported-density",
            )
        )
    return DensityReport(limit, tuple(entries))
