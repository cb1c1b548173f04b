"""Interaction of the Wythoff pair with its three-column extension.

The three-column partition generated by l(k) = 3*a(k) + k has columns
D = {3a(k)+k}, C = {a(k)+2k-1} and S = {c(k)-1} union {c(k)+1}; each row
(s(k), c(k), d(k)) carries a triple of A/B memberships and only six of
the eight conceivable triples ever occur.  This module computes the
rows, their exact fractional-part closed forms, the row-class census,
and the census of which columns the Wythoff values a(n), b(n) land in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

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
    IntervalLabel,
    ab_label,
    c_half,
    frac_phi,
    lower,
    strict_compare,
    unit_interval_label,
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


class SCDLabel(Enum):
    S = "S"
    C = "C"
    D = "D"


# partition column 1 is D, column 2 is C, column 3 is S
_COLUMN_TO_LABEL = {1: SCDLabel.D, 2: SCDLabel.C, 3: SCDLabel.S}


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


def scd_lookup(m: int) -> SCDLabel:
    """Which of the three columns contains m (via the partition inverse)."""
    return _COLUMN_TO_LABEL[partition.decompose(m, THREE_SET_SPEC).column]


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


def row_class_census(limit: int) -> Census:
    """Census of row classes for k in [1, limit].

    Any class outside the six admissible ones would disprove the
    classification; callers should treat such keys as defects.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    counts: dict[str, int] = {}
    first: dict[str, int] = {}
    for k in range(1, limit + 1):
        code = row_class(k).code
        counts[code] = counts.get(code, 0) + 1
        if code not in first:
            first[code] = k
    return Census(limit, counts, first)


def scd_label_array(limit: int) -> bytearray:
    """Column label (1=S, 2=C, 3=D, 0=none yet) for every value up to limit.

    Fills through the sorted closed forms of the three columns; agrees
    with scd_lookup / the generic partition inverse.
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    labels = bytearray(limit + 1)
    for marker, column in ((1, col_s), (2, col_c), (3, col_d)):
        k = 1
        while True:
            v = column(k)
            if v > limit:
                break
            labels[v] = marker
            k += 1
    return labels


_ARRAY_TO_PAIR_CHAR = {1: "S", 2: "C", 3: "D"}


def ab_over_scd_census(limit: int) -> Census:
    """Census of (column of a(n), column of b(n)) for n in [1, limit]."""
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    labels = scd_label_array(upper(limit))
    counts: dict[str, int] = {}
    first: dict[str, int] = {}
    for n in range(1, limit + 1):
        pair = _ARRAY_TO_PAIR_CHAR[labels[lower(n)]] + _ARRAY_TO_PAIR_CHAR[labels[upper(n)]]
        counts[pair] = counts.get(pair, 0) + 1
        if pair not in first:
            first[pair] = n
    return Census(limit, counts, first)


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
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    c_in_a = 0
    a_in_c = 0
    s_in_a = 0
    for n in range(1, limit + 1):
        if ab_label(c_half(n)) is ABLabel.A:
            c_in_a += 1
        if unit_interval_label(lower(n)) in (IntervalLabel.I1, IntervalLabel.I3):
            a_in_c += 1
        if ab_label(col_s(n)) is ABLabel.A:
            s_in_a += 1
    entries = [
        DensityEntry("c-half-in-A", c_in_a, limit, QuadraticReal(1, 0, 2), "proved-density"),
        DensityEntry("a-in-C", a_in_c, limit, INV_PHI, "proved-density"),
        DensityEntry("a-in-D", limit - a_in_c, limit, INV_PHI_SQ, "proved-density"),
        DensityEntry("s-col-in-A", s_in_a, limit, None, "empirical-open"),
    ]
    rows = row_class_census(limit)
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
