"""Interaction of the Wythoff pair with its three-column extension.

The three-column partition generated by l(k) = 3*a(k) + k has columns
D = {3a(k)+k}, C = {a(k)+2k-1} and S = {c(k)-1} union {c(k)+1}; each row
(s(k), c(k), d(k)) carries a triple of A/B memberships and only six of
the eight conceivable triples ever occur.  This module computes the
rows, the row-class census, and the census of which columns the Wythoff
values a(n), b(n) land in.

The range scans rest on two orderings: the k-th smallest value of
column D, C or S is d(k), c(k) or s(k), and the n-th smallest value
labelled A or B is a(n) or b(n).  So each census is a selection from one
buffer of tags, 2*column(v) + [v is B] for every value v up to d(N) (up
to b(N) for the pairs), built from the partition labels of phi_spec(3)
and the B word (standard_fill, slope 1/phi^2): bytes.translate keeps one
column's (or one label's) values, the kept planes are combined bytewise
through big-endian integers, and bytes.count and bytes.find read the
result.  rows reads the rows themselves and their codes from one such
buffer.  d(k) is THREE_SET_SPEC.term(k), c(k) is
partition.d2_closed_form(3, k), and the tests keep the paper's per-point
formulas as the scans' oracle.  Every scan takes an index limit in
[1, MAX_INDEX] by partition's one limit rule, before any buffer is built.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, NamedTuple

from . import partition
from .qfield import INV_PHI, INV_PHI_SQ, QuadraticReal
from .wythoff import ABLabel, c_half, lower, standard_fill, upper

ADMISSIBLE_ROW_CLASSES = frozenset({"AAA", "AAB", "ABA", "BAA", "BBA", "BAB"})
ALL_PAIR_CLASSES = ("SC", "CS", "DS", "CD", "SS", "SD", "DC", "CC", "DD")

THREE_SET_SPEC = partition.phi_spec(3)

# Largest index range the scans accept.  The tag buffer runs to d(N),
# about 5.9*N bytes, and d(10**6) stays within partition.MAX_LIMIT.  A
# scan holds about 12 bytes per index at its peak, 12 MB at this cap.
MAX_INDEX = 10**6


def col_s(k: int) -> int:
    """k-th element of column S: c(k/2)+1 for even k, c((k+1)/2)-1 for odd."""
    if k % 2 == 0:
        return partition.d2_closed_form(3, k // 2) + 1
    return partition.d2_closed_form(3, (k + 1) // 2) - 1


class Census(NamedTuple):
    """Counts plus first-occurrence indices over an index range [1, total]."""

    total: int
    counts: dict[str, int]
    first_index: dict[str, int]


# the scans convert and translate one block of bytes at a time
_BLOCK = 1 << 14


def _shift_in(out: bytearray | memoryview, shift: int, plane: bytes | bytearray) -> None:
    """Set out[i] to out[i] << shift | plane[i] for every i < len(out), in place.

    Each block of out and of plane is read as one big-endian integer, so
    bytes stay in place as long as out[i] < 2**(8 - shift) for every i.
    The plane may be longer than out.
    """
    size = len(out)
    if len(plane) < size:
        raise ArithmeticError(f"a plane of {len(plane)} bytes cannot fill {size}")
    for lo in range(0, size, _BLOCK):
        hi = min(lo + _BLOCK, size)
        value = int.from_bytes(out[lo:hi], "big") << shift | int.from_bytes(plane[lo:hi], "big")
        out[lo:hi] = value.to_bytes(hi - lo, "big")


def _keep(values: dict[int, int]) -> tuple[bytes, bytes]:
    """bytes.translate arguments that map each key of values to its value and delete every other byte."""
    table = bytearray(256)
    for tag, value in values.items():
        table[tag] = value
    return bytes(table), bytes(tag for tag in range(256) if tag not in values)


# Tags are 2*column + [v is B]; partition column 1 is D, 2 is C, 3 is S.
# The row planes are the B bits of the values of S, C and D in order, so
# shifted in one bit at a time, a row code is
# 4*[s(k) is B] + 2*[c(k) is B] + [d(k) is B].
_ROW_PLANES = tuple(_keep({2 * column: 0, 2 * column + 1: 1}) for column in (3, 2, 1))
_ROW_CLASSES = dict(enumerate(s + c + d for s in "AB" for c in "AB" for d in "AB"))
# The pair planes are the columns (0 for D, 1 for C, 2 for S) of the
# A-labelled values, a(1), a(2), ..., and of the B-labelled ones, b(1),
# b(2), ..., so shifted in two bits at a time, a pair code is
# 4*column(a(n)) + column(b(n)).
_PAIR_PLANES = (_keep({2: 0, 4: 1, 6: 2}), _keep({3: 0, 5: 1, 7: 2}))
_PAIR_CLASSES = {4 * i + j: x + y for i, x in enumerate("DCS") for j, y in enumerate("DCS")}
_TAG_COLUMNS = bytes(tag >> 1 for tag in range(256))  # bytes.translate table: tag -> partition column


def _shift_word(out: bytearray | memoryview, slope: QuadraticReal) -> None:
    """Shift the standard_fill word of slope into out: out[i] = 2*out[i] + c(i + 1), in place."""
    word = bytearray(len(out))
    standard_fill(word, slope, b"\x01", b"\x00")
    _shift_in(out, 1, word)


def _tagged_values(top: int) -> bytearray:
    """tags[v] = 2*column(v) + [v is B] for v in [1, top], in phi_spec(3); tags[0] is 0.

    The B word (slope 1/phi^2) is shifted into the column labels in
    place.  Callers check their index limit first: the labels and the
    word take top bytes each.
    """
    tags = partition.column_labels(THREE_SET_SPEC, top)
    _shift_word(memoryview(tags)[1:], INV_PHI_SQ)
    return tags


def _tally(codes: bytes | bytearray, names: dict[int, str]) -> Census:
    """Census of index k = 1, ..., len(codes) with code codes[k - 1], keyed by names, in order of first occurrence."""
    found = sorted((at, code) for code in names if (at := codes.find(code)) >= 0)
    counts = {names[code]: codes.count(code) for _, code in found}
    return Census(len(codes), counts, {names[code]: at + 1 for at, code in found})


def _select(tags: bytearray, limit: int, shift: int, planes: tuple[tuple[bytes, bytes], ...]) -> bytearray:
    """Codes of indices 1, ..., limit: the k-th value each plane keeps, shifted in plane by plane.

    Each plane must keep at least limit values: the row planes do when
    tags runs to d(limit), the pair planes when it runs to b(limit).  A
    plane is translated a block of tags at a time, up to its limit-th
    value, so it never takes more than about limit bytes, and one plane
    is held at a time.
    """
    codes = bytearray(limit)
    for keep in planes:
        plane = bytearray()
        for lo in range(0, len(tags), _BLOCK):
            plane += tags[lo : lo + _BLOCK].translate(*keep)
            if len(plane) >= limit:
                break
        _shift_in(codes, shift, plane)
    return codes


def row_columns(limit: int) -> tuple[Iterator[str], Iterator[str], Iterator[str], Iterator[str]]:
    """s(k), c(k) and d(k) as decimal text, and the class code of row k, one iterator each over k in [1, limit].

    The k-th smallest values of columns S, C and D (partition columns 3,
    2 and 1) are s(k), c(k) and d(k), read by partition.column_runs from
    the tags' column bits, so no value is an int.  A limit outside
    [1, MAX_INDEX] raises ValueError before any buffer is built.
    """
    partition._require_limit(limit, MAX_INDEX)
    tags = _tagged_values(THREE_SET_SPEC.term(limit))
    codes = map(_ROW_CLASSES.__getitem__, _select(tags, limit, 1, _ROW_PLANES))
    labels = tags.translate(_TAG_COLUMNS)
    s, c, d = (chain.from_iterable(map(str.split, partition.column_runs(labels, j))) for j in (3, 2, 1))
    return s, c, d, codes


def row_class_census(limit: int) -> Census:
    """Census of row classes for k in [1, limit].

    Any class outside the six admissible ones would disprove the
    classification; callers should treat such keys as defects.
    """
    partition._require_limit(limit, MAX_INDEX)
    return _tally(_select(_tagged_values(THREE_SET_SPEC.term(limit)), limit, 1, _ROW_PLANES), _ROW_CLASSES)


def row_class_keys(counts: dict[str, int]) -> list[str]:
    """Row classes in report order: the admissible ones sorted, then any others in counts, sorted."""
    return sorted(ADMISSIBLE_ROW_CLASSES) + sorted(counts.keys() - ADMISSIBLE_ROW_CLASSES)


def ab_over_scd_census(limit: int) -> Census:
    """Census of (column of a(n), column of b(n)) for n in [1, limit]."""
    partition._require_limit(limit, MAX_INDEX)
    return _tally(_select(_tagged_values(upper(limit)), limit, 2, _PAIR_PLANES), _PAIR_CLASSES)


# -- density measurements ------------------------------------------------------

PAIR_DENSITY_REFERENCE: dict[str, QuadraticReal] = {
    "SC": QuadraticReal(1, 0, 5),
    "CS": QuadraticReal(1, 0, 5),
    "DS": QuadraticReal(1, 0, 5),
    "CD": QuadraticReal(-1, 1, 10),  # (phi-1)/5 = (sqrt5-1)/10
    "SS": QuadraticReal(5, -1, 10),  # (3-phi)/5 = (5-sqrt5)/10
}


class DensityEntry(NamedTuple):
    name: str
    count: int
    total: int
    expected: QuadraticReal | None
    status: str  # "proved-density" | "reported-density" | "empirical-open"


class DensityReport(NamedTuple):
    total: int
    entries: tuple[DensityEntry, ...]


def _c_half_counts(limit: int) -> tuple[int, int]:
    """(c-half-in-A, a-in-C) counts over indices up to limit.

    The values c_half(i) = floor(i*phi^2/2) are marked by the word of
    slope 2/phi^2 = 3 - sqrt5, and the A values by the word of slope 1/phi.
    The A values up to a(limit) are a(1), ..., a(limit), so a value up to
    a(limit) marked both C and A is one a(n) in C, and one up to
    c_half(limit) is one c_half(i) in A.
    """
    marks = bytearray(lower(limit))
    standard_fill(marks, 2 * INV_PHI_SQ, b"\x01", b"\x00")
    _shift_word(marks, INV_PHI)  # marks[m - 1] = 2*[m in C] + [m in A]
    return marks.count(3, 0, c_half(limit)), marks.count(3)


def density_report(limit: int) -> DensityReport:
    """Desk-scale density measurements over indices up to limit.

    Proved densities (membership of floor(n*phi^2/2) in A, of a(n) in C
    and in D) come with their exact expected values; the pair census is
    compared against the reported table; the density of S-column rows in
    A and the six row-class frequencies have no proof and are flagged
    empirical-open.
    """
    partition._require_limit(limit, MAX_INDEX)
    c_in_a, a_in_c = _c_half_counts(limit)
    tags = _tagged_values(THREE_SET_SPEC.term(limit))
    rows = _tally(_select(tags, limit, 1, _ROW_PLANES), _ROW_CLASSES)
    pairs = _tally(_select(tags, limit, 2, _PAIR_PLANES), _PAIR_CLASSES)
    # a row-class code starts with the A/B letter of s(k)
    s_in_a = sum(count for code, count in rows.counts.items() if code[0] == ABLabel.A.value)
    entries = [
        DensityEntry("c-half-in-A", c_in_a, limit, QuadraticReal(1, 0, 2), "proved-density"),
        DensityEntry("a-in-C", a_in_c, limit, INV_PHI, "proved-density"),
        DensityEntry("a-in-D", limit - a_in_c, limit, INV_PHI_SQ, "proved-density"),
        DensityEntry("s-col-in-A", s_in_a, limit, None, "empirical-open"),
    ]
    for code in row_class_keys(rows.counts):
        entries.append(DensityEntry(f"row-class-{code}", rows.counts.get(code, 0), limit, None, "empirical-open"))
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
