"""Interaction of the Wythoff pair with its three-column extension.

The three-column partition generated by l(k) = 3*a(k) + k has columns
D = {3a(k)+k}, C = {a(k)+2k-1} and S = {c(k)-1} union {c(k)+1}; each row
(s(k), c(k), d(k)) carries a triple of A/B memberships and only six of
the eight conceivable triples, ROW_CLASSES, ever occur.  This module
computes the rows, the row-class census, and the census of which
columns the Wythoff values a(n), b(n) land in.

The censuses count by exact floor sums.  Each class is a step function
of one fractional part: of x = {h*phi} and the parity of k, h =
ceil(k/2), for the row class of k, and of z = {n*(5 - sqrt5)/10} for
the columns of (a(n), b(n)).  The steps are tables of breakpoints in
Q(sqrt5) and labels, and the number of h <= H with {h*theta} below a
breakpoint x is S(H, theta, theta) - S(H, theta, theta - x), with S
qfield.floor_sum: O(log H) integer steps per breakpoint and no buffer.
The tables were fitted to the data, not derived; the tests check them
against the byte scans of tests/oracles.py at every index up to 2*10**5,
and CI at every index up to MAX_INDEX, where the censuses stop.

classify rows reads its rows from one buffer of tags,
2*column(v) + [v is B] for every value v up to d(N), built from the
partition labels of phi_spec(3) and the B word (standard_fill, slope
1/phi^2).  The k-th smallest value of column D, C or S is d(k), c(k) or
s(k), so bytes.translate keeps one column's tags as its A/B letters, a
block of tags at a time up to the N-th, and then turns the tags into
column labels in place, from which s, c and d are read as text.
d(k) is THREE_SET_SPEC.term(k), c(k) is partition.d2_closed_form(3, k),
and the tests keep the paper's per-point formulas as the oracle.  Every
census and scan takes an index limit in [1, MAX_INDEX] by partition's
one limit rule, before any work.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import partition
from .qfield import INV_PHI_SQ, QuadraticReal, floor_sum
from .wythoff import ABLabel, standard_fill

ALL_PAIR_CLASSES = ("SC", "CS", "DS", "CD", "SS", "SD", "DC", "CC", "DD")

THREE_SET_SPEC = partition.phi_spec(3)

# Largest index range the censuses and classify rows accept: the tests
# check the step tables against the scan at every index up to it.
# classify rows' tag buffer runs to d(N), about 5.9*N bytes, and d(10**6)
# stays within partition.MAX_LIMIT; at its peak it holds the tags and the
# B word, about 11.8 bytes per index, 11.8 MB at this cap.  The censuses
# hold no buffer.
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
# A column's letter plane keeps its tags, 2*column as A and 2*column + 1 as B.
_COLUMN_LETTERS = tuple(_keep({2 * column: ord("A"), 2 * column + 1: ord("B")}) for column in (3, 2, 1))  # s, c, d
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


def _letters(tags: bytearray, limit: int, keep: tuple[bytes, bytes]) -> bytearray:
    """The first limit tags that keep keeps, translated by it a block of tags at a time.

    A column's plane stops at its limit-th value, so it never takes more
    than about limit bytes; tags that hold fewer values of the column
    raise ArithmeticError.
    """
    plane = bytearray()
    for lo in range(0, len(tags), _BLOCK):
        plane += tags[lo : lo + _BLOCK].translate(*keep)
        if len(plane) >= limit:
            del plane[limit:]
            return plane
    raise ArithmeticError(f"the tags hold {len(plane)} values of a column, not {limit}")


def row_columns(limit: int) -> tuple[Iterator[str], Iterator[str], Iterator[str], bytearray, bytearray, bytearray]:
    """s(k), c(k) and d(k) as runs of decimal lines, then their A/B letters, a byte per k in [1, limit].

    The k-th smallest values of columns S, C and D (partition columns 3,
    2 and 1) are s(k), c(k) and d(k): their letters are the first limit
    tags each column keeps, and their values are read by
    partition.column_runs once the tags are turned into column labels, so
    no value is an int.  A limit outside [1, MAX_INDEX] raises ValueError
    before any buffer is built.
    """
    partition._require_limit(limit, MAX_INDEX)
    tags = _tagged_values(THREE_SET_SPEC.term(limit))
    letters = [_letters(tags, limit, keep) for keep in _COLUMN_LETTERS]
    for lo in range(0, len(tags), _BLOCK):  # the tags become column labels in place
        tags[lo : lo + _BLOCK] = tags[lo : lo + _BLOCK].translate(_TAG_COLUMNS)
    return *(partition.column_runs(tags, j) for j in (3, 2, 1)), *letters


# -- step tables ---------------------------------------------------------------
#
# A table is the slope theta and its pieces (label, end), in order: index
# h is labelled by the piece [previous end, end) that holds {h*theta},
# the first piece starting at 0 and the last ending at 1.  Ends are
# (p, q, d) for (p + q*sqrt5)/d.  No {h*theta} with h >= 1 equals an end,
# since their sqrt5 coefficients differ.  Each class also carries the
# first index it labels, in that order.

_PHI = (1, 1, 2)
# the row class of k = 2h: (s, c, d) labels read from x = {h*phi}
_EVEN_ROWS = (
    ("BAA", (0, 1, 10)),  # sqrt5/10
    ("BBA", (5, -1, 10)),  # (5 - sqrt5)/10
    ("ABA", (5, 1, 20)),  # (5 + sqrt5)/20
    ("AAB", (1, 0, 2)),
    ("AAA", (5, 1, 10)),  # (5 + sqrt5)/10
    ("BBA", (15, 1, 20)),  # (15 + sqrt5)/20
    ("BAB", (1, 0, 1)),
)
# the row class of k = 2h - 1, from x = {h*phi}
_ODD_ROWS = (
    ("AAA", (-15, 7, 20)),  # (7sqrt5 - 15)/20
    ("ABA", (-5, 3, 10)),  # (3sqrt5 - 5)/10
    ("BAB", (-1, 1, 4)),  # (sqrt5 - 1)/4
    ("BAA", (0, 1, 5)),  # sqrt5/5
    ("AAA", (-5, 7, 20)),  # (7sqrt5 - 5)/20
    ("ABA", (0, 3, 10)),  # 3sqrt5/10
    ("AAB", (1, 1, 4)),  # (sqrt5 + 1)/4
    ("AAA", (0, 2, 5)),  # 2sqrt5/5
    ("BAA", (1, 0, 1)),
)
_ROW_FIRST = {"ABA": 1, "AAA": 2, "BAB": 3, "BBA": 4, "AAB": 8, "BAA": 10}
# the six row classes that occur, in report order
ROW_CLASSES = tuple(sorted(_ROW_FIRST))
# the columns of (a(n), b(n)), from z = {n*(5 - sqrt5)/10}
_PAIR_SLOPE = (5, -1, 10)
_PAIRS = (
    ("CS", (1, 0, 5)),
    ("SC", (2, 0, 5)),
    ("SS", (3, 0, 5)),
    ("CD", (5, 1, 10)),  # (5 + sqrt5)/10
    ("SS", (4, 0, 5)),
    ("DS", (1, 0, 1)),
)
_PAIR_FIRST = {"SC": 1, "SS": 2, "DS": 3, "CS": 4, "CD": 6}
# the column of a(n), C or D, from {n*phi}
_A_COLUMNS = (
    ("D", (3, -1, 4)),  # (3 - sqrt5)/4
    ("C", (1, 1, 4)),  # phi/2
    ("D", (1, 0, 1)),
)


def _piece_counts(count: int, theta: tuple[int, int, int], pieces, counts: dict[str, int]) -> dict[str, int]:
    """Add to counts, per label of pieces, the number of h in [1, count] whose {h*theta} lies in that label's pieces.

    For 0 < x <= 1, floor(y) - floor(y - x) is 1 when {y} < x and 0
    otherwise, so S(count, theta, theta) - S(count, theta, theta - x)
    of the h have {h*theta} < x, and a piece holds the difference
    between its end's count and the one before.
    """
    slope = QuadraticReal(*theta)
    whole = floor_sum(count, slope, slope)
    below = 0
    for label, end in pieces:
        upto = whole - floor_sum(count, slope, slope - QuadraticReal(*end))
        counts[label] = counts.get(label, 0) + upto - below
        below = upto
    return counts


def _piece_lengths(pieces) -> dict[str, QuadraticReal]:
    """Per label of pieces, their total length: the density of the h it labels, as {h*theta} is equidistributed."""
    lengths: dict[str, QuadraticReal] = {}
    start = QuadraticReal(0)
    for label, end in pieces:
        end = QuadraticReal(*end)
        lengths[label] = lengths.get(label, QuadraticReal(0)) + (end - start)
        start = end
    return lengths


def _census(limit: int, counts: dict[str, int], first: dict[str, int]) -> Census:
    """Census of the classes of counts with a count above 0, in the order of first."""
    found = [code for code in first if counts[code]]
    return Census(limit, {code: counts[code] for code in found}, {code: first[code] for code in found})


def row_class_census(limit: int) -> Census:
    """Census of row classes for k in [1, limit]: those of ROW_CLASSES that occur, in order of first occurrence."""
    partition._require_limit(limit, MAX_INDEX)
    counts = _piece_counts(limit // 2, _PHI, _EVEN_ROWS, {})
    return _census(limit, _piece_counts((limit + 1) // 2, _PHI, _ODD_ROWS, counts), _ROW_FIRST)


def ab_over_scd_census(limit: int) -> Census:
    """Census of (column of a(n), column of b(n)) for n in [1, limit]."""
    partition._require_limit(limit, MAX_INDEX)
    return _census(limit, _piece_counts(limit, _PAIR_SLOPE, _PAIRS, {}), _PAIR_FIRST)


# -- density measurements ------------------------------------------------------

PAIR_DENSITY_REFERENCE = _piece_lengths(_PAIRS)
_A_DENSITY = _piece_lengths(_A_COLUMNS)  # 1/phi for C, 1/phi^2 for D


class DensityEntry(NamedTuple):
    name: str
    count: int
    total: int
    expected: QuadraticReal | None
    status: str  # "proved-density" | "reported-density" | "empirical-open"


class DensityReport(NamedTuple):
    total: int
    entries: tuple[DensityEntry, ...]


def density_report(limit: int) -> DensityReport:
    """Desk-scale density measurements over indices up to limit.

    Proved densities (membership of floor(n*phi^2/2) in A, of a(n) in C
    and in D) come with their exact expected values; the pair census is
    compared against the reported densities.  The expected values of a(n)
    and of the pairs are the piece lengths of their step tables, as
    {h*theta} is equidistributed for irrational theta.  The density of
    S-column rows in A and the six row-class frequencies have no proof
    and are flagged empirical-open.

    c_half(i) = floor(i*phi^2/2) is in A exactly when i is odd, so
    c-half-in-A counts ceil(limit/2).  For i = 2j it is floor(j*phi^2) =
    b(j), in B.  For i = 2j - 1 it is floor(j*phi^2 - phi^2/2), which is
    b(j) - 1, in A because B holds no two consecutive integers, or, when
    {j*phi} < (sqrt5 - 1)/4, b(j) - 2.  Then {j*phi} < phi - 1 as well,
    so b(j) - b(j - 1) = 3 and b(j) - 2 is in A too.  a(n) is in C
    exactly when {n*phi} lies in [(3 - sqrt5)/4, phi/2), a piece of
    length 1/phi, by the step table _A_COLUMNS.
    """
    partition._require_limit(limit, MAX_INDEX)
    a_in_c = _piece_counts(limit, _PHI, _A_COLUMNS, {})["C"]
    rows = row_class_census(limit)
    pairs = ab_over_scd_census(limit)
    # a row-class code starts with the A/B letter of s(k)
    s_in_a = sum(count for code, count in rows.counts.items() if code[0] == ABLabel.A.value)
    entries = [
        DensityEntry("c-half-in-A", (limit + 1) // 2, limit, QuadraticReal(1, 0, 2), "proved-density"),
        DensityEntry("a-in-C", a_in_c, limit, _A_DENSITY["C"], "proved-density"),
        DensityEntry("a-in-D", limit - a_in_c, limit, _A_DENSITY["D"], "proved-density"),
        DensityEntry("s-col-in-A", s_in_a, limit, None, "empirical-open"),
    ]
    for code in ROW_CLASSES:
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
