"""Partitions of the positive integers into n dyadic-offset columns.

A generator sequence l with l(1) = 2**(n-1) and consecutive gaps drawn
from {2**(n-1), 2**(n-1) + 2**(n-2), ..., 2**n - 1} spawns n columns:
column 1 is l itself and column j collects l(k) shifted by every signed
sum eps*2**(n-2) + ... + eps*2**(n-j); together the columns cover every
positive integer and no integer lands in two different columns.  A
PartitionSpec is n plus the generator itself: an exact alpha in [1, 2),
with l(k) = (2**(n-1) - 1)*floor(k*alpha) + k, or a tuple of literal
terms.  This module materializes the columns, inverts the construction
(decompose), and verifies cover/disjointness by brute force.  Columns and
verification share one labelling of [1, limit] with one column byte per
value: an alpha generator's labels are the image of the characteristic
word of slope alpha - 1 under two prefixes of the ruler word, and a
tuple of terms is swept value by value.  A column is read off the labels
as ints (column_values) or as decimal text (column_runs).

An integer inside the overlap of two consecutive generator intervals has
two valid (index, signs) representations; they always agree on the
column.  decompose returns the smallest-index one and decompositions
returns all of them.
"""

from __future__ import annotations

import functools
import re
from itertools import compress, islice
from math import isqrt
from typing import Iterable, Iterator, NamedTuple

from .qfield import ONE, PHI, QuadraticReal, _brief
from .wythoff import lower, standard_fill

# Column labels are stored one byte per value, and gap_set / _sign_expansion
# cost grows with n; no construction in this package needs more columns.
MAX_COLUMNS = 64

# The sweep allocates one byte per value of [1, limit], and gen writes its
# columns from those labels one window of 10**4 labels at a time.  At this
# cap verify peaks at about 26 MB for any alpha generator and gen --n 3
# --h phi at 25 MB in either format, in 0.5-1.2 s (16 MB at 10**6; fresh
# interpreter, ru_maxrss, 2-vCPU Xeon).
MAX_LIMIT = 10**7

# decompose's term search grows with the digits of m: --m 10**1000 + 7
# takes about 0.4 s at --n 3 and 10**3000 about 6.5 s (fresh interpreter,
# 2-vCPU Xeon), so decompositions takes m below 10**MAX_M_DIGITS only.
MAX_M_DIGITS = 1000
_M_BOUND = 10**MAX_M_DIGITS


def gap_set(n: int) -> set[int]:
    """Allowed consecutive generator gaps {2**n - 2**(n-b) : 1 <= b <= n}."""
    _require_columns(n)
    return {2**n - 2 ** (n - b) for b in range(1, n + 1)}


def _require_columns(n: int) -> None:
    if not 2 <= n <= MAX_COLUMNS:
        raise ValueError(f"number of columns must be in [2, {MAX_COLUMNS}], got {n}")


def _require_limit(limit: int, cap: int) -> None:
    """The size rule of every range scan: a limit in [1, cap], or ValueError."""
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    if limit > cap:
        raise ValueError(f"limit must be at most {cap}, got {limit}")


class PartitionSpec:
    """Number of columns n plus the first-column generator, an exact alpha or a tuple of terms.

    An alpha with 1 <= alpha < 2 gives l(k) = (2**(n-1) - 1)*floor(k*alpha) + k,
    whose gaps are 2**(n-1) or 2**n - 1 because consecutive Beatty values
    differ by 1 or 2; alpha = 1 is the identity step, whose columns are
    arithmetic progressions.  Any other iterable is stored as a tuple of
    literal terms.  Equality, hash, repr and pickling read (n, generator);
    _coords caches (2**(n-1) - 1, p, r*q^2, q < 0, d) of
    alpha = (p + q*sqrt r)/d for term, which reads one slot per call.
    """

    __slots__ = ("n", "generator", "_coords")

    def __init__(self, n: int, generator: QuadraticReal | Iterable[int]):
        _require_columns(n)
        if isinstance(generator, QuadraticReal):
            if generator.floor() != 1:
                raise ValueError(f"alpha must satisfy 1 <= alpha < 2, got {_brief(generator)}")
            g = generator
            coords = (2 ** (n - 1) - 1, g.p, g.radicand * g.q * g.q, g.q < 0, g.d)
        else:
            generator, coords = tuple(generator), None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "_coords", coords)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not PartitionSpec:
            return NotImplemented
        return self.n == other.n and self.generator == other.generator

    def __hash__(self) -> int:
        return hash((self.n, self.generator))

    def __repr__(self) -> str:
        return f"PartitionSpec(n={self.n!r}, generator={self.generator!r})"

    def __reduce__(self):
        return PartitionSpec, (self.n, self.generator)

    @property
    def half_width(self) -> int:
        """Half-width 2**(n-1) - 1 of the interval a generator term fills."""
        return 2 ** (self.n - 1) - 1

    def term(self, k: int) -> int | None:
        """Generator value l(k); None when a tuple of terms is exhausted.

        For alpha, floor(k*alpha) = floor((p*k + floor(q*k*sqrt r))/d) with
        one integer square root: floor(q*k*sqrt r) is isqrt(r*q^2*k^2), or
        -isqrt(r*q^2*k^2) - 1 for q < 0 (the root is irrational).
        """
        if k < 1:
            raise ValueError(f"index must be positive, got {k}")
        if self._coords is None:
            terms = self.generator
            return terms[k - 1] if k <= len(terms) else None
        width, p, rq2, negative, d = self._coords
        m = isqrt(rq2 * k * k)
        if negative:
            m = -m - 1
        return width * ((p * k + m) // d) + k

    def describe(self) -> str:
        g = self.generator
        if isinstance(g, tuple):
            tail = ",..." if len(g) > 6 else ""
            return f"explicit[{','.join(map(str, g[:6]))}{tail}]"
        if g == PHI:
            return "h=phi"
        if g == ONE:
            return "h=identity"
        return f"alpha={g}"


def identity_spec(n: int) -> PartitionSpec:
    return PartitionSpec(n, ONE)


def phi_spec(n: int) -> PartitionSpec:
    return PartitionSpec(n, PHI)


class GeneratorError(ValueError):
    """A generator violated its start or gap constraints, first at term violation_index."""

    def __init__(self, violation_index: int, message: str):
        super().__init__(f"generator violation: {message}")
        self.violation_index = violation_index


def column_offsets(n: int, column: int) -> range:
    """All signed-sum offsets of one column, ascending.

    Column 1 only contains the generator itself; column j >= 2 shifts by
    2**(n-j) times every odd u with |u| <= 2**(j-1) - 1, which is exactly
    the value set of the corresponding signed sums.  A range, so the
    2**(j-1) offsets of a wide column take no memory.
    """
    _require_columns(n)
    if not 1 <= column <= n:
        raise ValueError(f"column must be in [1, {n}], got {column}")
    if column == 1:
        return range(1)
    w = 2 ** (n - column)
    top = w * (2 ** (column - 1) - 1)
    return range(-top, top + 1, 2 * w)


class Decomposition(NamedTuple):
    """One realization of an integer as (column, generator index, signs)."""

    column: int
    index: int
    signs: tuple[int, ...]


def _sign_expansion(n: int, delta: int) -> tuple[int, tuple[int, ...]]:
    """Column and signs of the one signed sum equal to delta, for |delta| <= 2**(n-1) - 1.

    Column c's sum eps(1)*2**(n-2) + ... + eps(c-1)*2**(n-c) is 2**(n-c)
    times u = 2*b - (2**(c-1) - 1), where the c - 1 bits of b, from the
    top, are 1 where eps is +1 and 0 where it is -1.  So u is odd, c is
    n - v2(delta), and the signs are the bits of
    (u + 2**(c-1) - 1) >> 1 with u = delta >> v2(delta).
    """
    if delta == 0:
        return 1, ()
    valuation = (delta & -delta).bit_length() - 1
    column = n - valuation
    bits = ((delta >> valuation) + (1 << column - 1) - 1) >> 1
    return column, tuple([bits >> i & 1 or -1 for i in range(column - 2, -1, -1)])


def _first_index_at_least(spec: PartitionSpec, target: int) -> int:
    """Smallest k with l(k) >= target for an alpha generator, whose terms increase."""
    hi = 1
    while spec.term(hi) < target:
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if spec.term(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def decompositions(m: int, spec: PartitionSpec) -> list[Decomposition]:
    """Every (column, index, signs) realizing m, ascending by index.

    A tuple of terms is read in full, in list order, so an unsorted or
    otherwise invalid list is measured as given.  At most two intervals
    of a valid generator contain m and when both do the two realizations
    share one column; a mismatch would contradict disjointness and raises.
    m outside [1, 10**MAX_M_DIGITS) raises ValueError before the term search.
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if m >= _M_BOUND:
        raise ValueError(f"m must have at most {MAX_M_DIGITS} digits, got a {m.bit_length()}-bit integer")
    width = spec.half_width
    if isinstance(spec.generator, tuple):
        near = [(k, t) for k, t in enumerate(spec.generator, start=1) if abs(m - t) <= width]
    else:
        near = []
        k = _first_index_at_least(spec, m - width)
        while (t := spec.term(k)) <= m + width:
            near.append((k, t))
            k += 1
    out = []
    for k, t in near:
        column, signs = _sign_expansion(spec.n, m - t)
        out.append(Decomposition(column, k, signs))
    if len({dec.column for dec in out}) > 1:
        raise ArithmeticError(f"{m} realized in two different columns: {out}")
    return out


def decompose(m: int, spec: PartitionSpec) -> Decomposition:
    """The smallest-index realization of m (the column is unique)."""
    found = decompositions(m, spec)
    if not found:
        raise ArithmeticError(f"{m} not covered; generator does not satisfy the hypotheses")
    return found[0]


def _ruler_word(view: memoryview, n: int) -> None:
    """Write the ruler word P(n), P(k) = P(k-1) + [n - k + 1] + P(k-1), into view in place, cut to its length."""
    for k in range(min(n, len(view).bit_length())):  # view[:2**k - 1] holds P(k)
        start = 2**k - 1
        view[start] = n - k
        view[start + 1 : 2 * start + 1] = view[: min(start, len(view) - start - 1)]


def _alpha_labels(n: int, alpha: QuadraticReal, limit: int) -> bytearray:
    """Labels of [0, limit] for PartitionSpec(n, alpha): 0, then a characteristic word's image.

    Term t with gap g to the next term owns [t - w, t - w + g), the first
    g labels of its own interval (g <= 2w + 1; the values it shares with
    a neighbour agree), and l(1) - w = 1.  Label i of that interval is
    n - v2(i + 1), the ruler word P(n).  The gap after term k is 2**n - 1
    when c(k) = 1, else 2**(n-1), as h(k+1) - h(k) - 1 = c(k) for slope
    alpha - 1, so labels[1:] is c's image under 1 -> interval and
    0 -> interval[:2**(n-1)], both read from the buffer.
    """
    labels = bytearray(limit + 1)
    view = memoryview(labels)[1:]
    size, half = min(limit, 2**n - 1), 2 ** (n - 1)
    _ruler_word(view[:size], n)
    # terms half apart share the interval's last and first half - 1 values
    if not labels.startswith(view[half:size], 1):
        raise ArithmeticError(f"consecutive terms {half} apart put a value in two columns (n = {n})")
    standard_fill(view, alpha - 1, view[:size], view[:half])
    return labels


def _sweep(spec: PartitionSpec, limit: int) -> tuple[bytearray, int | None]:
    """Label every value in [1, limit] with its column.

    Returns labels (labels[v] is the column of v, 0 where no term reaches
    it; labels[0] is unused) and the smallest value reached in two
    different columns.  An alpha generator is filled (_alpha_labels) and
    has none: 1 <= alpha < 2 gives l(1) = 2**(n-1) and gaps in
    {2**(n-1), 2**n - 1}.  A tuple of terms is measured as given by
    _value_sweep, also the fill's test oracle.
    """
    _require_limit(limit, MAX_LIMIT)
    if isinstance(spec.generator, QuadraticReal):
        return _alpha_labels(spec.n, spec.generator, limit), None
    return _value_sweep(spec, limit)


def _value_sweep(spec: PartitionSpec, limit: int) -> tuple[bytearray, int | None]:
    """_sweep a tuple of terms one term at a time, one value at a time.

    Term t fills [t - w, t + w] with w = 2**(n-1) - 1, and a value v there
    lands in column n - v2(v - t), i.e. column j collects t plus
    column_offsets(n, j).  The list is read in full, so non-monotone
    (invalid) data is measured faithfully.  Terms at least 2**(n-1) apart
    put no value in three intervals, so their intervals, cut to
    [1, limit], hold at most 2*limit values in all; a list past that
    raises ValueError before anything is labelled, which bounds the
    sweep's work by the limit.
    """
    width = spec.half_width
    values = spec.generator
    reached = sum(max(0, min(t + width, limit) - max(t - width, 1) + 1) for t in values)
    if reached > 2 * limit:
        raise ValueError(
            f"the explicit terms' intervals hold {reached} values of [1, {limit}] in all, "
            f"more than 2*limit = {2 * limit}; terms at least {2 ** (spec.n - 1)} apart never do"
        )
    offsets = (column_offsets(spec.n, j) for j in range(1, spec.n + 1))
    grid = [(j, offs.start, offs.stop, offs.step) for j, offs in enumerate(offsets, start=1)]
    labels = bytearray(limit + 1)
    conflict: int | None = None
    for t in values:
        inside = 1 <= t - width and t + width <= limit
        for j, lo, hi, step in grid:
            first, stop = t + lo, t + hi
            if not inside:  # clip to [1, limit], keeping first on the offset grid
                if first < 1:
                    first += (step - first) // step * step
                stop = min(stop, limit + 1)
            for v in range(first, stop, step):
                seen = labels[v]
                if seen == 0:
                    labels[v] = j
                elif seen != j and (conflict is None or v < conflict):
                    conflict = v
    return labels, conflict


def _check_terms(n: int, terms: tuple[int, ...]) -> None:
    """Raise GeneratorError at the first term breaking l(1) = 2**(n-1) or the gap rule; all are read."""
    start = 2 ** (n - 1)
    if not terms:
        raise GeneratorError(1, f"no l(1) in an empty list, expected {start}")
    if terms[0] != start:
        raise GeneratorError(1, f"l(1) = {terms[0]}, expected {start}")
    allowed = gap_set(n)
    for k, (prev, t) in enumerate(zip(terms, islice(terms, 1, None)), start=2):
        if t - prev not in allowed:
            raise GeneratorError(k, f"gap l({k}) - l({k - 1}) = {t - prev} not in {sorted(allowed)}")


def column_labels(spec: PartitionSpec, limit: int) -> bytearray:
    """Column of every value in [1, limit]: labels[v] is in 1..n, labels[0] is 0.

    Raises GeneratorError when a tuple of terms violates the start or gap
    constraints (_check_terms), after the sweep's own input checks.
    """
    labels, _ = _sweep(spec, limit)
    if isinstance(spec.generator, tuple):
        _check_terms(spec.n, spec.generator)
    return labels


def column_values(labels: bytes | bytearray, j: int) -> Iterator[int]:
    """The values labelled j in labels, ascending: column j when labels come from column_labels.

    One regex scan for the byte j, one match at a time, so labels must not
    be resized while the values are read.
    """
    return map(re.Match.start, re.finditer(re.escape(bytes([j])), labels))


# block q >= 1 holds the values 100q to 100q + 99, each len(str(q)) + 2
# digits long; a layout line head + "%s" + tail spells the block as
# str(q).join of its pieces: head, then "dd" + tail + head for each value
# 100q + dd labelled j but the last, and "dd" + tail for the last
_TEMPLATE_CAP = 1024  # an explicit list's labels can have any number of block patterns
_RUN = 10**4  # labels per translated mask, and so per run: a multiple of 100


@functools.cache
def _line_pieces(line: str) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """The head, the 100 middles "dd" + tail + head and the 100 tails "dd" + tail of a layout line."""
    head, tail = line.split("%s")
    return head, tuple(f"{d:02d}{tail}{head}" for d in range(100)), tuple(f"{d:02d}{tail}" for d in range(100))


@functools.lru_cache(maxsize=_TEMPLATE_CAP)
def _block_pieces(pattern: bytes, line: str) -> tuple[str, ...]:
    """The pieces of a block whose 0/1 mask is pattern, each one of line's shared strings."""
    head, middles, tails = _line_pieces(line)
    last = pattern.rindex(1)
    return (head, *compress(middles[:last], pattern), tails[last])


def column_runs(labels: bytes | bytearray, j: int, line: str = "%s\n") -> Iterator[str]:
    """The values labelled j in labels[1:], ascending, as runs of lines line % v, one width per run.

    The text of column_values, with no int per value: line holds one "%s"
    where a value goes, "%s\n" for CSV and classify rows, ',\n      "%s"'
    for gen's JSON.  Values 1-99 are formatted one by one.  From 100 on, a
    run is a window of at most _RUN labels, cut where v gains a digit and
    translated to a 0/1 mask; a block's text is one str(q).join of its
    pieces, which point at strings built once per line.  A column's 0/1
    word is a morphic image of a Sturmian word, which has m + 1 factors of
    length m, so about a hundred templates per line, in one LRU cache,
    serve every block of an alpha generator's column (101-103 for phi and
    sqrt2 at n = 3 and 8).  find skips every block with no value labelled j.
    """
    for lo, hi in ((1, 10), (10, 100)):
        if run := "".join([line % v for v in range(lo, min(hi, len(labels))) if labels[v] == j]):
            yield run
    table = bytes(j) + b"\1" + bytes(255 - j)  # j to 1, every other byte to 0
    found = labels.find(j, 100)
    while found >= 0:
        lo = found - found % 100
        hi = min(lo + _RUN, 10 ** len(str(lo)))
        mask = bytes(labels[lo:hi]).translate(table)
        parts = []
        i = found - lo
        while i >= 0:
            b = i - i % 100
            parts.append(str((lo + b) // 100).join(_block_pieces(mask[b : b + 100], line)))
            i = mask.find(1, b + 100)
        yield "".join(parts)
        found = labels.find(j, hi)


def build_columns(spec: PartitionSpec, limit: int) -> list[list[int]]:
    """All n columns restricted to [1, limit], each strictly increasing.

    Raises GeneratorError like column_labels.
    """
    labels = column_labels(spec, limit)
    return [list(column_values(labels, j)) for j in range(1, spec.n + 1)]


class VerifyReport(NamedTuple):
    n: int
    generator: str
    limit: int
    covered: bool
    disjoint: bool
    first_defect: int | None

    @property
    def ok(self) -> bool:
        return self.covered and self.disjoint

    def to_json_dict(self) -> dict:
        """JSON form; limit and first_defect are decimal strings like every big integer."""
        return {
            "n": self.n,
            "generator": self.generator,
            "limit": str(self.limit),
            "covered": self.covered,
            "disjoint": self.disjoint,
            "first_defect": None if self.first_defect is None else str(self.first_defect),
        }


def verify_partition(spec: PartitionSpec, limit: int) -> VerifyReport:
    """Brute-force check that [1, limit] is covered exactly once.

    The report measures the data as given: generator violations are not
    defects here, and duplicate realizations inside a single column are
    legitimate.
    """
    labels, conflict = _sweep(spec, limit)
    found = labels.find(0, 1)
    uncovered = None if found < 0 else found
    defects = [v for v in (uncovered, conflict) if v is not None]
    return VerifyReport(
        n=spec.n,
        generator=spec.describe(),
        limit=limit,
        covered=uncovered is None,
        disjoint=conflict is None,
        first_defect=min(defects) if defects else None,
    )


def d2_closed_form(n: int, k: int) -> int:
    """k-th smallest element of column 2 of phi_spec(n): a(k) + (2**(n-1)-2)*k - (2**(n-2)-1)."""
    _require_columns(n)
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return lower(k) + (2 ** (n - 1) - 2) * k - (2 ** (n - 2) - 1)
