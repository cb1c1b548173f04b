"""Kernels that only the tests use.

linear_form evaluates one signed sum of the partition construction,
density_entry looks up one density by name, and quadratic_from_json reads back
QuadraticReal.to_json_dict.  col_d and col_c are the paper's per-point
formulas 3*a(k) + k and a(k) + 2k - 1 for columns D and C, and col_s
builds column S from col_c, all kept apart from the generator term and
the column-2 closed form that src/ uses.
beatty_term is a QuadraticReal oracle for Beatty values.  ab_label is
the A/B label of wythoff.classify_ab alone; classify_cd and cd_label
decide C/D membership by the same counting floor, the C/D counterpart of
classify_ab, through wythoff._split, and row_class labels one row of the
three-column partition with three ab_label calls: the per-point
references for the range scans, whose classes must be the six of
ADMISSIBLE_ROW_CLASSES.  unit_interval_label is the quarter rule, which
places {m*phi} among the breakpoints of UNIT_INTERVALS by exact
QuadraticReal comparison: m is B exactly in I1 and C exactly in I1 or
I3.  With witness_search, the +-1 search around an inverted floor, it
builds the references the counting-floor kernels are tested against.
gen_csv and gen_json render gen's columns through
the csv and json encoders, the reference for gen's own emitters, and
appended_columns builds the columns with one append per value, the
reference for partition.column_values, and interval_labels labels one
generator term's interval by offset_column, the column n - v2(d) of
each offset d, the reference for the ruler word that
partition._ruler_word writes in place and for the inverse map
partition._sign_expansion.
limiting_prefix_check reads the paper's limiting 2-adic prefixes off a
column: column n - e starts with 2**e times the odd numbers below
2**(n-e).
fib_shift_converse and klm_grid are the field-arithmetic converse scan
and the full coefficient grid, the references for the integer scans in
identities.fib_shift_converse and identities._check_klm_grid; ab_word builds
the Fibonacci word by string concatenation.  row_codes, pair_codes and
c_half_counts are the per-index scans behind the three_set censuses and
densities, one isqrt per index.  row_scan, pair_scan and c_half_scan
are the byte scans over three_set's tag buffer that the censuses ran
before they counted by floor sums: the references for the step tables
at every index up to three_set.MAX_INDEX, where the per-index scans
are too slow.  row_scan and pair_scan shift planes of kept tags into
one code per index through select.  table_codes labels each index by a
step table of three_set, one exact comparison per breakpoint, and
table_row_codes merges the odd and even row tables, to compare with the
scans' codes index by index.
"""

from __future__ import annotations

import csv
import io
import json
from enum import Enum
from itertools import islice, product
from math import isqrt
from typing import Iterator, NamedTuple

from beattylab import partition, three_set, wythoff
from beattylab.qfield import DEFAULT_RADICAND, INV_PHI, INV_PHI_SQ, ONE, ONE_HALF, PHI, ZERO, QuadraticReal, floor_surd, phi_pow
from beattylab.identities import BREAK_HIGH, strict_compare
from beattylab.wythoff import ABLabel, frac_phi, klm, lower


def linear_form(n: int, t: int, j: int, signs: tuple[int, ...]) -> int:
    """t + signs[0]*2**(n-2) + ... + signs[j-1]*2**(n-j-1); j = 0 gives t."""
    partition._require_columns(n)
    if not 0 <= j <= n - 1:
        raise ValueError(f"form index must be in [0, {n - 1}], got {j}")
    if len(signs) != j:
        raise ValueError(f"sign prefix has length {len(signs)}, form index {j} needs exactly {j}")
    total = t
    for i, eps in enumerate(signs):
        if eps not in (-1, 1):
            raise ValueError(f"signs must be +-1, got {eps}")
        total += eps * 2 ** (n - 2 - i)
    return total


def density_entry(report: three_set.DensityReport, name: str) -> three_set.DensityEntry:
    """The density called name in report; KeyError when there is none."""
    return {e.name: e for e in report.entries}[name]


def quadratic_from_json(obj: dict) -> QuadraticReal:
    """The QuadraticReal whose to_json_dict is obj."""
    radicand = int(obj.get("radicand", DEFAULT_RADICAND))
    return QuadraticReal(int(obj["p"]), int(obj["q"]), int(obj["d"]), radicand)


def beatty_term(alpha: QuadraticReal, k: int) -> int:
    """k-th Beatty value floor(k*alpha) for a positive exact alpha."""
    wythoff._require_positive(k, "k")
    if alpha.sign() <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return (alpha * k).floor()


class IntervalLabel(Enum):
    """Quarters of (0,1) cut at 1/phi^2, 1/2 and (4-sqrt5)/2."""

    I1 = "I1"
    I2 = "I2"
    I3 = "I3"
    I4 = "I4"


UNIT_INTERVALS: dict[IntervalLabel, tuple[QuadraticReal, QuadraticReal]] = {
    IntervalLabel.I1: (ZERO, INV_PHI_SQ),
    IntervalLabel.I2: (INV_PHI_SQ, ONE_HALF),
    IntervalLabel.I3: (ONE_HALF, BREAK_HIGH),
    IntervalLabel.I4: (BREAK_HIGH, ONE),
}


def unit_interval_label(m: int) -> IntervalLabel:
    """The quarter of (0,1) that holds {m*phi}; a tie with a breakpoint raises ArithmeticError."""
    f = frac_phi(m)
    return next(label for label, (_, hi) in UNIT_INTERVALS.items() if strict_compare(f, hi) < 0)


def witness_search(m: int, candidate: int, term) -> int:
    """The first of candidate, candidate - 1, candidate + 1 that term maps to m."""
    for i in (candidate, candidate - 1, candidate + 1):
        if i >= 1 and term(i) == m:
            return i
    raise ArithmeticError(f"no witness index found for {m}; arithmetic bug")


def ab_label(m: int) -> ABLabel:
    """A/B label of m alone."""
    return wythoff.classify_ab(m).label


class CDLabel(Enum):
    """Membership among the floor(n*phi^2/2) (C) / floor(n*phi^3) (D) values."""

    C = "C"
    D = "D"


class CDMembership(NamedTuple):
    label: CDLabel
    witness: int


def classify_cd(m: int) -> CDMembership:
    """C/D membership of m (C: floor(i*phi^2/2) values, D: floor(i*phi^3)) with a witness index.

    i = floor((m+1)*2/phi^2) of the C values are <= m, so m is c_half(i)
    or d_cubed(m - i).  The enumerators are read from wythoff at each
    call, so a test can patch them.
    """
    wythoff._require_positive(m, "m")
    i = floor_surd(3 * (m + 1), -(m + 1), 1)  # (m+1)*2/phi^2 = (m+1)*(3 - sqrt5)
    in_c, witness = wythoff._split(m, i, wythoff.c_half, wythoff.d_cubed)
    return CDMembership(CDLabel.C if in_c else CDLabel.D, witness)


def cd_label(m: int) -> CDLabel:
    """C/D label of m alone."""
    return classify_cd(m).label


class RowClass(NamedTuple):
    s: ABLabel
    c: ABLabel
    d: ABLabel

    @property
    def code(self) -> str:
        return self.s.value + self.c.value + self.d.value


def col_d(k: int) -> int:
    """k-th element of column D, 3*a(k) + k, as the paper writes it."""
    return 3 * lower(k) + k


def col_c(k: int) -> int:
    """k-th element of column C, a(k) + 2k - 1, as the paper writes it."""
    return lower(k) + 2 * k - 1


def col_s(k: int) -> int:
    """k-th element of column S, c(k/2) + 1 for even k and c((k+1)/2) - 1 for odd k."""
    return col_c(k // 2) + 1 if k % 2 == 0 else col_c((k + 1) // 2) - 1


# the paper's six row classes, typed apart from three_set's step tables
ADMISSIBLE_ROW_CLASSES = frozenset({"AAA", "AAB", "ABA", "BAA", "BBA", "BAB"})


def row_class(k: int) -> RowClass:
    """A/B memberships of (s(k), c(k), d(k))."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return RowClass(ab_label(col_s(k)), ab_label(col_c(k)), ab_label(col_d(k)))


def appended_columns(spec: partition.PartitionSpec, limit: int) -> list[list[int]]:
    """The n columns of column_labels(spec, limit), one list append per value."""
    columns: list[list[int]] = [[] for _ in range(spec.n)]
    appenders = [[].append] + [column.append for column in columns]  # label 0: not reached
    for v, j in enumerate(partition.column_labels(spec, limit)):
        appenders[j](v)
    return columns


def offset_column(n: int, d: int) -> int:
    """Column of the value t + d around a term t: 1 at d = 0, otherwise n - v2(d)."""
    return n - (d & -d).bit_length() + 1 if d else 1


def interval_labels(n: int, size: int | None = None) -> bytes:
    """The first size labels (all 2**n - 1 by default) of t - w .. t + w around a term t, w = 2**(n-1) - 1."""
    w = 2 ** (n - 1) - 1
    return bytes(offset_column(n, d) for d in range(-w, w + 1)[:size])


def limiting_prefix_check(n: int, e: int, spec: partition.PartitionSpec | None = None) -> bool:
    """Whether column n-e starts with 2**e * (1, 3, 5, ..., 2**(n-e) - 1).

    The prefix claim only uses l(1) = 2**(n-1), so any valid spec for the
    given n may be passed; the identity-step spec is the default.  The
    prefix ends at 2**e * (2**(n-e) - 1), which must lie within
    partition.MAX_LIMIT.
    """
    partition._require_columns(n)
    if not 0 <= e <= n - 1:
        raise ValueError(f"e must be in [0, {n - 1}], got {e}")
    top = 2**e * (2 ** (n - e) - 1)
    if top > partition.MAX_LIMIT:
        raise ValueError(f"prefix of column {n - e} ends at {top}, past the limit cap {partition.MAX_LIMIT}")
    if spec is None:
        spec = partition.identity_spec(n)
    elif spec.n != n:
        raise ValueError(f"spec has {spec.n} columns, expected {n}")
    expected = [2**e * u for u in range(1, 2 ** (n - e), 2)]
    return list(islice(partition.column_values(partition.column_labels(spec, top), n - e), len(expected))) == expected


def gen_csv(columns: list[list[int]]) -> str:
    """gen's CSV as csv.writer writes it: a header, then one (column, k, value) row per value."""
    fh = io.StringIO()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["column", "k", "value"])
    writer.writerows((j, k, v) for j, col in enumerate(columns, start=1) for k, v in enumerate(col, start=1))
    return fh.getvalue()


def gen_json(spec: partition.PartitionSpec, limit: int, columns: list[list[int]]) -> str:
    """gen's JSON as json.dump(indent=2) writes it, values as decimal strings, plus a newline."""
    payload = {
        "n": spec.n,
        "generator": spec.describe(),
        "limit": limit,
        "columns": [[str(v) for v in col] for col in columns],
    }
    fh = io.StringIO()
    json.dump(payload, fh, indent=2)
    fh.write("\n")
    return fh.getvalue()


def fib_shift_converse(r: int, n: int, search_bound: int) -> set[int]:
    """All m <= search_bound with phi^r*{m*phi} = 1 + phi^(r-2)*{n*phi}, one QuadraticReal product per m."""
    pr = phi_pow(r)
    target = ONE + PHI ** (r - 2) * frac_phi(n)
    return {m for m in range(1, search_bound + 1) if pr * frac_phi(m) == target}


def klm_grid(n: int, fault_offset: int = 0) -> tuple[int, str]:
    """(mismatches, case text) of the klm-grid record, klm against lower over all of [-5, 5]^3."""
    an = lower(n)
    mismatches = 0
    first = ""
    for K, L, M in product(range(-5, 6), repeat=3):
        arg = K * an + L * n + M
        if arg < 1:
            continue
        if klm(K, L, M, n) != lower(arg) + fault_offset:
            mismatches += 1
            if not first:
                first = f"first=({K},{L},{M})"
    return mismatches, first or "grid [-5,5]^3"


def ab_word(limit: int) -> str:
    """The Fibonacci word's first limit letters, built by repeated concatenation."""
    previous, word = "A", "AB"
    while len(word) < limit:
        previous, word = word, word + previous
    return word[:limit]


def row_codes(limit: int) -> Iterator[str]:
    """row_class(k).code for k in [1, limit], read from one Fibonacci word.

    Per k, a(k) and a(ceil(k/2)) cost one isqrt each; word[m - 1] is the
    A/B label of m, and d(limit) is the largest value read.
    """
    word = ab_word(col_d(limit))
    for k in range(1, limit + 1):
        a = (k + isqrt(5 * k * k)) // 2
        h = (k + 1) // 2
        c_h = (h + isqrt(5 * h * h)) // 2 + 2 * h - 1  # c(ceil(k/2))
        s = c_h + 1 if k % 2 == 0 else c_h - 1
        yield word[s - 1] + word[a + 2 * k - 2] + word[3 * a + k - 1]


def pair_codes(limit: int) -> Iterator[str]:
    """Column letters of (a(n), b(n)) for n in [1, limit], read from the column labels."""
    letters = {1: "D", 2: "C", 3: "S"}
    labels = partition.column_labels(three_set.THREE_SET_SPEC, wythoff.upper(limit))
    for n in range(1, limit + 1):
        a = (n + isqrt(5 * n * n)) // 2  # a(n), and b(n) = a(n) + n
        yield letters[labels[a]] + letters[labels[a + n]]


def c_half_counts(limit: int) -> tuple[int, int]:
    """(c-half-in-A, a-in-C) counts of density_report, one pass over the values c_half(i) <= a(limit).

    The A values up to a(limit) are a(1), ..., a(limit), so a value
    c_half(i) labelled A is one a(n) in C, and for i <= limit it is also a
    c_half(i) in A.
    """
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
    return c_in_a, a_in_c


def tally(codes: bytes | bytearray, names: dict[int, str]) -> three_set.Census:
    """Census of index k = 1, ..., len(codes) with code codes[k - 1], keyed by names, in order of first occurrence."""
    found = sorted((at, code) for code in names if (at := codes.find(code)) >= 0)
    counts = {names[code]: codes.count(code) for _, code in found}
    return three_set.Census(len(codes), counts, {names[code]: at + 1 for at, code in found})


# Tags are 2*column + [v is B]; partition column 1 is D, 2 is C, 3 is S.
# The row planes are the B bits of the values of S, C and D in order, so
# shifted in one bit at a time, a row code is
# 4*[s(k) is B] + 2*[c(k) is B] + [d(k) is B].
ROW_PLANES = tuple(three_set._keep({2 * column: 0, 2 * column + 1: 1}) for column in (3, 2, 1))
# The pair planes are the columns (0 for D, 1 for C, 2 for S) of the
# A-labelled values, a(1), a(2), ..., and of the B-labelled ones, b(1),
# b(2), ..., so shifted in two bits at a time, a pair code is
# 4*column(a(n)) + column(b(n)).
PAIR_PLANES = (three_set._keep({2: 0, 4: 1, 6: 2}), three_set._keep({3: 0, 5: 1, 7: 2}))
# the names of the pair codes of pair_scan
PAIR_CODE_NAMES = {4 * i + j: x + y for i, x in enumerate("DCS") for j, y in enumerate("DCS")}
# the names of the row codes of row_scan
ROW_CODE_NAMES = dict(enumerate(s + c + d for s in "AB" for c in "AB" for d in "AB"))


def select(tags: bytearray, limit: int, shift: int, planes: tuple[tuple[bytes, bytes], ...]) -> bytearray:
    """Codes of indices 1, ..., limit: the k-th value each plane keeps, shifted in plane by plane.

    Each plane must keep at least limit values, or _shift_in raises
    ArithmeticError.
    """
    codes = bytearray(limit)
    for keep in planes:
        three_set._shift_in(codes, shift, tags.translate(*keep))
    return codes


def row_scan(limit: int) -> bytearray:
    """Row codes of k in [1, limit], 4*[s(k) is B] + 2*[c(k) is B] + [d(k) is B], selected from the tags of [1, d(limit)]."""
    return select(three_set._tagged_values(three_set.THREE_SET_SPEC.term(limit)), limit, 1, ROW_PLANES)


def pair_scan(limit: int) -> bytearray:
    """Pair codes of n in [1, limit], 4*column(a(n)) + column(b(n)), selected from the tags of [1, b(limit)]."""
    return select(three_set._tagged_values(wythoff.upper(limit)), limit, 2, PAIR_PLANES)


def c_half_scan(limit: int) -> tuple[int, int]:
    """(c-half-in-A, a-in-C) counts over indices up to limit, from two words.

    The values c_half(i) = floor(i*phi^2/2) are marked by the word of
    slope 2/phi^2 = 3 - sqrt5, and the A values by the word of slope 1/phi.
    The A values up to a(limit) are a(1), ..., a(limit), so a value up to
    a(limit) marked both C and A is one a(n) in C, and one up to
    c_half(limit) is one c_half(i) in A.
    """
    marks = bytearray(lower(limit))
    wythoff.standard_fill(marks, 2 * INV_PHI_SQ, b"\x01", b"\x00")
    three_set._shift_word(marks, INV_PHI)  # marks[m - 1] = 2*[m in C] + [m in A]
    return marks.count(3, 0, wythoff.c_half(limit)), marks.count(3)


def table_row_codes(limit: int) -> list[str]:
    """The row class of k in [1, limit] by three_set's step tables: the odd table for k = 2h - 1, the even one for k = 2h."""
    codes = [""] * limit
    codes[0::2] = table_codes((limit + 1) // 2, three_set._PHI, three_set._ODD_ROWS)
    codes[1::2] = table_codes(limit // 2, three_set._PHI, three_set._EVEN_ROWS)
    return codes


def table_codes(limit: int, theta: tuple[int, int, int], pieces) -> list[str]:
    """The label of the piece of a three_set step table that holds {h*theta}, for h in [1, limit].

    {h*theta} < x exactly when floor(h*theta - x) < floor(h*theta), so
    each breakpoint costs one floor_surd.
    """
    tp, tq, td = theta
    codes = []
    for h in range(1, limit + 1):
        whole = floor_surd(h * tp, h * tq, td)
        below = (label for label, (xp, xq, xd) in pieces if floor_surd(h * tp * xd - xp * td, h * tq * xd - xq * td, td * xd) < whole)
        codes.append(next(below))
    return codes
