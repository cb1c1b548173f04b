"""Registry of named exact identity checks, scanned over index ranges.

The registry IDENTITIES is the one place that names an identity.  Its
checkers return, for one index, only what they check: (case, lhs, rhs)
with exact left/right sides, passing when they are equal, or
(case, lhs, rhs, passed) where the checker gives the verdict itself.
iter_identity_checks stamps the name and the index on every record, and
a scan passes only if every record does.  Each scan hands its checkers
one LowerTable, from which the brute-force sides of the KLM grid and the
shift converse read a(x), and drops it when the scan ends.  The KLM grid
check is summarized per index (one record counting mismatches over all
coefficient triples) and supports an off-by-one fault injection for
exercising the failure path.

The statements checked that no kernel or scan reads live here too: the
fractional-part closed forms of a(n), b(n), d(k), c(k) and s(k), the
intervals that hold {d(n)*phi} and {c(m)*phi}, and the brute-force
converse of the Fibonacci-shift identity.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator, NamedTuple

from .partition import _require_limit, d2_closed_form
from .qfield import (
    INV_PHI,
    INV_PHI_CUBED,
    INV_PHI_SQ,
    INV_SQRT5,
    LAMBDA_SPLIT,
    ONE,
    ONE_HALF,
    PHI,
    PHI_CUBED,
    PHI_SQ,
    QuadraticReal,
    ZERO,
    fib,
    phi_pow,
)
from .three_set import THREE_SET_SPEC, col_s
from .wythoff import _require_positive, c_half, d_cubed, frac_phi, klm, lower, upper


class IdentityCheck(NamedTuple):
    identity: str
    n: int
    case: str
    lhs: object
    rhs: object
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "n": self.n,
            "case": self.case,
            "lhs": _json_value(self.lhs),
            "rhs": _json_value(self.rhs),
            "pass": self.passed,
        }


def _json_value(v) -> object:
    if isinstance(v, QuadraticReal):
        return v.to_json_dict()
    return str(v)


# fib and phi_pow are O(k) loops run at every scanned index, so every
# Fibonacci index a check evaluates (shift index r, phi-power exponent,
# Cassini index) stays at or below this cap.
FIB_INDEX_CAP = 200

# The converse scan evaluates every m up to its bound in integer arithmetic,
# for each of up to 50 indices and both shift indices; at this cap a full
# run stays within seconds and its table of a(m) within 128 KiB.
CONVERSE_BOUND_CAP = 10**4

# Largest index range iter_identity_checks scans.  Every index runs the
# whole registry, so time grows linearly in N: identities --N 10**4 takes
# about 4.8 s (2-vCPU Xeon, 16.7 MB peak RSS), most of it in the klm grid.
MAX_N = 10**4


class CheckOptions(NamedTuple):
    rs: tuple[int, ...] = (1, 3, 5, 7)
    bound: int | None = None
    fault_offset: int = 0


# -- the statements the checks test, which no kernel or scan reads ------------

# 1/phi^2 = (3 - sqrt5)/2, 1/2 and (4 - sqrt5)/2 cut the unit interval
# into quarters; the d and c fractional parts each keep to two of them
BREAK_HIGH = QuadraticReal(4, -1, 2)
D_FRAC_ABOVE_HALF = (INV_PHI_SQ, ONE_HALF)
D_FRAC_BELOW_HALF = (BREAK_HIGH, ONE)
C_FRAC_EVEN = (ZERO, INV_PHI_SQ)
C_FRAC_ODD = (ONE_HALF, BREAK_HIGH)

# slopes and offsets of the three-column closed forms
SQRT5_OVER_PHI_SQ = QuadraticReal(-5, 3, 2)  # sqrt5/phi^2 = (3*sqrt5-5)/2
SQRT5_OVER_PHI = 2 * LAMBDA_SPLIT  # sqrt5/phi = (5-sqrt5)/2
SQRT5_OVER_TWO_PHI = LAMBDA_SPLIT  # sqrt5/(2*phi) = (5-sqrt5)/4
S_OFFSETS_EVEN = (ZERO, QuadraticReal(1, -1, 4), LAMBDA_SPLIT)  # 0, (1-sqrt5)/4, (5-sqrt5)/4
S_OFFSETS_ODD = (
    -ONE_HALF,
    ONE_HALF,
    QuadraticReal(3, -1, 4),  # (3-sqrt5)/4
    QuadraticReal(2, -1, 2),  # 1 - sqrt5/2
    BREAK_HIGH,  # 2 - sqrt5/2
)


def strict_compare(x: QuadraticReal, y: QuadraticReal) -> int:
    """Exact comparison that treats equality as a defect, never a tie-break."""
    c = x.compare(y)
    if c == 0:
        raise ArithmeticError(
            f"fractional part equals breakpoint {y} exactly; this is impossible "
            "and signals an arithmetic bug"
        )
    return c


def frac_lower(n: int) -> QuadraticReal:
    """{a(n)*phi} in closed form: 1 - {n*phi}/phi."""
    return ONE - frac_phi(n) * INV_PHI


def frac_upper(n: int) -> QuadraticReal:
    """{b(n)*phi} in closed form: {n*phi}/phi^2."""
    return frac_phi(n) * INV_PHI_SQ


def frac_col_d(k: int) -> QuadraticReal:
    """{d(k)*phi} in closed form: 1 - (sqrt5/phi^2)*{k*phi}."""
    return ONE - SQRT5_OVER_PHI_SQ * frac_phi(k)


def frac_col_c(k: int) -> tuple[str, QuadraticReal]:
    """{c(k)*phi} in closed form, split exactly at {k*phi} = 1/sqrt5.

    Above the split the offset is (1-sqrt5)/2, below it (3-sqrt5)/2.
    """
    fk = frac_phi(k)
    if strict_compare(fk, INV_SQRT5) > 0:
        return "above-inv-sqrt5", SQRT5_OVER_PHI * fk - INV_PHI
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


class LowerTable:
    """a(x) = lower(x) for every x below a size that grows on demand; one per scan.

    The brute-force sides of klm-grid and fib-shift-converse read a(x) at
    many arguments from here, so each a(x) is computed by lower once per
    scan.  The size grows to the power of two past the top asked for, so
    growing costs fewer than twice the entries of the final size.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values = array("q", [0])  # a(0) = 0

    def upto(self, top: int) -> array:
        """The table, as an array holding a(x) at index x for 0 <= x <= top (and past it)."""
        values = self.values
        if top >= len(values):
            values.extend(map(lower, range(len(values), 1 << top.bit_length())))
        return values


def fib_shift_converse(r: int, n: int, search_bound: int, table: LowerTable | None = None) -> set[int]:
    """All m <= search_bound with phi^r*{m*phi} - phi^(r-2)*{n*phi} = 1.

    Brute force over the full range; the result should be exactly
    {a(n) + n + F(r)} whenever that value lies within the bound.  Each m
    is tested in integers: with phi^r = (u + v*sqrt5)/2 and
    {m*phi} = (x + m*sqrt5)/2, x = m - 2a(m), the left side
    phi^r*{m*phi} is (u*x + 5*v*m + (u*m + v*x)*sqrt5)/4, compared
    coordinate by coordinate with the target (tp + tq*sqrt5)/td.  a(m)
    is read from table, a new one unless the caller's scan passes its own.
    """
    if r < 1 or r % 2 == 0:
        raise ValueError(f"shift index must be an odd positive integer, got {r}")
    _require_positive(n)
    _require_positive(search_bound, "search_bound")
    if search_bound > CONVERSE_BOUND_CAP:  # the table of a(m) takes 8 bytes per m
        raise ValueError(f"search_bound must be at most {CONVERSE_BOUND_CAP}, got {search_bound}")
    pr = phi_pow(r)
    u, v = 2 * pr.p // pr.d, 2 * pr.q // pr.d
    target = ONE + pr * INV_PHI_SQ * frac_phi(n)  # phi^(r-2) = phi^r/phi^2
    tp, tq, td = target.p, target.q, target.d
    a = (LowerTable() if table is None else table).upto(search_bound)
    tu, tv, tv5, tp4, tq4 = td * u, td * v, 5 * td * v, 4 * tp, 4 * tq  # the products no m changes
    found = set()
    for m in range(1, search_bound + 1):
        x = m - 2 * a[m]
        if tu * x + tv5 * m == tp4 and tu * m + tv * x == tq4:
            found.add(m)
    return found


def _check_frac_lower(n, opts, table):
    return [("", frac_lower(n), frac_phi(lower(n)))]


def _check_frac_upper(n, opts, table):
    return [("", frac_upper(n), frac_phi(upper(n)))]


def _check_nested_floors(n, opts, table):
    an, bn = lower(n), upper(n)
    return [
        ("a(a(n))", lower(an), an + n - 1),
        ("a(a(n))=b(n)-1", lower(an), bn - 1),
        ("a(b(n))", lower(bn), an + bn),
    ]


def _check_upper_gap(n, opts, table):
    return [("", upper(n) - PHI * lower(n), frac_phi(n) * INV_PHI)]


def _check_frac_sum(n, opts, table):
    return [("", frac_lower(n) + PHI * frac_upper(n), ONE)]


def _check_summary_lower(n, opts, table):
    return [("", PHI * frac_phi(lower(n)) + frac_phi(n), PHI)]


def _check_summary_upper(n, opts, table):
    return [("", PHI_SQ * frac_phi(upper(n)) - frac_phi(n), ZERO)]


def _check_summary_d(n, opts, table):
    fn = frac_phi(n)
    lhs = frac_phi(d_cubed(n)) + INV_PHI_CUBED * fn
    if strict_compare(fn, ONE_HALF) < 0:
        return [("below-half", lhs, ONE)]
    return [("above-half", lhs, INV_PHI)]


def _check_summary_c(n, opts, table):
    fn = frac_phi(n)
    phi_fn = PHI * fn
    out = [("m=2n", PHI_CUBED * frac_phi(c_half(2 * n)) - phi_fn, ZERO)]
    lhs = PHI_CUBED * frac_phi(c_half(2 * n + 1)) - phi_fn
    if strict_compare(fn, LAMBDA_SPLIT) < 0:
        out.append(("m=2n+1,low", lhs, PHI_SQ))
    else:
        out.append(("m=2n+1,high", lhs, ONE))
    return out


def _check_d_interval(n, opts, table):
    fn = frac_phi(n)
    if strict_compare(fn, ONE_HALF) > 0:
        case, value, (lo, hi) = "above-half", INV_PHI - INV_PHI_CUBED * fn, D_FRAC_ABOVE_HALF
    else:
        case, value, (lo, hi) = "below-half", ONE - INV_PHI_CUBED * fn, D_FRAC_BELOW_HALF
    if not (lo < value < hi):
        message = f"{{d({n})*phi}} = {value} escaped ({lo}, {hi})"
        return [("membership", message, "", False)]
    return [(case, value, frac_phi(d_cubed(n)))]


def _check_c_interval(n, opts, table):
    out = []
    for case, m, (lo, hi) in (("even", 2 * n, C_FRAC_EVEN), ("odd", 2 * n + 1, C_FRAC_ODD)):
        value = frac_phi(c_half(m))
        out.append((case, value, f"({lo}, {hi})", lo < value < hi))
    return out


def _check_d_case(n, opts, table):
    fn = frac_phi(n)
    if strict_compare(fn, ONE_HALF) < 0:
        return [("below-half", d_cubed(n), 2 * lower(n) + n)]
    return [("above-half", d_cubed(n), 2 * lower(n) + n + 1)]


def _check_c_odd_case(n, opts, table):
    e = 1 if strict_compare(frac_phi(n), LAMBDA_SPLIT) < 0 else 2
    return [(f"e={e}", c_half(2 * n + 1), upper(n) + e)]


def _check_fib_floor(n, opts, table):
    shifted = frac_phi(n) * INV_PHI
    return [(f"r={r}", (PHI * fib(r) + INV_PHI * shifted).floor(), fib(r + 1)) for r in opts.rs]


@lru_cache(maxsize=FIB_INDEX_CAP + 1)
def _phi_product(n: int) -> QuadraticReal:
    """PHI multiplied into ONE n times, from the product of n - 1 factors: phi-power's oracle, not phi_pow."""
    return ONE if n == 0 else _phi_product(n - 1) * PHI


def _check_phi_power(n, opts, table):
    return [
        ("vs-iterated-product", phi_pow(n), _phi_product(n)),
        ("vs-fib-form", phi_pow(n), PHI * fib(n) + fib(n - 1)),
    ]


def _check_cassini(n, opts, table):
    return [("", fib(n + 1) * fib(n - 1) - fib(n) ** 2, (-1) ** n)]


def _check_klm_grid(n, opts, table):
    # only triples with K*a(n) + L*n + M >= 1 are in klm's domain, so M
    # starts where the argument turns positive; the (K, L, M) order is kept
    an = lower(n)
    a = table.upto(5 * (an + n + 1))  # the largest argument, at K = L = M = 5
    offset = opts.fault_offset
    mismatches = 0
    first = ""
    for K, L in product(range(-5, 6), repeat=2):
        base = K * an + L * n
        for M in range(max(-5, 1 - base), 6):
            if klm(K, L, M, n) != a[base + M] + offset:
                mismatches += 1
                if not first:
                    first = f"first=({K},{L},{M})"
    return [(first or "grid [-5,5]^3", mismatches, 0)]


def _check_fib_shift(n, opts, table):
    shifted = frac_phi(n) * INV_PHI_SQ  # phi^(r-2)*{n*phi} = phi^r*shifted
    bn = lower(n) + n
    out = []
    for r in opts.rs:
        m = bn + fib(r)
        pr = phi_pow(r)
        lhs = pr * frac_phi(m) - pr * shifted
        out.append((f"r={r},m={m}", lhs, ONE))
    return out


def _check_fib_shift_converse(n, opts, table):
    # the default search bound grows with F(r): scan the shift indices 1 and 3 of rs, or both
    bn = lower(n) + n
    out = []
    for r in [s for s in opts.rs if s in (1, 3)] or (1, 3):
        expected = bn + fib(r)
        bound = opts.bound if opts.bound is not None else max(400, 2 * expected)
        found = sorted(fib_shift_converse(r, n, bound, table))
        want = [expected] if expected <= bound else []
        out.append((f"r={r},bound={bound}", found, want))
    return out


def _check_col_d_frac(n, opts, table):
    return [("", frac_col_d(n), frac_phi(THREE_SET_SPEC.term(n)))]


def _check_col_c_frac(n, opts, table):
    case, closed = frac_col_c(n)
    return [(case, closed, frac_phi(d2_closed_form(3, n)))]


def _check_col_s_frac(n, opts, table):
    try:
        offset, value = frac_col_s(n)
    except ArithmeticError as exc:
        return [("offset", str(exc), "", False)]
    case = "even" if n % 2 == 0 else "odd"
    return [(case, offset, "parity candidate set", True)]


def _check_col_sum(n, opts, table):
    case, c_frac = frac_col_c(n)
    rhs = ONE if case == "above-inv-sqrt5" else QuadraticReal(2)
    return [(case, c_frac + PHI * frac_col_d(n), rhs)]


# the one dataclass left in the package: perfbench/tracer.py swaps each
# checker for a timed one with dataclasses.replace
@dataclass(frozen=True)
class IdentityDef:
    name: str
    description: str
    checker: Callable[[int, CheckOptions, LowerTable], list[tuple]]
    index_cap: int | None = None


IDENTITIES: dict[str, IdentityDef] = {d.name: d for d in (
    IdentityDef("frac-lower", "{a(n)phi} = 1 - {n phi}/phi", _check_frac_lower),
    IdentityDef("frac-upper", "{b(n)phi} = {n phi}/phi^2", _check_frac_upper),
    IdentityDef("nested-floors", "a(a(n)) = a(n)+n-1 = b(n)-1; a(b(n)) = a(n)+b(n)", _check_nested_floors),
    IdentityDef("upper-gap", "b(n) - phi*a(n) = {n phi}/phi", _check_upper_gap),
    IdentityDef("frac-sum", "{a(n)phi} + phi*{b(n)phi} = 1", _check_frac_sum),
    IdentityDef("summary-lower", "phi*{a(n)phi} + {n phi} = phi", _check_summary_lower),
    IdentityDef("summary-upper", "phi^2*{b(n)phi} - {n phi} = 0", _check_summary_upper),
    IdentityDef("summary-d", "{d(n)phi} + (sqrt5-2)*{n phi} = 1 or 1/phi", _check_summary_d),
    IdentityDef("summary-c", "phi^3*{c(m)phi} - phi*{n phi} = 0, phi^2 or 1", _check_summary_c),
    IdentityDef("d-interval", "{d(n)phi} lies in the half-split interval", _check_d_interval),
    IdentityDef("c-interval", "{c(m)phi} lies in the parity interval", _check_c_interval),
    IdentityDef("d-case", "d(n) = 2a(n)+n (+1 above half)", _check_d_case),
    IdentityDef("c-odd-case", "c(2n+1) = b(n) + e(n), e split at (5-sqrt5)/4", _check_c_odd_case),
    IdentityDef("fib-floor", "floor(F(r)phi + (phi-1){n phi}/phi) = F(r+1)", _check_fib_floor),
    IdentityDef("phi-power", "phi^k = F(k)phi + F(k-1)", _check_phi_power, index_cap=FIB_INDEX_CAP),
    IdentityDef("cassini", "F(n+1)F(n-1) - F(n)^2 = (-1)^n", _check_cassini, index_cap=FIB_INDEX_CAP),
    IdentityDef("klm-grid", "a(K a(n)+L n+M) closed form over the coefficient grid", _check_klm_grid),
    IdentityDef("fib-shift", "phi^r {m phi} - phi^(r-2) {n phi} = 1 at m = a(n)+n+F(r)", _check_fib_shift),
    IdentityDef(
        "fib-shift-converse",
        "brute-force solution set of the shift identity",
        _check_fib_shift_converse,
        index_cap=50,
    ),
    IdentityDef("col-d-frac", "{d(k)phi} closed form, 3-column d", _check_col_d_frac),
    IdentityDef("col-c-frac", "{c(k)phi} closed form, 3-column c", _check_col_c_frac),
    IdentityDef("col-s-frac", "{s(k)phi} realized offset in the parity set", _check_col_s_frac),
    IdentityDef("col-sum", "{c(k)phi} + phi*{d(k)phi} = 1 or 2", _check_col_sum),
)}


def identity_names() -> list[str]:
    return list(IDENTITIES)


def iter_identity_checks(
    name: str, limit: int, opts: CheckOptions = CheckOptions()
) -> Iterator[IdentityCheck]:
    """All check records for one identity over indices 1..limit (capped).

    A shift index or converse bound of opts out of range, an unknown name
    or a limit outside [1, MAX_N] raises ValueError, in that order, before
    any checker runs.
    """
    for r in opts.rs:
        if not (1 <= r <= FIB_INDEX_CAP and r % 2 == 1):
            raise ValueError(f"shift indices must be odd integers in [1, {FIB_INDEX_CAP}], got {r}")
    if opts.bound is not None and not 1 <= opts.bound <= CONVERSE_BOUND_CAP:
        raise ValueError(f"converse search bound must be in [1, {CONVERSE_BOUND_CAP}], got {opts.bound}")
    if name not in IDENTITIES:
        raise ValueError(f"unknown identity {name!r}; choose from {identity_names()}")
    _require_limit(limit, MAX_N)
    definition = IDENTITIES[name]
    checker = definition.checker
    top = limit if definition.index_cap is None else min(limit, definition.index_cap)
    table = LowerTable()  # filled by the lower bound now, and dropped with the scan
    for n in range(1, top + 1):
        for case, lhs, rhs, *verdict in checker(n, opts, table):
            yield IdentityCheck(name, n, case, lhs, rhs, verdict[0] if verdict else lhs == rhs)


class IdentitySummary(NamedTuple):
    name: str
    checks: int
    failures: int
    first_failure: IdentityCheck | None

    @property
    def ok(self) -> bool:
        return self.failures == 0


def summarize_identity(name: str, limit: int, opts: CheckOptions = CheckOptions()) -> IdentitySummary:
    checks = 0
    failures = 0
    first: IdentityCheck | None = None
    for record in iter_identity_checks(name, limit, opts):
        checks += 1
        if not record.passed:
            failures += 1
            if first is None:
                first = record
    return IdentitySummary(name, checks, failures, first)
