"""Command-line interface: gen, verify, decompose, identities, classify, density.

Exit codes: 0 on success / all checks passing, 1 when a mathematical
defect is found (failed verification, failed identity, inadmissible
census class, any ArithmeticError), 2 on invalid input: every
ValueError.  main alone maps an exception, by its type, to its exit
code and one stderr line.  Every input bound (limit, N, m, n, r, bound)
is checked once, by the library function that sizes the work, so a
command only parses (every integer with _int), dispatches and writes.
Output is CSV by default or JSON with --format json; big integer values
are serialized as decimal strings in JSON.  Each result is written once, after it is
computed, to stdout or to --out; an --out path that cannot be opened
for writing exits 2.  The small results (verify, decompose,
identities --format, classify census and ab-over-scd, density) go
through one writer, _write, which calls csv or json.  The streamed tables, gen's columns and classify rows, are read
straight from their label buffers and formatted 4000 values or rows per
% template, byte for byte what csv.writer and json.dump(indent=2) would
write; a row number k is spelled by the template, not formatted by %.
No column is held as a list, so gen --n 3 --h phi --limit 10**7 peaks
at 26 MB in either format (fresh interpreter, 2-vCPU Xeon).

main parses with one argparse parser per process: build_parser is
cached, and parse_args reads the parser without changing it, so a later
call in the same process, after a usage error too, behaves like a fresh
one without rebuilding it (about 1.8 ms per call, 2-vCPU Xeon).  An
argparse error (a bad type or choice, a missing flag, an unknown
subcommand) is a ValueError too, reported in one line without the usage
block; --help still prints the help and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, TextIO

from . import identities, partition, three_set
from .qfield import HALF_PHI_SQ, PHI, PHI_CUBED, PHI_SQ, QuadraticReal, SQRT2
from .three_set import ADMISSIBLE_ROW_CLASSES, ALL_PAIR_CLASSES

ALPHA_NAMES = {
    "phi": PHI,
    "phi2": PHI_SQ,
    "phi3": PHI_CUBED,
    "phi2/2": HALF_PHI_SQ,
    "sqrt2": SQRT2,
}

EXIT_OK = 0
EXIT_DEFECT = 1
EXIT_USAGE = 2


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, whose usage errors raise ValueError."""

    def error(self, message: str):
        raise ValueError(message)


def _int(text: str) -> int:
    """The argparse type of every integer flag: type=int's message, with no echo past int()'s 4300 digits."""
    if len(text) > 4300:  # every size cap lies far below it
        raise argparse.ArgumentTypeError(f"invalid int value of {len(text)} characters")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _int_list(text: str) -> tuple[int, ...]:
    """The argparse type of a comma list of integers, each read by _int."""
    return tuple(map(_int, text.split(",")))


def _parse_alpha(text: str) -> QuadraticReal:
    if text in ALPHA_NAMES:
        return ALPHA_NAMES[text]
    parts = text.split(",")
    if len(parts) not in (3, 4):
        raise ValueError(
            f"alpha must be one of {sorted(ALPHA_NAMES)} or p,q,d[,radicand], got {text!r}"
        )
    try:
        numbers = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"non-integer component in alpha tuple {text!r}") from exc
    radicand = numbers[3] if len(numbers) == 4 else 5
    try:
        return QuadraticReal(numbers[0], numbers[1], numbers[2], radicand)
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from exc


def _resolve_spec(args) -> partition.PartitionSpec:
    chosen = [name for name in ("h", "alpha", "explicit") if getattr(args, name, None)]
    if len(chosen) != 1:
        raise ValueError("exactly one of --h, --alpha, --explicit is required")
    if args.h == "identity":
        return partition.identity_spec(args.n)
    if args.h == "phi":
        return partition.phi_spec(args.n)
    if args.alpha:
        return partition.PartitionSpec(args.n, _parse_alpha(args.alpha))
    return partition.PartitionSpec(args.n, _read_explicit(args.explicit))


def _read_explicit(path: str) -> list[int]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read explicit generator file: {exc}") from exc
    try:
        return [int(token) for token in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"explicit generator file must contain integers: {exc}") from exc


def _output(out: str | None) -> contextlib.AbstractContextManager[TextIO]:
    """Where a computed result goes: the --out file, or stdout left open after the with-block.

    Commands call it only once their result is computed, so a run that
    fails before that writes nothing and creates no file.
    """
    if not out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w")
    except OSError as exc:
        raise ValueError(f"cannot write --out file: {exc}") from exc


def _write(args, payload: Callable[[], object], rows: Iterable[Iterable]) -> None:
    """Write a small result to stdout or --out in args.format.

    JSON is payload() as json.dump(indent=2) writes it plus a newline; CSV
    is rows, the header first, through csv.writer.  payload is called only
    for JSON, so a CSV run never builds the JSON objects.
    """
    with _output(args.out) as fh:
        if args.format == "json":
            json.dump(payload(), fh, indent=2)
            fh.write("\n")
        else:
            csv.writer(fh, lineterminator="\n").writerows(rows)


def _frequency_string(count: int, total: int) -> str:
    """count/total rounded down to 12 decimals."""
    scaled = count * 10**12 // total
    return f"{scaled // 10**12}.{scaled % 10**12:012d}"


# -- subcommands ---------------------------------------------------------------


def _cmd_gen(args) -> int:
    spec = _resolve_spec(args)
    labels = partition.column_labels(spec, args.limit)
    columns = (partition.column_values(labels, j) for j in range(1, spec.n + 1))
    with _output(args.out) as fh:
        if args.format == "json":
            _write_json_columns(fh, spec, args.limit, columns)
        else:
            _write_csv_columns(fh, columns)
    return EXIT_OK


# gen and classify rows format one % per chunk of values instead of csv or
# json: every value is a decimal int or an A/B row class, which csv
# (QUOTE_MINIMAL) never quotes and JSON never escapes, so the bytes are those
# of csv.writer and json.dump(indent=2).  A numbered row template holds _K
# where its row number k goes; k itself is never formatted by %.
_CHUNK = 4000  # rows or values per % call; _numbered needs a multiple of ten
_K = "\0"
_CSV_ROW = _K + ",%d,%d,%d,%s\n"
_CSV_CLASSES = {s + c + d: f"{s},{c},{d}" for s in "AB" for c in "AB" for d in "AB"}
_JSON_ROW = ',\n  {\n    "k": ' + _K + ',\n    "s": "%d",\n    "c": "%d",\n    "d": "%d",\n    "class": "%s"\n  }'


def _chunks(values: Iterator) -> Iterator[tuple]:
    """values in tuples of _CHUNK, the last one shorter."""
    while chunk := tuple(islice(values, _CHUNK)):
        yield chunk


def _numbered(row: str, width: int, values: Iterator) -> Iterator[str]:
    """row formatted for k = 1, 2, ... with the next width values each, until values run out.

    Rows 10q to 10q + 9 come from one ten-row template, row with _K + d in
    place of _K, by one replace of _K with the digits of q; q = 0 has no
    digits and no row 0.  So the text of k takes one str per ten rows.
    """
    tens = [row.replace(_K, _K + str(d)) for d in range(10)]
    ten = "".join(tens)
    head = tuple(islice(values, 9 * width))
    yield "".join(tens[1 : 1 + len(head) // width]).replace(_K, "") % head
    q = 1
    while chunk := tuple(islice(values, _CHUNK * width)):
        full, part = divmod(len(chunk) // width, 10)
        template = "".join([ten.replace(_K, str(p)) for p in range(q, q + full)])
        yield (template + "".join(tens[:part]).replace(_K, str(q + full))) % chunk
        q += full


def _write_csv_columns(fh: TextIO, columns: Iterable[Iterator[int]]) -> None:
    """The csv table column,k,value with one row per column value."""
    fh.write("column,k,value\n")
    for j, values in enumerate(columns, start=1):
        fh.writelines(_numbered(f"{j},{_K},%d\n", 1, values))


def _write_json_columns(
    fh: TextIO, spec: partition.PartitionSpec, limit: int, columns: Iterable[Iterator[int]]
) -> None:
    """The indented JSON object {n, generator, limit, columns}, values as decimal strings."""
    head = {"n": spec.n, "generator": spec.describe(), "limit": limit}
    fh.write("{\n" + "".join(f"  {json.dumps(key)}: {json.dumps(value)},\n" for key, value in head.items()))
    fh.write('  "columns": [')
    separator = "\n    "
    for values in columns:
        fh.write(separator)
        lead = "["
        for chunk in _chunks(values):
            fh.write(lead)
            fh.write(('\n      "%d",' * len(chunk))[:-1] % chunk)
            lead = ","
        fh.write("\n    ]" if lead == "," else "[]")
        separator = ",\n    "
    fh.write("\n  ]\n}\n")


def _cmd_verify(args) -> int:
    spec = _resolve_spec(args)
    report = partition.verify_partition(spec, args.limit)
    record = report.to_json_dict()
    # CSV: the same record as one row under its keys; None is written as ""
    _write(args, lambda: record, [record.keys(), record.values()])
    return EXIT_OK if report.ok else EXIT_DEFECT


def _cmd_decompose(args) -> int:
    dec = partition.decompose(args.m, _resolve_spec(args))
    signs = "".join("+" if e > 0 else "-" for e in dec.signs)
    _write(
        args,
        lambda: {"m": str(args.m), "column": dec.column, "k": dec.index, "signs": list(dec.signs)},
        [("m", "column", "k", "signs"), (args.m, dec.column, dec.index, signs)],
    )
    return EXIT_OK


def _cmd_identities(args) -> int:
    names = [args.identity] if args.identity else identities.identity_names()
    opts = identities.CheckOptions(args.r, args.bound, 1 if args.inject_off_by_one else 0)
    if args.format:
        checks = [check for name in names for check in identities.iter_identity_checks(name, args.N, opts)]
        _write(
            args,
            lambda: [check.to_json_dict() for check in checks],
            chain(
                [("identity", "n", "case", "lhs", "rhs", "pass")],
                ((c.identity, c.n, c.case, str(c.lhs), str(c.rhs), c.passed) for c in checks),
            ),
        )
        return EXIT_OK if all(check.passed for check in checks) else EXIT_DEFECT
    lines = [f"{'identity':24} {'checks':>8} {'failed':>8}  first failure"]
    any_failed = False
    for name in names:
        summary = identities.summarize_identity(name, args.N, opts)
        detail = "-"
        if summary.first_failure is not None:
            any_failed = True
            ff = summary.first_failure
            detail = f"n={ff.n} {ff.case} lhs={ff.lhs} rhs={ff.rhs}"
        lines.append(f"{summary.name:24} {summary.checks:>8} {summary.failures:>8}  {detail}")
    verdict = "FAIL" if any_failed else "PASS"
    lines.append(f"overall: {verdict} (N={args.N})")
    with _output(args.out) as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_DEFECT if any_failed else EXIT_OK


def _cmd_classify(args) -> int:
    if args.what == "rows":
        s, c, d, codes = three_set.row_columns(args.N)
        with _output(args.out) as fh:
            if args.format == "json":
                objects = _numbered(_JSON_ROW, 4, chain.from_iterable(zip(s, c, d, codes)))
                fh.write("[" + next(objects)[1:])  # N >= 1: drop the first row's separator
                fh.writelines(objects)
                fh.write("\n]\n")
            else:
                classes = map(_CSV_CLASSES.__getitem__, codes)
                fh.write("k,s,c,d,s_class,c_class,d_class\n")
                fh.writelines(_numbered(_CSV_ROW, 4, chain.from_iterable(zip(s, c, d, classes))))
        return EXIT_OK
    if args.what == "census":
        census = three_set.row_class_census(args.N)
        keys = three_set.row_class_keys(census.counts)
        admissible = set(census.counts) <= ADMISSIBLE_ROW_CLASSES
    else:  # ab-over-scd
        census = three_set.ab_over_scd_census(args.N)
        keys = list(ALL_PAIR_CLASSES)
        admissible = True
    rows = [(key, census.counts.get(key, 0), census.first_index.get(key)) for key in keys]
    _write(
        args,
        lambda: {
            "N": args.N,
            "classes": [
                {"class": key, "count": count, "frequency": {"num": count, "den": census.total}, "first_k": first}
                for key, count, first in rows
            ],
        },
        [("class", "count", "frequency", "first_k")]
        + [(key, count, _frequency_string(count, census.total), first) for key, count, first in rows],
    )
    return EXIT_OK if admissible else EXIT_DEFECT


def _cmd_density(args) -> int:
    report = three_set.density_report(args.N)
    _write(
        args,
        lambda: {
            "N": args.N,
            "densities": [
                {
                    "name": e.name,
                    "count": e.count,
                    "frequency": {"num": e.count, "den": e.total},
                    "expected": None if e.expected is None else e.expected.to_json_dict(),
                    "status": e.status,
                }
                for e in report.entries
            ],
        },
        [("name", "count", "total", "frequency", "expected", "status")]
        + [(e.name, e.count, e.total, _frequency_string(e.count, e.total), e.expected, e.status) for e in report.entries],
    )
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _add_generator_flags(sub) -> None:
    sub.add_argument("--n", type=_int, required=True, help=f"number of columns (2 to {partition.MAX_COLUMNS})")
    sub.add_argument("--h", choices=("identity", "phi"), help="named step sequence")
    sub.add_argument("--alpha", help="exact alpha: named constant or p,q,d[,radicand]")
    sub.add_argument("--explicit", help="file with explicit first-column values")


def _add_output_flags(sub, default_format: str | None = "csv") -> None:
    sub.add_argument("--format", choices=("csv", "json"), default=default_format)
    sub.add_argument("--out", help="write output to this file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The beatty-lab parser, built once per process: parse_args leaves it unchanged."""
    parser = _Parser(
        prog="beatty-lab",
        description="Exact Beatty/Wythoff sequence partitions, identities and censuses.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gen = subparsers.add_parser("gen", help="dump partition columns up to a limit")
    _add_generator_flags(gen)
    gen.add_argument("--limit", type=_int, required=True)
    _add_output_flags(gen)

    verify = subparsers.add_parser("verify", help="brute-force cover/disjointness check")
    _add_generator_flags(verify)
    verify.add_argument("--limit", type=_int, required=True)
    _add_output_flags(verify)

    dec = subparsers.add_parser("decompose", help="invert the partition map for one integer")
    _add_generator_flags(dec)
    dec.add_argument("--m", type=_int, required=True)
    _add_output_flags(dec)

    idn = subparsers.add_parser("identities", help="run the exact identity suite")
    idn.add_argument("--N", type=_int, default=1000, help=f"scan indices 1..N, N at most {identities.MAX_N}")
    idn.add_argument("--identity", help="run a single named identity")
    default_rs = identities.CheckOptions().rs
    idn.add_argument(
        "--r",
        type=_int_list,
        default=default_rs,
        help=f"comma list of odd shift indices up to {identities.FIB_INDEX_CAP}"
        f" (default {','.join(map(str, default_rs))})",
    )
    idn.add_argument(
        "--bound",
        type=_int,
        help=f"search bound for the converse scan, 1 to {identities.CONVERSE_BOUND_CAP}",
    )
    idn.add_argument(
        "--inject-off-by-one",
        action="store_true",
        help="test mode: perturb the direct side of the grid check by +1",
    )
    _add_output_flags(idn, default_format=None)

    cls = subparsers.add_parser("classify", help="row classes and membership censuses")
    cls.add_argument("what", choices=("rows", "census", "ab-over-scd"))
    cls.add_argument("--N", type=_int, required=True)
    _add_output_flags(cls)

    den = subparsers.add_parser("density", help="desk-scale density measurements")
    den.add_argument("--N", type=_int, required=True)
    _add_output_flags(den)

    return parser


_DISPATCH = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "decompose": _cmd_decompose,
    "identities": _cmd_identities,
    "classify": _cmd_classify,
    "density": _cmd_density,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"mathematical defect: {exc}", file=sys.stderr)
        return EXIT_DEFECT


if __name__ == "__main__":
    raise SystemExit(main())
