"""Command-line interface: gen, verify, decompose, identities, classify, density.

Exit codes: 0 on success / all checks passing, 1 when a mathematical
defect is found (failed verification, failed identity, any
ArithmeticError), 2 on invalid input, every ValueError, a failed write
included.  main alone maps an exception, by its type, to its exit code
and one stderr line.  Every input bound (limit, N, m, n, r, bound) is
checked once, by the library function that sizes the work, so a command
only parses (every integer with _int), dispatches and writes.  Output is
CSV by default or JSON with --format json; big integer values are
serialized as decimal strings in JSON.  Each result is written once,
after it is computed, to stdout or to --out; an --out path that cannot
be opened for writing, the empty one included, exits 2.  A generator
flag counts as given even when its value is empty.  The small results
(verify, decompose, classify census and ab-over-scd, density) go through
one writer, _write, which calls csv or json.
identities --format writes its records one by one, each JSON record by
json.dumps, so JSON holds one record's dict at a time, as CSV holds one
row.  The streamed tables, gen's columns and classify rows, read their
values as text from a label buffer (partition.column_runs), with no int
per value, and are written byte for byte as csv.writer and
json.dump(indent=2) would write them.  gen's JSON runs are written as
they come, spelled as JSON lines; every numbered row, of gen's CSV and
of classify rows, is assembled one byte column at a time by _table.  No
column is held as a list, so gen --n 3 --h phi --limit 10**7 peaks at
25 MB in either format (fresh interpreter, 2-vCPU Xeon).

main reads a plainly well-formed argv itself (_read), from the one
table of flags each command has, so a valid call never imports argparse,
nor the gettext and locale modules that argparse's messages load.  Every
other argv (help, no command, an abbreviated flag, --flag=value, a
repeated flag, a value that starts with "-", every usage error) goes to
argparse, the one authority on help and errors.  build_parser builds a
fresh parser for each such argv, with all six subparsers; a subparser
adds its flags from the same table on its first parse, so the top-level
help builds none and a command's help or error builds its own alone.
Only the identities command and its flags import the identities module,
and with it dataclasses and inspect, so import beattylab.cli, the help
and the usage errors of the other commands load none of them (README,
"Start-up").
An argparse error (a bad type or choice, a missing flag, an unknown
subcommand) is a ValueError too, reported in one line without the usage
block; --help still prints the help and exits 0, and its text goes to
stdout through _output, so a failed write exits 2 as for any result.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
import sys
import types
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from . import partition, three_set
from .qfield import HALF_PHI_SQ, PHI, PHI_CUBED, PHI_SQ, QuadraticReal, SQRT2
from .three_set import ALL_PAIR_CLASSES, ROW_CLASSES

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


_QUOTED = 40  # an error line quotes a malformed value this long at most, a longer one by its length


def _int(text: str) -> int:
    """The argparse type of every integer flag: type=int's message for a short value, the length of a long one.

    A value past int()'s 4300 digits is not parsed (every size cap lies far
    below it), and a malformed value past _QUOTED characters is not echoed.
    Only a value that fails imports argparse, for its ArgumentTypeError.
    """
    if len(text) <= 4300:
        try:
            return int(text)
        except ValueError:
            pass
    import argparse

    if len(text) <= _QUOTED:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    raise argparse.ArgumentTypeError(f"invalid int value of {len(text)} characters")


def _int_list(text: str) -> tuple[int, ...]:
    """The argparse type of a comma list of integers, each read by _int."""
    return tuple(map(_int, text.split(",")))


def _parse_alpha(text: str) -> QuadraticReal:
    if text in ALPHA_NAMES:
        return ALPHA_NAMES[text]
    parts = text.split(",")
    if len(parts) not in (3, 4):
        shown = repr(text) if len(text) <= _QUOTED else f"a value of {len(text)} characters"
        raise ValueError(f"alpha must be one of {sorted(ALPHA_NAMES)} or p,q,d[,radicand], got {shown}")
    try:
        numbers = [_int(p) for p in parts]
    except Exception as exc:  # _int raises only argparse.ArgumentTypeError, loaded by the failure
        raise ValueError(f"alpha component: {exc}") from None
    radicand = numbers[3] if len(numbers) == 4 else 5
    try:
        return QuadraticReal(numbers[0], numbers[1], numbers[2], radicand)
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from exc


def _resolve_spec(args) -> partition.PartitionSpec:
    chosen = [name for name in ("h", "alpha", "explicit") if getattr(args, name, None) is not None]
    if len(chosen) != 1:
        raise ValueError("exactly one of --h, --alpha, --explicit is required")
    if args.h == "identity":
        return partition.identity_spec(args.n)
    if args.h == "phi":
        return partition.phi_spec(args.n)
    if args.alpha is not None:
        return partition.PartitionSpec(args.n, _parse_alpha(args.alpha))
    return partition.PartitionSpec(args.n, _read_explicit(args.explicit))


def _read_explicit(path: str) -> list[int]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read explicit generator file: {exc}") from exc
    tokens = text.replace(",", " ").split()
    values: list[int] = []
    try:
        values.extend(map(int, tokens))
    except ValueError as exc:
        bad = tokens[len(values)]  # extend keeps the values read before the bad token
        reason = exc if len(bad) <= _QUOTED else f"invalid int value of {len(bad)} characters"
        raise ValueError(f"explicit generator file must contain integers: {reason}") from None
    return values


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """Where a computed result goes: the --out file, closed after the with-block, or stdout, flushed and left open.

    Commands call it only once their result is computed, so a run that
    fails before that writes nothing and creates no file.  A write that
    fails is a ValueError too; on stdout it first points fd 1 at
    os.devnull, so that the interpreter's flush at exit cannot fail again.
    """
    try:
        fh = open(out, "w") if out is not None else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(f"cannot write --out file: {exc}") from exc
    try:
        with fh as stream:
            yield stream
            stream.flush()
    except OSError as exc:
        if out is None:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise ValueError(f"cannot write output: {exc}") from exc


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


def _write_json_list(fh: TextIO, items: Iterable[object]) -> None:
    """json.dump(list(items), fh, indent=2) and a newline, with one item's text held at a time.

    json.dumps escapes every newline inside a string, so indenting an
    item's lines by two spaces nests it one level down.
    """
    lead = "["
    for item in items:
        fh.write(lead + "\n  " + json.dumps(item, indent=2).replace("\n", "\n  "))
        lead = ","
    fh.write("\n]\n" if lead == "," else "[]\n")


def _frequency_string(count: int, total: int) -> str:
    """count/total rounded down to 12 decimals."""
    scaled = count * 10**12 // total
    return f"{scaled // 10**12}.{scaled % 10**12:012d}"


# -- subcommands ---------------------------------------------------------------


def _cmd_gen(args) -> int:
    spec = _resolve_spec(args)
    labels = partition.column_labels(spec, args.limit)
    with _output(args.out) as fh:
        if args.format == "json":
            _write_json_columns(fh, spec, args.limit, labels)
        else:
            _write_csv_columns(fh, labels, spec.n)
    return EXIT_OK


# gen and classify rows write their tables without csv or json: every value is
# a decimal int or an A/B letter, which csv (QUOTE_MINIMAL) never quotes and
# JSON never escapes, so the bytes are those of csv.writer and json.dump(indent=2).
_JSON_ROW = b',\n  {\n    "k": %s,\n    "s": "%s",\n    "c": "%s",\n    "d": "%s",\n    "class": "%s%s%s"\n  }'


@functools.cache
def _place_pattern(p: int) -> bytes:
    """The digit at 10**p of k = 0, 1, 2, ...: period 10**(p + 1), long enough to slice a run's rows from any offset."""
    return b"".join(b"%d" % d * 10**p for d in range(10)) * (partition._RUN // 10 ** (p + 1) + 2)


def _k_place(k: int, rows: int, p: int) -> bytes:
    """The digit at 10**p of each row number k to k + rows - 1, for rows <= partition._RUN.

    That digit runs through 0-9, each held for 10**p rows: a slice of its
    periodic pattern while 10**p < partition._RUN, and past that one change at most.
    """
    if 10**p < partition._RUN:
        start = k % 10 ** (p + 1)
        return _place_pattern(p)[start : start + rows]
    d = k // 10**p % 10
    first = min(rows, 10**p - k % 10**p)
    return b"%d" % d * first + b"%d" % ((d + 1) % 10) * (rows - first)


def _table(row: bytes, columns: list[Iterator[str]], count: int, planes: Sequence[bytes] = ()) -> Iterator[str]:
    """The rows row % (k, v1, ..., letters) for k = 1 to count, or until a column runs out, as text.

    vi is the next line of columns[i], a partition.column_runs stream, less
    its newline; each letter is byte k - 1 of a plane.  A segment ends where
    k gains a digit or a run ends, so its rows share one layout: a bytearray
    of copies of it takes each byte column by one extended-slice assignment.
    """
    runs = [[b"", 1, 0] for _ in columns]  # each column's run, the bytes of its lines, where its next line starts
    k = 1
    while k <= count:
        for run, column in zip(runs, columns):
            if run[2] == len(run[0]):
                if (text := next(column, None)) is None:
                    return
                run[:] = text.encode(), text.index("\n") + 1, 0
        digits = len(str(k))
        rows = min(count + 1 - k, 10**digits - k, partition._RUN, *[(len(r) - at) // n for r, n, at in runs])
        starts, layout = _layout(row, (digits, *[n - 1 for _, n, _ in runs], *[1] * len(planes)))
        out = bytearray(layout) * rows
        for c in range(digits):
            out[starts[0] + c :: len(layout)] = _k_place(k, rows, digits - 1 - c)
        for run, start in zip(runs, starts[1:]):
            data, line, at = run
            run[2] += rows * line
            for c in range(line - 1):
                out[start + c :: len(layout)] = data[at + c : run[2] : line]
        for plane, start in zip(planes, starts[1 + len(runs) :]):
            out[start :: len(layout)] = plane[k - 1 : k - 1 + rows]
        yield out.decode()
        k += rows


@functools.cache
def _layout(row: bytes, widths: tuple[int, ...]) -> tuple[tuple[int, ...], bytes]:
    """Where each field of row starts when the fields are widths bytes wide, and row with every field zeros."""
    pieces = row.split(b"%s")
    starts = tuple(sum(map(len, pieces[: i + 1])) + sum(widths[:i]) for i in range(len(widths)))
    return starts, row % tuple(b"0" * width for width in widths)


def _write_csv_columns(fh: TextIO, labels: bytearray, n: int) -> None:
    """The csv table column,k,value with one row per value labelled 1 to n."""
    fh.write("column,k,value\n")
    for j in range(1, n + 1):
        fh.writelines(_table(b"%d,%%s,%%s\n" % j, [partition.column_runs(labels, j)], len(labels)))


def _write_json_columns(fh: TextIO, spec: partition.PartitionSpec, limit: int, labels: bytearray) -> None:
    """The indented JSON object {n, generator, limit, columns}, values as decimal strings.

    column_runs spells each value as its JSON line ',\n      "v"', so the
    runs are written as they come; only a column's first run swaps its
    leading comma for the opening bracket.
    """
    head = {"n": spec.n, "generator": spec.describe(), "limit": limit}
    fh.write("{\n" + "".join(f"  {json.dumps(key)}: {json.dumps(value)},\n" for key, value in head.items()))
    fh.write('  "columns": [')
    separator = "\n    "
    for j in range(1, spec.n + 1):
        fh.write(separator)
        runs = partition.column_runs(labels, j, ',\n      "%s"')
        first = next(runs, None)
        if first is None:
            fh.write("[]")
        else:
            fh.write("[" + first[1:])
            for run in runs:
                fh.write(run)
            fh.write("\n    ]")
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
    from . import identities

    names = [args.identity] if args.identity else identities.identity_names()
    opts = identities.CheckOptions(args.r, args.bound, 1 if args.inject_off_by_one else 0)
    if args.format:
        checks = [check for name in names for check in identities.iter_identity_checks(name, args.N, opts)]
        with _output(args.out) as fh:
            if args.format == "json":
                _write_json_list(fh, (check.to_json_dict() for check in checks))
            else:
                csv.writer(fh, lineterminator="\n").writerows(
                    chain(
                        [("identity", "n", "case", "lhs", "rhs", "pass")],
                        ((c.identity, c.n, c.case, str(c.lhs), str(c.rhs), c.passed) for c in checks),
                    )
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
        s, c, d, *planes = three_set.row_columns(args.N)
        with _output(args.out) as fh:
            if args.format == "json":
                rows = _table(_JSON_ROW, [s, c, d], args.N, planes)
                fh.write("[" + next(rows)[1:])  # N >= 1: drop the first row's separator
                fh.writelines(rows)
                fh.write("\n]\n")
            else:
                fh.write("k,s,c,d,s_class,c_class,d_class\n")
                fh.writelines(_table(b"%s,%s,%s,%s,%s,%s,%s\n", [s, c, d], args.N, planes))
        return EXIT_OK
    if args.what == "census":
        census = three_set.row_class_census(args.N)
        keys = ROW_CLASSES
    else:  # ab-over-scd
        census = three_set.ab_over_scd_census(args.N)
        keys = ALL_PAIR_CLASSES
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
    return EXIT_OK


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


# -- flags and parser ----------------------------------------------------------
#
# Each command's flags are one table, name -> the keywords of add_argument,
# in the order of the help text: build_parser adds them as they stand, and
# _read reads a well-formed argv by the same table, without argparse.


def _output_flags(default_format: str | None = "csv") -> dict[str, dict]:
    return {
        "--format": {"choices": ("csv", "json"), "default": default_format},
        "--out": {"help": "write output to this file instead of stdout"},
    }


def _spec_flags(size: str) -> dict[str, dict]:
    """The flags of a command on one partition: its generator, the integer flag size, the output."""
    return {
        "--n": {"type": _int, "required": True, "help": f"number of columns (2 to {partition.MAX_COLUMNS})"},
        "--h": {"choices": ("identity", "phi"), "help": "named step sequence"},
        "--alpha": {"help": "exact alpha: named constant or p,q,d[,radicand]"},
        "--explicit": {"help": "file with explicit first-column values"},
        size: {"type": _int, "required": True},
        **_output_flags(),
    }


def _identities_flags() -> dict[str, dict]:
    from . import identities

    default_rs = identities.CheckOptions().rs
    return {
        "--N": {"type": _int, "default": 1000, "help": f"scan indices 1..N, N at most {identities.MAX_N}"},
        "--identity": {"help": "run a single named identity"},
        "--r": {
            "type": _int_list,
            "default": default_rs,
            "help": f"comma list of odd shift indices up to {identities.FIB_INDEX_CAP}"
            f" (default {','.join(map(str, default_rs))})",
        },
        "--bound": {"type": _int, "help": f"search bound for the converse scan, 1 to {identities.CONVERSE_BOUND_CAP}"},
        "--inject-off-by-one": {
            "action": "store_true",
            "default": False,
            "help": "test mode: perturb the direct side of the grid check by +1",
        },
        **_output_flags(None),
    }


def _index_flags() -> dict[str, dict]:
    return {"--N": {"type": _int, "required": True}, **_output_flags()}


def _classify_flags() -> dict[str, dict]:
    return {"what": {"choices": ("rows", "census", "ab-over-scd")}, **_index_flags()}


# name -> (help, flags, handler), in the order of the help text
_COMMANDS = {
    "gen": ("dump partition columns up to a limit", functools.partial(_spec_flags, "--limit"), _cmd_gen),
    "verify": ("brute-force cover/disjointness check", functools.partial(_spec_flags, "--limit"), _cmd_verify),
    "decompose": ("invert the partition map for one integer", functools.partial(_spec_flags, "--m"), _cmd_decompose),
    "identities": ("run the exact identity suite", _identities_flags, _cmd_identities),
    "classify": ("row classes and membership censuses", _classify_flags, _cmd_classify),
    "density": ("desk-scale density measurements", _index_flags, _cmd_density),
}


def _read(argv: list[str]) -> types.SimpleNamespace | None:
    """What build_parser().parse_args(argv) returns, for a plainly well-formed argv; None for any other.

    argv[0] names a command.  Each later token is one of its flags by exact
    name, at most once, with a value that does not start with "-" (a
    store_true flag takes none), or the value of its positional.  Every
    required flag is given, and every value passes its type and choices.
    Help, abbreviations, --flag=value, repeats and every usage error are
    left to argparse, the one authority on them.
    """
    flags = _COMMANDS[argv[0]][1]()
    positional = next((name for name in flags if not name.startswith("-")), None)
    given: dict[str, str | None] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, text = (token, None) if token.startswith("-") else (positional, token)
        if name not in flags or name in given:
            return None
        if text is None and flags[name].get("action") != "store_true":
            text = next(tokens, "-")
            if text.startswith("-"):
                return None
        given[name] = text
    args = types.SimpleNamespace(command=argv[0])
    for name, keywords in flags.items():
        if name not in given:
            if keywords.get("required") or name == positional:
                return None
            value = keywords.get("default")
        elif given[name] is None:  # a store_true flag
            value = True
        else:
            try:
                value = keywords.get("type", str)(given[name])
            except Exception:  # _int's ArgumentTypeError: argparse calls the type again and reports it
                return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        setattr(args, name.lstrip("-").replace("-", "_"), value)
    return args


def build_parser() -> argparse.ArgumentParser:
    """A fresh beatty-lab parser with every subparser; a subparser's first parse adds its flags from its table."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An ArgumentParser, and the class of its subparsers, whose usage errors raise ValueError."""

        flags: Callable[[], dict[str, dict]] | None = None  # the table, added on the first parse

        def error(self, message: str):
            raise ValueError(message)

        def parse_known_args(self, args=None, namespace=None):
            if self.flags:
                flags, self.flags = self.flags, None
                for name, keywords in flags().items():
                    self.add_argument(name, **keywords)
            return super().parse_known_args(args, namespace)

        def _print_message(self, message, file=None):
            # the help goes to stdout through _output, so a failed write exits 2
            if message and file is sys.stdout:
                with _output(None) as fh:
                    fh.write(message)
            else:
                super()._print_message(message, file)

    parser = _Parser(
        prog="beatty-lab",
        description="Exact Beatty/Wythoff sequence partitions, identities and censuses.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in _COMMANDS.items():
        subparsers.add_parser(name, help=help_text).flags = flags
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read(argv) if argv and argv[0] in _COMMANDS else None
        if args is None:
            args = build_parser().parse_args(argv)
        return _COMMANDS[args.command][2](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"mathematical defect: {exc}", file=sys.stderr)
        return EXIT_DEFECT


if __name__ == "__main__":
    raise SystemExit(main())
