"""The beatty-lab command line: formats, exit codes, determinism."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import chain
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattylab import identities, partition, three_set
from beattylab.cli import _COMMANDS, ALPHA_NAMES, _parse_alpha, _read, _table, _write_json_list, build_parser, main
from beattylab.qfield import QuadraticReal
import oracles
from test_cli_golden import EMPTY, HELP, _digest

EXPECTED_TABLE_GEN = """\
column,k,value
1,1,4
1,2,11
1,3,15
1,4,22
1,5,29
1,6,33
"""

EXPECTED_TABLE_CLASSES = """\
k,s,c,d,s_class,c_class,d_class
1,1,2,4,A,B,A
2,3,6,11,A,A,A
3,5,9,15,B,A,B
4,7,13,22,B,B,A
5,8,17,29,A,A,A
6,10,20,33,B,B,A
"""


SRC = str(Path(partition.__file__).resolve().parents[1])


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter that imports beattylab from this checkout."""
    code = f"import sys\nsys.path.insert(0, {SRC!r})\n" + code
    return subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True).stdout


def _no_work(*args):
    raise AssertionError("a rejected argument must stop the command before any work")


def _no_checkers(monkeypatch) -> None:
    """Make every identity checker fail the test if it runs."""
    for name, definition in identities.IDENTITIES.items():
        monkeypatch.setitem(identities.IDENTITIES, name, dataclasses.replace(definition, checker=_no_work))


class TestGen:
    def test_phi_table(self, run_cli):
        code, out, _ = run_cli("gen", "--n", "3", "--h", "phi", "--limit", "33")
        assert code == 0
        assert out.startswith(EXPECTED_TABLE_GEN)
        assert "2,9,31\n" in out  # last second-column value within the limit

    def test_identity_columns(self, run_cli):
        code, out, _ = run_cli("gen", "--n", "3", "--h", "identity", "--limit", "12")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        columns = {}
        for column, _, value in rows:
            columns.setdefault(column, []).append(int(value))
        assert columns == {"1": [4, 8, 12], "2": [2, 6, 10], "3": [1, 3, 5, 7, 9, 11]}

    def test_sqrt2_columns(self, run_cli):
        code, out, _ = run_cli("gen", "--n", "2", "--alpha", "sqrt2", "--limit", "12")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        first = [int(v) for c, _, v in rows if c == "1"]
        assert first == [2, 4, 7, 9, 12]

    def test_raw_alpha_tuple_matches_named(self, run_cli):
        code, out_named, _ = run_cli("gen", "--n", "3", "--h", "phi", "--limit", "33")
        code2, out_raw, _ = run_cli("gen", "--n", "3", "--alpha", "1,1,2", "--limit", "33")
        assert code == code2 == 0
        assert out_named == out_raw

    def test_json_serializes_values_as_strings(self, run_cli):
        code, out, _ = run_cli("gen", "--n", "3", "--h", "phi", "--limit", "33", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["generator"] == "h=phi"
        assert payload["columns"][0] == ["4", "11", "15", "22", "29", "33"]

    def test_generator_violation_exits_2(self, run_cli, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("4\n9\n12\n")
        code, out, err = run_cli("gen", "--n", "3", "--explicit", str(bad), "--limit", "10")
        assert code == 2 and out == ""
        assert err == "error: generator violation: gap l(2) - l(1) = 5 not in [4, 6, 7]\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_explicit_list_exits_2(self, run_cli, tmp_path, fmt):
        # an empty list has no l(1) = 2**(n-1)
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        target = tmp_path / f"cols.{fmt}"
        argv = ("gen", "--n", "3", "--explicit", str(empty), "--limit", "10", "--format", fmt)
        code, out, err = run_cli(*argv, "--out", str(target))
        assert code == 2 and out == ""
        assert "l(1)" in err
        assert not target.exists()
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""

    def test_violation_past_the_limit_exits_2(self, run_cli, tmp_path):
        late = tmp_path / "late.txt"
        late.write_text("4 11 15 22 29 33 30")
        code, out, err = run_cli("gen", "--n", "3", "--explicit", str(late), "--limit", "12")
        assert code == 2 and out == ""
        assert "l(7)" in err
        # verify measures the same data as given: the bad term shows only once it is in range
        code, _, _ = run_cli("verify", "--n", "3", "--explicit", str(late), "--limit", "12")
        assert code == 0
        code, out, _ = run_cli("verify", "--n", "3", "--explicit", str(late), "--limit", "40")
        assert code == 1
        assert out.strip().endswith("False,False,27")

    def test_flag_conflicts_exit_2(self, run_cli):
        code, _, err = run_cli("gen", "--n", "3", "--h", "phi", "--alpha", "sqrt2", "--limit", "5")
        assert code == 2
        code, _, _ = run_cli("gen", "--n", "3", "--limit", "5")
        assert code == 2

    def test_bad_alpha_exits_2(self, run_cli):
        code, _, _ = run_cli("gen", "--n", "2", "--alpha", "nonsense", "--limit", "5")
        assert code == 2
        code, _, _ = run_cli("gen", "--n", "2", "--alpha", "1,1", "--limit", "5")
        assert code == 2
        # phi^3 is a fine constant but too large for a step sequence
        code, _, _ = run_cli("gen", "--n", "2", "--alpha", "phi3", "--limit", "5")
        assert code == 2

    @pytest.mark.parametrize(
        "alpha, message",
        [
            ("x" * 300, f"alpha must be one of {sorted(ALPHA_NAMES)} or p,q,d[,radicand], got a value of 300 characters"),
            ("x" * 40, f"alpha must be one of {sorted(ALPHA_NAMES)} or p,q,d[,radicand], got '{'x' * 40}'"),
            # each component is read like every integer flag
            (f"1,1,2,{'9' * 5000}", "alpha component: invalid int value of 5000 characters"),
            (f"1,{'x' * 41},2", "alpha component: invalid int value of 41 characters"),
            ("1,x,2", "alpha component: invalid int value: 'x'"),
            # components that int() reads make an alpha out of range, or a bad radicand
            (f"{10**4000},0,1", "alpha must satisfy 1 <= alpha < 2, got a value of 4001 characters"),
            (f"1,1,2,-{10**4000}", "radicand must be a non-square integer >= 2, got a value of 4002 characters"),
            ("3,0,1", "alpha must satisfy 1 <= alpha < 2, got 3"),
        ],
        ids=["300 x's", "40 x's", "5000-digit radicand", "41-character q", "q x", "4001-digit p", "negative radicand", "3"],
    )
    def test_alpha_errors_take_one_short_line(self, run_cli, alpha, message):
        code, out, err = run_cli("gen", "--n", "3", "--alpha", alpha, "--limit", "5")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert len(err.encode()) < 200

    @pytest.mark.parametrize(
        "token, reason",
        [
            ("x" * 500, "invalid int value of 500 characters"),
            ("1" + "0" * 4999, "invalid int value of 5000 characters"),
            ("x" * 40, f"invalid literal for int() with base 10: '{'x' * 40}'"),
        ],
        ids=["500 x's", "5000 digits", "40 x's"],
    )
    def test_explicit_errors_take_one_short_line(self, run_cli, tmp_path, token, reason):
        # the first token int() refuses is named, not the 4401-character one before it that int() reads
        path = tmp_path / "terms.txt"
        path.write_text(f"4 {'1_' * 2200}1 {token} 11\n")
        code, out, err = run_cli("gen", "--n", "3", "--explicit", str(path), "--limit", "5")
        assert (code, out, err) == (2, "", f"error: explicit generator file must contain integers: {reason}\n")
        assert len(err.encode()) < 200

    def test_rational_alpha_with_square_radicand(self, run_cli):
        # q = 0 makes the radicand irrelevant: 7,0,4,4 is the rational 7/4
        assert _parse_alpha("7,0,4,4") == QuadraticReal(7, 0, 4)
        code, out_square, err = run_cli("gen", "--n", "2", "--alpha", "7,0,4,4", "--limit", "20")
        code2, out_default, _ = run_cli("gen", "--n", "2", "--alpha", "7,0,4", "--limit", "20")
        assert code == code2 == 0, err
        assert out_square == out_default

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_stays_below_the_columns(self, tmp_path, fmt):
        # the labels take one byte per value; the 10**5 values as lists of ints take about 3.6 MiB
        target = tmp_path / f"cols.{fmt}"
        tracemalloc.start()
        try:
            code = main(
                ["gen", "--n", "3", "--h", "phi", "--limit", "100000", "--format", fmt, "--out", str(target)]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 2**20, peak

    def test_out_file(self, run_cli, tmp_path):
        target = tmp_path / "cols.csv"
        code, out, _ = run_cli("gen", "--n", "3", "--h", "phi", "--limit", "33", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith(EXPECTED_TABLE_GEN)


class TestVerify:
    def test_valid_spec_exits_0(self, run_cli):
        code, out, _ = run_cli("verify", "--n", "3", "--h", "phi", "--limit", "2000")
        assert code == 0
        assert "True,True" in out

    def test_corrupt_generator_exits_1(self, run_cli, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("4 9 12 19")
        code, out, _ = run_cli("verify", "--n", "3", "--explicit", str(bad), "--limit", "10")
        assert code == 1
        assert out.strip().endswith("6")

    def test_empty_explicit_list_exits_1(self, run_cli, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        argv = ("verify", "--n", "3", "--explicit", str(empty), "--limit", "10", "--format", "json")
        code, out, _ = run_cli(*argv)
        assert code == 1
        assert json.loads(out)["first_defect"] == "1"

    @pytest.mark.parametrize("n, copies", [(4, 20), (6, 3)])
    def test_crowded_explicit_list_exits_2_before_any_labels(self, run_cli, tmp_path, monkeypatch, n, copies):
        # copies of l(1) = 2**(n-1) at limit 2**n - 1 put every value of the
        # range in every term's interval: copies * limit values against a bound
        # of 2 * limit, reached by no list whose gaps are at least 2**(n-1)
        limit = 2**n - 1
        crowded = tmp_path / "crowded.txt"
        crowded.write_text(f"{2 ** (n - 1)}\n" * copies)
        with monkeypatch.context() as patch:
            patch.setattr(partition, "column_offsets", _no_work)
            for command in ("gen", "verify"):
                code, out, err = run_cli(command, "--n", str(n), "--explicit", str(crowded), "--limit", str(limit))
                assert code == 2 and out == ""
                assert err == (
                    f"error: the explicit terms' intervals hold {copies * limit} values of [1, {limit}] in all, "
                    f"more than 2*limit = {2 * limit}; terms at least {2 ** (n - 1)} apart never do\n"
                )
        # two copies reach the bound exactly and are measured as given
        crowded.write_text(f"{2 ** (n - 1)}\n" * 2)
        code, _, err = run_cli("gen", "--n", str(n), "--explicit", str(crowded), "--limit", str(limit))
        assert code == 2 and "violation" in err
        code, out, _ = run_cli("verify", "--n", str(n), "--explicit", str(crowded), "--limit", str(limit))
        assert code == 0 and "True,True" in out

    def test_eight_columns_at_scale(self, run_cli):
        code, out, _ = run_cli("verify", "--n", "8", "--h", "identity", "--limit", "10000")
        assert code == 0
        assert "True,True" in out

    def test_json_report(self, run_cli):
        code, out, _ = run_cli(
            "verify", "--n", "2", "--alpha", "sqrt2", "--limit", "500", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["covered"] is True and payload["disjoint"] is True
        assert payload["limit"] == "500"
        assert payload["first_defect"] is None

    def test_forty_columns_at_small_limit(self, run_cli):
        code, out, _ = run_cli("verify", "--n", "40", "--h", "phi", "--limit", "1000")
        assert code == 0
        assert "True,True" in out
        code, out, _ = run_cli("gen", "--n", "40", "--h", "identity", "--limit", "1000")
        assert code == 0
        columns = {}
        for line in out.splitlines()[1:]:
            column, _, value = line.split(",")
            columns.setdefault(int(column), []).append(int(value))
        # [1, 1000] lies in the first interval [1, 2**40 - 1], so every column
        # is the start of its limiting prefix 2**e * (1, 3, 5, ...)
        assert sorted(columns) == list(range(31, 41))
        for e in range(10):
            assert columns[40 - e] == list(range(2**e, 1001, 2 ** (e + 1)))

    def test_too_many_columns_exits_2_before_any_work(self, run_cli, monkeypatch):
        monkeypatch.setattr(partition, "_sweep", _no_work)
        for command in ("gen", "verify"):
            code, out, err = run_cli(command, "--n", "65", "--h", "phi", "--limit", "1000")
            assert code == 2 and out == ""
            assert "[2, 64]" in err

    def test_oversize_limit_exits_2_before_any_work(self, run_cli, monkeypatch):
        # bytearray(limit + 1) would overflow at 10**19 and take a terabyte at 10**12
        monkeypatch.setattr(partition, "gap_set", _no_work)
        monkeypatch.setattr(partition, "column_offsets", _no_work)
        monkeypatch.setattr(partition, "bytearray", _no_work, raising=False)
        for limit in (10**19, partition.MAX_LIMIT + 1):
            for command in ("gen", "verify"):
                for fmt in ((), ("--format", "json")):
                    code, out, err = run_cli(command, "--n", "3", "--h", "phi", "--limit", str(limit), *fmt)
                    assert code == 2 and out == ""
                    assert err == f"error: limit must be at most {partition.MAX_LIMIT}, got {limit}\n"



class TestDecompose:
    def test_csv_row(self, run_cli):
        code, out, _ = run_cli("decompose", "--n", "3", "--h", "phi", "--m", "20")
        assert code == 0
        assert out.splitlines()[1] == "20,2,4,-"

    def test_json_signs(self, run_cli):
        code, out, _ = run_cli(
            "decompose", "--n", "3", "--h", "phi", "--m", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"m": "1", "column": 3, "k": 1, "signs": [-1, -1]}

    def test_invalid_m_exits_2(self, run_cli):
        code, _, _ = run_cli("decompose", "--n", "3", "--h", "phi", "--m", "0")
        assert code == 2

    def test_oversize_m_exits_2_before_any_work(self, run_cli, monkeypatch):
        # the term search costs seconds at a few thousand digits
        monkeypatch.setattr(partition.PartitionSpec, "term", _no_work)
        cap = partition.MAX_M_DIGITS
        for m in (10**cap, 10**cap + 7, 10 ** (cap + 200)):
            for fmt in ((), ("--format", "json")):
                code, out, err = run_cli("decompose", "--n", "3", "--h", "phi", "--m", str(m), *fmt)
                assert code == 2 and out == ""
                assert err == f"error: m must have at most {cap} digits, got a {m.bit_length()}-bit integer\n"
        # the largest m below the cap reaches the term search
        with pytest.raises(AssertionError, match="before any work"):
            run_cli("decompose", "--n", "3", "--h", "phi", "--m", str(10**cap - 1))

    def test_uncovered_exits_1(self, run_cli, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("4\n11\n")
        code, _, err = run_cli("decompose", "--n", "3", "--explicit", str(short), "--m", "100")
        assert code == 1
        assert err == "mathematical defect: 100 not covered; generator does not satisfy the hypotheses\n"
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code, _, err = run_cli("decompose", "--n", "3", "--explicit", str(empty), "--m", "1")
        assert code == 1
        assert "defect" in err


class TestIdentities:
    def test_table_passes(self, run_cli):
        code, out, _ = run_cli("identities", "--N", "40")
        assert code == 0
        assert "overall: PASS" in out
        for name in ("frac-lower", "klm-grid", "col-sum"):
            assert name in out

    def test_default_scan_scale_passes(self, run_cli):
        # the documented default: a full pass over every identity at N = 1000
        code, out, _ = run_cli("identities")
        assert code == 0
        assert "overall: PASS (N=1000)" in out

    def test_single_identity_scan(self, run_cli):
        code, out, _ = run_cli("identities", "--identity", "fib-shift", "--r", "5", "--N", "100")
        assert code == 0
        assert " 100 " in out.splitlines()[1]

    def test_unknown_identity_exits_2(self, run_cli):
        code, _, err = run_cli("identities", "--identity", "no-such", "--N", "5")
        assert code == 2

    def test_even_r_exits_2(self, run_cli):
        code, _, _ = run_cli("identities", "--identity", "fib-shift", "--r", "2", "--N", "5")
        assert code == 2

    def test_shift_index_cap(self, run_cli, monkeypatch):
        code, out, _ = run_cli("identities", "--identity", "fib-shift", "--r", "199", "--N", "3")
        assert code == 0 and "PASS" in out
        _no_checkers(monkeypatch)
        for fmt in ((), ("--format", "csv")):
            code, out, err = run_cli("identities", "--identity", "fib-shift", "--r", "1,201", "--N", "5", *fmt)
            assert code == 2 and out == ""
            assert "200" in err

    def test_index_cap(self, run_cli, monkeypatch):
        code, out, _ = run_cli("identities", "--identity", "cassini", "--N", str(identities.MAX_N))
        assert code == 0 and "PASS" in out
        _no_checkers(monkeypatch)
        for N in (identities.MAX_N + 1, 10**19):
            for fmt in ((), ("--format", "csv"), ("--format", "json")):
                code, out, err = run_cli("identities", "--N", str(N), *fmt)
                assert code == 2 and out == ""
                assert err == f"error: limit must be at most {identities.MAX_N}, got {N}\n"

    def test_converse_bound_cap(self, run_cli, monkeypatch):
        _no_checkers(monkeypatch)
        for bound in ("0", str(identities.CONVERSE_BOUND_CAP + 1)):
            for fmt in ((), ("--format", "json")):
                code, out, err = run_cli("identities", "--N", "200", "--bound", bound, *fmt)
                assert code == 2 and out == ""
                assert str(identities.CONVERSE_BOUND_CAP) in err

    def test_empty_scan_exits_2(self, run_cli):
        for n in ("0", "-3"):
            for extra in ((), ("--format", "csv"), ("--format", "json")):
                code, out, err = run_cli("identities", "--N", n, *extra)
                assert code == 2
                assert out == ""
                assert err == f"error: limit must be positive, got {n}\n"

    def test_fault_injection_exits_1(self, run_cli):
        code, out, _ = run_cli("identities", "--identity", "klm-grid", "--N", "3", "--inject-off-by-one")
        assert code == 1
        assert "overall: FAIL" in out

    def test_csv_records(self, run_cli):
        code, out, _ = run_cli(
            "identities", "--identity", "cassini", "--N", "5", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "identity,n,case,lhs,rhs,pass"
        assert len(lines) == 6

    def test_json_records(self, run_cli):
        code, out, _ = run_cli(
            "identities", "--identity", "frac-sum", "--N", "4", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 4
        assert records[0]["identity"] == "frac-sum"
        assert records[0]["pass"] is True

    @pytest.mark.parametrize(
        "argv",
        [
            ("--identity", "cassini", "--N", "1"),
            ("--identity", "frac-sum", "--N", "4"),
            ("--identity", "klm-grid", "--N", "7", "--inject-off-by-one"),
            ("--identity", "fib-shift-converse", "--N", "3", "--bound", "40"),
            ("--N", "2"),
            ("--N", "12", "--r", "3"),
        ],
    )
    def test_json_records_are_the_bytes_of_json_dump(self, run_cli, argv):
        # the records are written one at a time, as json.dump(indent=2) writes their list
        code, out, _ = run_cli("identities", *argv, "--format", "json")
        args = build_parser().parse_args(["identities", *argv])
        names = [args.identity] if args.identity else identities.identity_names()
        opts = identities.CheckOptions(args.r, args.bound, 1 if args.inject_off_by_one else 0)
        checks = [check for name in names for check in identities.iter_identity_checks(name, args.N, opts)]
        assert code == (1 if args.inject_off_by_one else 0)
        assert out == json.dumps([check.to_json_dict() for check in checks], indent=2) + "\n"

    @pytest.mark.parametrize("items", [[], [{}], [[]], ["a\nb", 1, None], [{"k": [1, {"x": "y"}], "z": []}, {"q": "\n"}]])
    def test_json_list_writer_matches_json_dump(self, items):
        fh = io.StringIO()
        _write_json_list(fh, iter(items))
        assert fh.getvalue() == json.dumps(items, indent=2) + "\n"

    def test_json_memory_stays_at_the_records(self):
        # JSON holds one record's dict at a time beside the records, as CSV
        # holds one row; a list of every record's dict took the JSON peak to
        # twice the CSV one.  Each format runs in a fresh interpreter, so no
        # cache warmed by another test counts toward either peak.
        peaks = {}
        for fmt in ("csv", "json"):
            peaks[fmt] = int(
                _fresh(
                    "import tracemalloc\n"
                    "import beattylab.identities\n"
                    "from beattylab.cli import main\n"
                    "tracemalloc.start()\n"
                    f"assert main(['identities', '--N', '30', '--format', {fmt!r}, '--out', {os.devnull!r}]) == 0\n"
                    "print(tracemalloc.get_traced_memory()[1])\n"
                )
            )
        assert peaks["json"] < 1.25 * peaks["csv"], peaks


class TestTable:
    """cli._table on synthetic runs against % formatting of the same values."""

    # the width of column a changes at row 4, that of b at row 7 and k's at
    # row 10; a's run 10-11 ends at row 5, where no width changes
    A = ["7\n8\n9\n", "10\n11\n", "12\n13\n14\n15\n16\n17\n18\n"]
    B = ["94\n95\n96\n97\n98\n99\n", "100\n101\n102\n103\n104\n105\n106\n107\n"]
    PLANE = b"ABBABAABABBABAAB"

    @staticmethod
    def expected(row: str, columns: list[list[str]], count: int, plane: bytes) -> str:
        values = ["".join(runs).split() for runs in columns]
        rows = min([count, *map(len, values)])
        return "".join(row % (k, *(v[k - 1] for v in values), chr(plane[k - 1])) for k in range(1, rows + 1))

    @pytest.mark.parametrize("count", [1, 3, 4, 5, 9, 10, 11, 12, 13, 100])
    def test_stops_at_count_or_where_a_column_runs_out(self, count):
        # column a holds 12 values, b 14: past 12 rows a runs out first
        row = "%s,%s,%s,%s\n"
        got = "".join(_table(row.encode(), [iter(self.A), iter(self.B)], count, [self.PLANE]))
        assert got == self.expected(row, [self.A, self.B], count, self.PLANE)

    def test_a_run_longer_than_a_window(self):
        # one run of 3*10**4 six-digit values: no run ends before row 30000, so
        # rows from 10**4 on are cut into segments of partition._RUN rows at most
        run = "".join(f"{v}\n" for v in range(10**5, 10**5 + 3 * partition._RUN))
        plane = b"AB" * (2 * partition._RUN)
        got = "".join(_table(b"%s:%s%s\n", [iter([run])], 10**6, [plane]))
        assert got == self.expected("%s:%s%s\n", [[run]], 10**6, plane)


def _first(f: Callable[[int], int], bound: int) -> int:
    """The least k >= 1 with f(k) >= bound, for f increasing."""
    k = 1
    while f(k) < bound:
        k += 1
    return k


def _row_cuts(top: int = 10**4) -> list[int]:
    """Row counts where classify rows cuts its segments.

    One below, at and one past each k up to top where k, s(k), c(k) or
    d(k) gains a digit, and for each column the first row past its first
    full window of partition._RUN labels, [10**4, 10**4 + _RUN).
    """
    cuts = {1}
    for f in (lambda k: k, oracles.col_s, oracles.col_c, oracles.col_d):
        for digits in range(1, len(str(top))):
            if (k := _first(f, 10**digits)) <= top:
                cuts |= {k - 1, k, k + 1}
    for f in (oracles.col_s, oracles.col_c, oracles.col_d):
        cuts.add(_first(f, 10**4 + partition._RUN))
    return sorted(cuts)


class TestClassify:
    def test_rows_table(self, run_cli):
        code, out, _ = run_cli("classify", "rows", "--N", "6")
        assert code == 0
        assert out == EXPECTED_TABLE_CLASSES

    def test_rows_json(self, run_cli):
        code, out, _ = run_cli("classify", "rows", "--N", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0] == {"k": 1, "s": "1", "c": "2", "d": "4", "class": "ABA"}

    @pytest.mark.parametrize("N", _row_cuts())
    def test_rows_match_the_encoders(self, run_cli, N):
        # the rows as csv.writer and json.dump(indent=2) write them, from the per-index
        # oracles.col_s, oracles.col_c, oracles.col_d and oracles.row_class
        expected = [
            (k, oracles.col_s(k), oracles.col_c(k), oracles.col_d(k), oracles.row_class(k).code)
            for k in range(1, N + 1)
        ]
        fh = io.StringIO()
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "s", "c", "d", "s_class", "c_class", "d_class"])
        writer.writerows((k, s, c, d, *code) for k, s, c, d, code in expected)
        code, out, _ = run_cli("classify", "rows", "--N", str(N))
        assert code == 0 and out == fh.getvalue()
        payload = [
            {"k": k, "s": str(s), "c": str(c), "d": str(d), "class": cls} for k, s, c, d, cls in expected
        ]
        code, out, _ = run_cli("classify", "rows", "--N", str(N), "--format", "json")
        assert code == 0 and out == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_memory_stays_below_the_rows(self, tmp_path, fmt):
        # one tag buffer of d(N) bytes and the codes; the rows are written as
        # they are read (about 2.1 MiB at N = 3*10**4), while a list of the
        # N row tuples alone holds 5.9 MiB
        target = tmp_path / f"rows.{fmt}"
        tracemalloc.start()
        try:
            code = main(["classify", "rows", "--N", "30000", "--format", fmt, "--out", str(target)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * 2**20, peak

    def test_census(self, run_cli):
        code, out, _ = run_cli("classify", "census", "--N", "5000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "class,count,frequency,first_k"
        assert len(lines) == 7  # exactly the six admissible classes

    def test_census_json_rationals(self, run_cli):
        code, out, _ = run_cli("classify", "census", "--N", "100", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        entry = payload["classes"][0]
        assert entry["frequency"]["den"] == 100
        assert isinstance(entry["frequency"]["num"], int)

    def test_ab_over_scd_lists_zero_cells(self, run_cli):
        code, out, _ = run_cli("classify", "ab-over-scd", "--N", "3000")
        assert code == 0
        rows = {line.split(",")[0]: line for line in out.strip().splitlines()[1:]}
        assert set(rows) == {"SC", "CS", "DS", "CD", "SS", "SD", "DC", "CC", "DD"}
        for zero_pair in ("SD", "DC", "CC", "DD"):
            assert rows[zero_pair].split(",")[1] == "0"


class TestDensity:
    def test_csv_report(self, run_cli):
        code, out, _ = run_cli("density", "--N", "3000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,count,total,frequency,expected,status"
        by_name = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert by_name["c-half-in-A"][5] == "proved-density"
        assert by_name["s-col-in-A"][5] == "empirical-open"
        assert by_name["pair-DD"][1] == "0"

    def test_json_exact_rationals(self, run_cli):
        code, out, _ = run_cli("density", "--N", "500", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        entries = {e["name"]: e for e in payload["densities"]}
        assert entries["a-in-C"]["frequency"]["den"] == 500
        assert entries["a-in-C"]["expected"] == {"p": "-1", "q": "1", "d": "2"}
        assert entries["s-col-in-A"]["expected"] is None


def _size_cases():
    """(id, argv, message) for each size argument at 0, -5, just past its cap and far past it."""
    for prefix, cap in (
        ("gen --n 3 --h phi --limit", partition.MAX_LIMIT),
        ("verify --n 3 --h phi --limit", partition.MAX_LIMIT),
        ("identities --N", identities.MAX_N),
        ("classify rows --N", three_set.MAX_INDEX),
        ("classify census --N", three_set.MAX_INDEX),
        ("classify ab-over-scd --N", three_set.MAX_INDEX),
        ("density --N", three_set.MAX_INDEX),
    ):
        for value in (0, -5, cap + 1, 10**19):
            message = f"limit must be positive, got {value}" if value < 1 else f"limit must be at most {cap}, got {value}"
            yield f"{prefix} {value}", f"{prefix} {value}", message
    for value in (0, -5, partition.MAX_COLUMNS + 1, 10**19):
        message = f"number of columns must be in [2, {partition.MAX_COLUMNS}], got {value}"
        for command, size in (("gen", "--limit 20"), ("verify", "--limit 20"), ("decompose", "--m 20")):
            yield f"{command} --n {value}", f"{command} --n {value} --h phi {size}", message
    for value in (0, -5, identities.CONVERSE_BOUND_CAP + 1, 10**19):
        message = f"converse search bound must be in [1, {identities.CONVERSE_BOUND_CAP}], got {value}"
        yield f"identities --bound {value}", f"identities --N 5 --bound {value}", message
    yield "decompose --m 0", "decompose --n 3 --h phi --m 0", "m must be positive, got 0"
    yield "decompose --m -5", "decompose --n 3 --h phi --m -5", "m must be positive, got -5"
    cap = partition.MAX_M_DIGITS
    for digits in (cap, 4 * cap):  # 10**cap has cap + 1 digits
        message = f"m must have at most {cap} digits, got a {(10**digits).bit_length()}-bit integer"
        yield f"decompose --m 10**{digits}", f"decompose --n 3 --h phi --m {10**digits}", message


@pytest.mark.parametrize("fmt", [(), ("--format", "json")], ids=["default", "json"])
@pytest.mark.parametrize("argv, message", [pytest.param(a, m, id=i) for i, a, m in _size_cases()])
def test_size_argument_out_of_range_exits_2_before_any_work(run_cli, monkeypatch, argv, message, fmt):
    # the library function that sizes the work rejects the value before the
    # fills, the term search or any identity checker runs, with one message
    # whatever the subcommand
    monkeypatch.setattr(partition, "_alpha_labels", _no_work)
    monkeypatch.setattr(partition, "_value_sweep", _no_work)
    monkeypatch.setattr(partition.PartitionSpec, "term", _no_work)
    monkeypatch.setattr(three_set, "standard_fill", _no_work)
    _no_checkers(monkeypatch)
    code, out, err = run_cli(*argv.split(), *fmt)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# main in a fresh interpreter, for a stdout that a test points at a full device or a closed pipe
_MAIN = f"import sys\nsys.path.insert(0, {SRC!r})\nfrom beattylab.cli import main\nraise SystemExit(main())"
_HELP_CALLS = [("--help",), ("gen", "--help")]


# a write that fails, here on a full device, exits 2 like an --out that cannot be opened
@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--n", "3", "--h", "phi", "--limit", "20"),
        ("verify", "--n", "3", "--h", "phi", "--limit", "20"),
        ("classify", "rows", "--N", "1000"),
        ("identities", "--N", "3", "--format", "json"),
        *_HELP_CALLS,
    ],
    ids=" ".join,
)
def test_failed_write_exits_2(run_cli, argv):
    if "--help" in argv:
        # argparse writes the help to stdout itself, with no --out, so stdout
        # is the full device, in a fresh interpreter; unbuffered (-u), where
        # argparse's own write fails at once (the closed-pipe test below
        # covers a buffered stdout)
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-I", "-S", "-u", "-c", _MAIN, *argv], stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
        code, out, err = proc.returncode, "", proc.stderr
    else:
        code, out, err = run_cli(*argv, "--out", "/dev/full")
    assert (code, out) == (2, "")
    assert err == "error: cannot write output: [Errno 28] No space left on device\n", err


@pytest.mark.parametrize(
    "argv, lines",
    [
        (("gen", "--n", "3", "--h", "phi", "--limit", str(10**6)), 1),
        (("gen", "--n", "3", "--h", "phi", "--limit", "30"), 0),
        *((argv, 0) for argv in _HELP_CALLS),
    ],
    ids=["after-the-header", "before-any-write", "help", "gen-help"],
)
def test_closed_pipe_exits_2_without_a_traceback(argv, lines):
    # At 10**6 gen writes about 10 MB, far more than a pipe holds, so it is
    # still writing when the reader closes the pipe after the header.  At
    # 30 the reader closes it before gen starts, so every row is still in
    # stdout's buffer when the flush fails, and without fd 1 pointed at
    # os.devnull the interpreter's final flush would fail again.  A help
    # fits in the pipe, so it fails only on a pipe closed before the write.
    read, write = os.pipe()
    reader = open(read, "rb")
    if not lines:
        reader.close()
    with subprocess.Popen([sys.executable, "-I", "-S", "-c", _MAIN, *argv], stdout=write, stderr=subprocess.PIPE) as proc:
        os.close(write)
        if lines:
            assert reader.readline() == b"column,k,value\n"
            reader.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err.decode() == "error: cannot write output: [Errno 32] Broken pipe\n", err


# one call per subcommand and result format that writes a result
RESULT_CALLS = [
    ("gen", "--n", "3", "--h", "phi", "--limit", "20"),
    ("gen", "--n", "3", "--h", "phi", "--limit", "20", "--format", "json"),
    ("verify", "--n", "3", "--h", "phi", "--limit", "20"),
    ("decompose", "--n", "3", "--h", "phi", "--m", "20"),
    ("identities", "--N", "3"),
    ("identities", "--N", "3", "--format", "csv"),
    ("classify", "rows", "--N", "5"),
    ("classify", "census", "--N", "5"),
    ("density", "--N", "5"),
]


@pytest.mark.parametrize("argv", RESULT_CALLS, ids=" ".join)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_2(run_cli, tmp_path, argv, where):
    target = tmp_path / "missing" / "result.out" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(*argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write --out file: ") and err.count("\n") == 1, err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("classify census --N x", "argument --N: invalid int value: 'x'"),
        ("verify --n 3 --h phi", "the following arguments are required: --limit"),
        ("gen --n 3 --h phi --limit 5 --format xml", "argument --format: invalid choice: 'xml'"),
        ("no-such --N 5", "argument command: invalid choice: 'no-such'"),
        # past int()'s 4300 digits a value is refused by length, not echoed
        pytest.param(
            f"decompose --n 3 --h phi --m 1{'0' * 4999}",
            "argument --m: invalid int value of 5000 characters",
            id="decompose --m of 5000 digits",
        ),
        pytest.param(
            f"classify census --N 1{'0' * 4999}",
            "argument --N: invalid int value of 5000 characters",
            id="classify census --N of 5000 digits",
        ),
        # a malformed value past 40 characters is refused by length too
        pytest.param(
            f"decompose --n 3 --h phi --m {'x' * 4300}",
            "argument --m: invalid int value of 4300 characters",
            id="decompose --m of 4300 x's",
        ),
        pytest.param(
            f"classify census --N {'x' * 41}",
            "argument --N: invalid int value of 41 characters",
            id="classify census --N of 41 x's",
        ),
        pytest.param(
            f"classify census --N {'x' * 40}",
            f"argument --N: invalid int value: '{'x' * 40}'",
            id="classify census --N of 40 x's",
        ),
        # each item of --r is read like every integer flag, and the error names the flag
        ("identities --N 5 --r a", "argument --r: invalid int value: 'a'"),
        ("identities --N 5 --r 1,x", "argument --r: invalid int value: 'x'"),
    ],
)
def test_argparse_errors_take_one_line(run_cli, argv, message):
    # argparse's usage block is not printed: main reports the error like every other
    assert argv.split()[0] not in _COMMANDS or _read(argv.split()) is None  # argparse reports it
    code, out, err = run_cli(*argv.split())
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    if message.startswith("argument --"):  # a flag's value is never echoed at length
        assert len(err.encode()) < 100, err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: beatty-lab classify")


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "beattylab", "gen", "--n", "2", "--h", "phi", "--limit", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rows = [line.split(",") for line in proc.stdout.strip().splitlines()[1:]]
    first = [int(v) for c, _, v in rows if c == "1"]
    second = [int(v) for c, _, v in rows if c == "2"]
    assert first == [2, 5, 7, 10]
    assert second == [1, 3, 4, 6, 8, 9]


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # a usage error between two valid calls leaves the cached parser as it
    # was: every call writes the bytes of a fresh interpreter's call
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal width
    valid = ["classify", "census", "--N", "50"]
    invalid = ["classify", "census", "--N"]
    fresh = {}
    for argv in (valid, invalid):
        proc = subprocess.run([sys.executable, "-m", "beattylab", *argv], capture_output=True, text=True)
        fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr)
    assert fresh[tuple(invalid)][0] == 2
    for argv in (valid, invalid, valid):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == fresh[tuple(argv)]
    assert build_parser() is build_parser()


def test_each_command_has_its_own_cached_parser():
    # a parser holding one subparser parses that subcommand's arguments as
    # the parser holding all six does
    assert build_parser("gen") is build_parser("gen")
    assert build_parser("gen") is not build_parser()
    for argv in (
        ["gen", "--n", "3", "--h", "phi", "--limit", "10", "--format", "json"],
        ["decompose", "--n", "4", "--alpha", "sqrt2", "--m", "7", "--out", "x"],
        ["identities", "--r", "3,5", "--inject-off-by-one"],
        ["classify", "rows", "--N", "5"],
    ):
        assert vars(build_parser(argv[0]).parse_args(argv)) == vars(build_parser().parse_args(argv))


# tokens of a drawn argv: values plain and malformed, help, "--", and the
# abbreviations and --flag=value forms that argparse alone reads
_TOKENS = ("3", "20", "0", "-5", "x", "1" * 41, "3,5", "1,x", "phi", "csv", "xml", "census", "out.txt", "")
_TOKENS += ("-h", "--help", "--", "-")
_ODD_FLAGS = ("--N=5", "--format=json", "--form", "--inj", "--ident", "--lim", "--al", "--expl", "--ou")


@st.composite
def _argvs(draw) -> list[str]:
    """An argv of one command: mostly its required tokens, then up to three drawn pieces, in any order.

    A piece is a flag with a value that passes its type and choices, a flag
    with a drawn token, or a drawn token alone.
    """
    command = draw(st.sampled_from(list(_COMMANDS)))
    flags = _COMMANDS[command][1]()

    def plain(name: str) -> tuple[str, ...]:
        keywords = flags[name]
        if keywords.get("action") == "store_true":
            return (name,)
        value = draw(st.sampled_from(keywords.get("choices", ("20", "3"))))
        return (name, value) if name.startswith("-") else (value,)

    pieces = [plain(name) for name, keywords in flags.items() if keywords.get("required") or not name.startswith("-")]
    if not draw(st.integers(0, 3)):
        pieces = []
    for _ in range(draw(st.integers(0, 3))):
        kind, name = draw(st.integers(0, 4)), draw(st.sampled_from(list(flags)))
        if kind < 3:
            pieces.append(plain(name))
        elif kind == 3:
            pieces.append((name, draw(st.sampled_from(_TOKENS))))
        else:
            pieces.append((draw(st.sampled_from(_TOKENS + _ODD_FLAGS)),))
    return [command, *chain.from_iterable(draw(st.permutations(pieces)))]


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_the_direct_reader_agrees_with_argparse(argv):
    # main reads an argv without argparse only when argparse would read it alike
    args = _read(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


def test_help_and_command_errors_import_no_identities():
    # the identities subparser adds its flags, whose help reads the
    # identities bounds, only when it parses
    for argv in (["--help"], [], ["no-such"], ["-x", "classify", "census", "--N", "5"]):
        out = _fresh(
            "import contextlib, io, json\n"
            "from beattylab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        main({argv!r})\n"
            "    except SystemExit:\n"
            "        pass\n"
            "names = ('dataclasses', 'inspect', 'beattylab.identities')\n"
            "print(json.dumps([name for name in names if name in sys.modules]))\n"
        )
        assert json.loads(out) == [], argv


def test_only_the_identities_command_imports_identities():
    # a valid call is read without argparse, so it loads neither argparse nor
    # the gettext and locale modules that argparse's messages import
    calls = {
        "gen": ["gen", "--n", "3", "--h", "phi", "--limit", "20"],
        "verify": ["verify", "--n", "3", "--h", "phi", "--limit", "20"],
        "decompose": ["decompose", "--n", "3", "--alpha", "1,1,2", "--m", "20", "--format", "json"],
        "census": ["classify", "census", "--N", "50"],
        "density": ["density", "--N", "50"],
        "identities": ["identities", "--N", "3", "--r", "3,5"],
    }
    for name, argv in calls.items():
        out = _fresh(
            "import contextlib, io, json\n"
            "from beattylab.cli import main\n"
            "buf = io.StringIO()\n"
            "with contextlib.redirect_stdout(buf):\n"
            f"    code = main({argv!r})\n"
            "loaded = [name for name in ('argparse', 'gettext', 'locale') if name in sys.modules]\n"
            "print(json.dumps([code, buf.getvalue(), 'beattylab.identities' in sys.modules, loaded]))\n"
        )
        code, text, imported, loaded = json.loads(out)
        assert (code, imported, loaded) == (0, name == "identities", []), name
        if name == "identities":
            assert text.endswith("overall: PASS (N=3)\n")
    # help and usage errors still go to argparse, with the pinned bytes and exit codes
    for argv, pinned in (
        (["--help"], (0, HELP[""], "")),
        ([], (2, EMPTY, "error: the following arguments are required: command\n")),
        (["classify", "census", "--N", "x"], (2, EMPTY, "error: argument --N: invalid int value: 'x'\n")),
    ):
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-c", _MAIN, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "COLUMNS": "80"},
        )
        assert (proc.returncode, _digest(proc.stdout), proc.stderr) == pinned, argv
