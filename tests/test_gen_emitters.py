"""gen's column emitters against the csv and json encoders, byte for byte.

gen writes its columns through % templates; oracles.gen_csv and
oracles.gen_json render the same columns through csv.writer and
json.dump(indent=2), as gen did before.  The cases cover empty columns,
both sides of the tiling threshold 2n*2**n, and every kind of generator,
and the writers themselves on columns of every length around their
ten-row templates and their chunks.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattylab import partition
from beattylab.cli import _CHUNK, _resolve_spec, _write_csv_columns, _write_json_columns, build_parser, main
from oracles import gen_csv, gen_json


def _gen_stdout(argv: list[str]) -> str:
    fh = io.StringIO()
    with contextlib.redirect_stdout(fh):
        assert main(argv) == 0
    return fh.getvalue()


def _assert_gen_matches_encoders(*argv: str) -> None:
    args = build_parser().parse_args(["gen", *argv])
    spec = _resolve_spec(args)
    columns = partition.build_columns(spec, args.limit)
    assert _gen_stdout(["gen", *argv, "--format", "csv"]) == gen_csv(columns), argv
    assert _gen_stdout(["gen", *argv, "--format", "json"]) == gen_json(spec, args.limit, columns), argv


def _phi_limits(n: int) -> list[int]:
    """1, 2, 2**(n-1) +- 1 (columns still empty around the first term) and 2n*2**n (tiled)."""
    return sorted({1, 2, 2 ** (n - 1) - 1, 2 ** (n - 1) + 1, 2 * n * 2**n})


@pytest.mark.parametrize("n", range(2, 11))
def test_phi_columns(n):
    for limit in _phi_limits(n):
        _assert_gen_matches_encoders("--n", str(n), "--h", "phi", "--limit", str(limit))


def test_empty_columns_are_written_as_empty_lists():
    out = _gen_stdout(["gen", "--n", "8", "--h", "phi", "--limit", "1", "--format", "json"])
    assert out.count("[]") == 7
    _assert_gen_matches_encoders("--n", "8", "--h", "phi", "--limit", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "40", "--h", "identity", "--limit", "1000"),
        ("--n", "2", "--alpha", "sqrt2", "--limit", "500"),
        ("--n", "3", "--alpha", "7,-1,4", "--limit", "400"),
        ("--n", "2", "--alpha", "phi2/2", "--limit", "300"),
    ],
)
def test_other_generators(argv):
    _assert_gen_matches_encoders(*argv)


def test_explicit_generator(tmp_path):
    path = tmp_path / "terms.txt"
    path.write_text("4, 11, 15, 22, 29, 33, 40\n")  # phi n = 3 terms
    for limit in ("1", "30", "43"):
        _assert_gen_matches_encoders("--n", "3", "--explicit", str(path), "--limit", limit)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=20000))
def test_random_phi_ranges(n, limit):
    _assert_gen_matches_encoders("--n", str(n), "--h", "phi", "--limit", str(limit))


# gen's CSV numbers rows 1-9 first and then _CHUNK rows per % call from k = 10;
# its JSON formats _CHUNK values per % call
_CHUNK_EDGES = sorted({edge + d for i in (1, 2) for edge in (i * _CHUNK, 9 + i * _CHUNK) for d in (-1, 0, 1)})


@pytest.mark.parametrize("length", [0, 1, 9, 10, 11, 19, 20, 21, 99, 100, 101, *_CHUNK_EDGES])
def test_writers_on_every_column_length(length):
    # a column of the length, an empty one, and the same length again from a
    # value with more digits, so k restarts at 1 in each column
    columns = [list(range(1, 3 * length, 3)), [], list(range(10**12, 10**12 + 7 * length, 7))]
    spec = partition.phi_spec(3)
    fh = io.StringIO()
    _write_csv_columns(fh, map(iter, columns))
    assert fh.getvalue() == gen_csv(columns)
    fh = io.StringIO()
    _write_json_columns(fh, spec, 5, map(iter, columns))
    assert fh.getvalue() == gen_json(spec, 5, columns)
