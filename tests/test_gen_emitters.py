"""gen's column emitters against the csv and json encoders, byte for byte.

gen writes its columns as text built from the label buffer, in the line
layout of its format: each 100-value block is one join of str(q) over a
template of pieces its layout shares.  oracles.gen_csv and
oracles.gen_json render the columns of partition.build_columns through
csv.writer and json.dump(indent=2), as gen did before.  The cases cover
empty columns, both sides of the tiling threshold 2n*2**n, every kind of
generator, every limit where a value or a row number gains a digit, more
block patterns than the template cache holds under both layouts,
templates that point at their layout's shared pieces, and the writers
themselves on label buffers whose columns have every length around
their edges.
"""

from __future__ import annotations

import contextlib
import io
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beattylab import partition
from beattylab.cli import (
    _resolve_spec,
    _write_csv_columns,
    _write_json_columns,
    build_parser,
    main,
)
from oracles import gen_csv, gen_json


def _gen_stdout(argv: list[str]) -> str:
    fh = io.StringIO()
    with contextlib.redirect_stdout(fh):
        assert main(argv) == 0
    return fh.getvalue()


def _assert_same_text(got: str, want: str, context: object) -> None:
    """Fail with the first line where got and want differ.

    A plain assert would have pytest diff the two texts, which takes
    minutes once they run to 10**5 lines.
    """
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        pairs = zip(got_lines, want_lines)
        i = next((i for i, (a, b) in enumerate(pairs) if a != b), min(len(got_lines), len(want_lines)))
        pytest.fail(f"{context}: line {i + 1} is {got_lines[i : i + 1]}, expected {want_lines[i : i + 1]}")


def _assert_gen_matches_encoders(*argv: str) -> None:
    args = build_parser().parse_args(["gen", *argv])
    spec = _resolve_spec(args)
    columns = partition.build_columns(spec, args.limit)
    _assert_same_text(_gen_stdout(["gen", *argv, "--format", "csv"]), gen_csv(columns), argv)
    _assert_same_text(_gen_stdout(["gen", *argv, "--format", "json"]), gen_json(spec, args.limit, columns), argv)


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


# column lengths around each count of rows where k gains a digit and around
# a run of _RUN labels, one row either side
_RUN = partition._RUN
_EDGES = [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, _RUN - 1, _RUN, _RUN + 1, 3 * _RUN + 7]


@pytest.mark.parametrize("length", _EDGES)
def test_writers_on_every_column_length(length):
    # column 1 holds every third value from 1, so length rows; column 2 is
    # empty; column 3 holds the rest, about 2 * length rows
    labels = bytearray(3 * length + 1)
    for v in range(1, len(labels)):
        labels[v] = 1 if v % 3 == 1 else 3
    columns = [[v for v in range(len(labels)) if labels[v] == j] for j in (1, 2, 3)]
    assert len(columns[0]) == length and not columns[1]
    spec = partition.phi_spec(3)
    fh = io.StringIO()
    _write_csv_columns(fh, labels, 3)
    _assert_same_text(fh.getvalue(), gen_csv(columns), "csv")
    fh = io.StringIO()
    _write_json_columns(fh, spec, 5, labels)
    _assert_same_text(fh.getvalue(), gen_json(spec, 5, columns), "json")


_WIDTH_LIMITS = sorted(
    {*range(1, 100)}
    | {100 * q + d for q in (1, 2, 10, 37, 100, 1000) for d in (-1, 1)}
    | {10**i + d for i in range(2, 6) for d in (-1, 1)}
)


@pytest.mark.parametrize("n", [2, 3])
def test_limits_around_every_width_change(n):
    # 1-99 formatted one by one, 100q +- 1 on both sides of a block, and
    # 10**i +- 1 where both v and k gain a digit
    for limit in _WIDTH_LIMITS:
        _assert_gen_matches_encoders("--n", str(n), "--h", "phi", "--limit", str(limit))


def test_row_number_gains_a_digit_inside_a_run():
    # column 2 of phi at n = 2 holds 0.62 of the values, so k = 10**i falls
    # strictly inside a run, where the CSV cuts the run in two
    labels = partition.column_labels(partition.phi_spec(2), 2 * 10**5)
    inside = set()
    k = 1
    for run in partition.column_runs(labels, 2):
        rows = run.count("\n")
        inside |= {i for i in range(2, 6) if k < 10**i < k + rows}
        k += rows
    assert inside == {2, 3, 4, 5}
    _assert_gen_matches_encoders("--n", "2", "--h", "phi", "--limit", str(2 * 10**5))


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "64", "--h", "phi", "--limit", "100001"),  # columns 1-47 empty
        ("--n", "8", "--h", "identity", "--limit", "30001"),
        ("--n", "3", "--alpha", "3,0,2", "--limit", "30001"),
        ("--n", "8", "--alpha", "sqrt2", "--limit", "100001"),
    ],
)
def test_generators_across_blocks(argv):
    _assert_gen_matches_encoders(*argv)


def test_explicit_list_with_unreached_values(tmp_path):
    spec = partition.phi_spec(3)
    path = tmp_path / "terms.txt"
    terms = [spec.term(k) for k in range(1, 201)]  # l(200) = 1169 reaches 1172
    path.write_text(" ".join(map(str, terms)))
    labels = partition.column_labels(partition.PartitionSpec(3, terms), 5000)
    assert labels[1172] and not any(labels[1173:])
    for limit in ("1172", "1173", "5000"):
        _assert_gen_matches_encoders("--n", "3", "--explicit", str(path), "--limit", limit)


class _CacheWatch(io.StringIO):
    """A text buffer that checks, on every write, that the template cache holds at most _TEMPLATE_CAP entries."""

    def write(self, text: str) -> int:
        assert partition._block_pieces.cache_info().currsize <= partition._TEMPLATE_CAP
        return super().write(text)


def test_more_block_patterns_than_the_cache_holds():
    rng = random.Random(27)
    terms = [4]
    while terms[-1] < 200_000:
        terms.append(terms[-1] + rng.choice(sorted(partition.gap_set(3))))
    spec = partition.PartitionSpec(3, terms)
    labels = partition.column_labels(spec, 200_000)
    column_1 = bytes(labels).translate(bytes([0, 1]) + bytes(254))
    patterns = {column_1[lo : lo + 100] for lo in range(100, len(labels), 100)}
    assert len(patterns) > 1.5 * partition._TEMPLATE_CAP
    columns = partition.build_columns(spec, 200_000)
    csv_text, json_text = gen_csv(columns), gen_json(spec, 200_000, columns)
    partition._block_pieces.cache_clear()
    # CSV, then JSON, then CSV again: both layouts share the one cache
    for layout, want in (("csv", csv_text), ("json", json_text), ("csv", csv_text)):
        fh = _CacheWatch()
        if layout == "csv":
            _write_csv_columns(fh, labels, 3)
        else:
            _write_json_columns(fh, spec, 200_000, labels)
        _assert_same_text(fh.getvalue(), want, layout)
    info = partition._block_pieces.cache_info()
    assert (info.maxsize, info.currsize) == (partition._TEMPLATE_CAP, partition._TEMPLATE_CAP)


def test_cached_templates_point_at_their_layouts_shared_pieces():
    # a template holds the head, middles and tails that _line_pieces built
    # once for its layout, never copies of them
    labels = partition.column_labels(partition.phi_spec(3), 10**5)
    layouts = ("%s\n", ',\n      "%s"')
    partition._block_pieces.cache_clear()
    for line in layouts:
        for j in (1, 2, 3):
            for _ in partition.column_runs(labels, j, line):
                pass
    keys = set()
    for j in (1, 2, 3):
        mask = bytes(labels).translate(bytes(j) + b"\1" + bytes(255 - j))
        blocks = {mask[lo : lo + 100] for lo in range(100, len(labels), 100)}
        keys |= {(pattern, line) for pattern in blocks if 1 in pattern for line in layouts}
    # every key is a hit and the cache holds nothing else, so each call
    # below returns a cached template
    assert partition._block_pieces.cache_info().currsize == len(keys)
    misses = partition._block_pieces.cache_info().misses
    for pattern, line in keys:
        head, middles, tails = partition._line_pieces(line)
        shared = {id(piece) for piece in (head, *middles, *tails)}
        assert all(id(piece) in shared for piece in partition._block_pieces(pattern, line))
    assert partition._block_pieces.cache_info().misses == misses


class _Discard:
    def write(self, text: str) -> None:
        pass

    def writelines(self, texts) -> None:
        for _ in texts:
            pass


def test_one_column_is_written_window_by_window():
    # every value of a 10**6-label buffer in column 1: a mask of the whole
    # buffer alone would take 10**6 bytes, and the values as ints 28 MB;
    # a window's mask, run and rows take about half that
    labels = bytearray(b"\1") * (10**6 + 1)
    labels[0] = 0
    spec = partition.phi_spec(2)
    for write in (
        lambda: _write_csv_columns(_Discard(), labels, 1),
        lambda: _write_json_columns(_Discard(), spec, 10**6, labels),
    ):
        tracemalloc.start()
        try:
            write()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(labels), peak
