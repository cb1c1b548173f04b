"""Kernels that only the tests use.

beatty_term is a QuadraticReal oracle for Beatty values; classify_cd
recovers the witness index of a C/D label, the C/D counterpart of
wythoff.classify_ab; gen_csv and gen_json render gen's columns through
the csv and json encoders, the reference for gen's own emitters.
"""

from __future__ import annotations

import csv
import io
import json
from typing import NamedTuple

from beattylab import partition, wythoff
from beattylab.qfield import QuadraticReal
from beattylab.wythoff import CDLabel, c_half, cd_label, d_cubed


def beatty_term(alpha: QuadraticReal, k: int) -> int:
    """k-th Beatty value floor(k*alpha) for a positive exact alpha."""
    wythoff._require_positive(k, "k")
    if alpha.sign() <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return (alpha * k).floor()


class CDMembership(NamedTuple):
    label: CDLabel
    witness: int


def classify_cd(m: int) -> CDMembership:
    """C/D membership of m (C: floor(i*phi^2/2) values, D: floor(i*phi^3)).

    The witness is recovered by inverting the floor, i = floor((m+1)*2/phi^2)
    resp. floor((m+1)/phi^3), validated by recomputation with a +-1 fallback.
    """
    if cd_label(m) is CDLabel.C:
        i = wythoff._floor5(3 * (m + 1), -(m + 1), 1)  # (m+1)*2/phi^2 = (m+1)*(3 - sqrt5)
        return CDMembership(CDLabel.C, wythoff._witness_search(m, i, c_half))
    i = wythoff._floor5(-2 * (m + 1), m + 1, 1)  # (m+1)/phi^3 = (m+1)*(sqrt5 - 2)
    return CDMembership(CDLabel.D, wythoff._witness_search(m, i, d_cubed))


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
