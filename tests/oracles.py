"""Kernels that only the tests use.

beatty_term is a QuadraticReal oracle for Beatty values; classify_cd
recovers the witness index of a C/D label, the C/D counterpart of
wythoff.classify_ab.
"""

from __future__ import annotations

from typing import NamedTuple

from beattylab import wythoff
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
