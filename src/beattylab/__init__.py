"""Exact golden-ratio Beatty sequence partitions and their interactions."""

from .qfield import (
    PHI,
    PHI_CUBED,
    PHI_SQ,
    QuadraticReal,
    SQRT2,
    SQRT5,
    fib,
    phi_pow,
)
from .partition import (
    PartitionSpec,
    build_columns,
    decompose,
    gap_set,
    identity_spec,
    phi_spec,
    verify_partition,
)
from .wythoff import classify_ab, klm, lower, upper

__version__ = "0.1.0"

__all__ = [
    "PHI",
    "PHI_CUBED",
    "PHI_SQ",
    "PartitionSpec",
    "QuadraticReal",
    "SQRT2",
    "SQRT5",
    "build_columns",
    "classify_ab",
    "decompose",
    "fib",
    "gap_set",
    "identity_spec",
    "klm",
    "lower",
    "phi_pow",
    "phi_spec",
    "upper",
    "verify_partition",
]
