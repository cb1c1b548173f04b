"""The benchmark's own integer oracle for point-query answers.

Nothing here imports beattylab: each answer is checked against plain
integer arithmetic, so a wrong fast path in the program cannot also make
its check pass.
"""

from __future__ import annotations

from math import isqrt


def lower(k: int) -> int:
    """floor(k*phi) = (k + isqrt(5k^2)) // 2."""
    return (k + isqrt(5 * k * k)) // 2


def generator_term(n: int, k: int) -> int:
    """l(k) = (2^(n-1) - 1) * floor(k*phi) + k of the n-column phi partition."""
    return (2 ** (n - 1) - 1) * lower(k) + k


def offset_signs(d: int, n: int, column: int) -> list[int] | None:
    """The signs with d = sum(signs[i] * 2^(n-2-i)) over column-1 terms, or None.

    The first term outweighs the sum of all later ones, so each sign is
    the sign of what is left.
    """
    signs = []
    for i in range(column - 1):
        if d == 0:
            return None
        sign = 1 if d > 0 else -1
        signs.append(sign)
        d -= sign * 2 ** (n - 2 - i)
    return signs if d == 0 else None


def decompose_ok(m: int, n: int, answer) -> bool:
    """m = l(k) + sum(signs[i] * 2^(n-2-i)), one sign per column after the first,
    and no smaller index k' < k realizes m in any column (the program promises
    the smallest-index realization)."""
    column, k, signs = answer
    if k < 1 or not 1 <= column <= n or len(signs) != column - 1:
        return False
    if any(s not in (-1, 1) for s in signs):
        return False
    if m != generator_term(n, k) + sum(s * 2 ** (n - 2 - i) for i, s in enumerate(signs)):
        return False
    widest = 2 ** (n - 1) - 1  # the largest offset of any column
    smaller = k - 1
    while smaller >= 1 and generator_term(n, smaller) + widest >= m:
        d = m - generator_term(n, smaller)
        if any(offset_signs(d, n, c) is not None for c in range(1, n + 1)):
            return False
        smaller -= 1
    return True


def classify_ab_ok(m: int, answer) -> bool:
    """The witness reproduces m: a(w) = m for label A, b(w) = a(w) + w = m for B."""
    label, witness = answer
    if witness < 1:
        return False
    if label == "A":
        return lower(witness) == m
    return label == "B" and lower(witness) + witness == m


def klm_ok(K: int, L: int, M: int, n: int, answer) -> bool:
    """klm(K, L, M, n) = floor((K*a(n) + L*n + M) * phi)."""
    return answer == lower(K * lower(n) + L * n + M)
