"""The host-speed probe: a fixed piece of the benchmark's own code, timed
around every timed program call.

The benchmark runs on shared machines whose speed changes by up to 2x
for seconds to minutes at a time, as other tenants load the cores the
vCPUs sit on; the same change shows in CPU time, so it is not waiting.
Every time the benchmark reports is therefore scaled to one fixed host
speed: a time t measured while the probe took p seconds is reported as
t * PROBE_REFERENCE_S / p, the time the same call takes on a host where
the probe takes PROBE_REFERENCE_S.  The probe does what the program's
hot loops do (allocate small slotted objects, multiply and isqrt big
integers, build a dict), so both slow down alike when the host does.
It imports nothing from beattylab: a change to the program cannot
change the probe.
"""

from __future__ import annotations

from math import isqrt
from time import perf_counter

PROBE_REFERENCE_S = 0.010  # the unit of host speed; about the probe's fast-state time on a 2-vCPU Xeon
PROBE_ROUNDS = 6000


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


def _kernel(rounds: int) -> int:
    total = 0
    for k in range(1, rounds + 1):
        p = _Pair(k * 12345678901234567, k)
        q = _Pair(p.a + p.b, isqrt(5 * p.a * p.a))
        seen = {q.a: q.b}
        total += (q.b > p.a) + len(seen)
    return total


def probe() -> float:
    """Seconds the probe takes now."""
    t0 = perf_counter()
    _kernel(PROBE_ROUNDS)
    return perf_counter() - t0


def warm_up() -> None:
    """Run the probe once untimed, so its first timing is not of a cold interpreter."""
    _kernel(PROBE_ROUNDS)


def scale(probe_s: float) -> float:
    """The factor that turns a time measured at probe time probe_s into reference-speed time."""
    return PROBE_REFERENCE_S / probe_s
