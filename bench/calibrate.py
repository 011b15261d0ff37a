"""A fixed pure-Python kernel that measures how fast the machine runs now.

It mixes the operations the library spends its time in: frozenset
intersections and hashing, dict updates, integer bit operations, exact
``Fraction`` sums and big-integer products.  Its work never changes, so its
time moves only with the machine.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# the kernel time the scaled timings are expressed against; on the machine
# of the reference figures (README.md) one kernel run takes about this long
NOMINAL_S = 0.025

_rng = random.Random(20151)
_SETS = [frozenset(_rng.sample(range(160), 32)) for _ in range(90)]
_MASKS = [_rng.getrandbits(96) for _ in range(400)]
_FRACS = [Fraction(_rng.randint(1, 64), _rng.randint(1, 97)) for _ in range(300)]
_BIG = [_rng.getrandbits(1500) | 1 for _ in range(8)]


def kernel() -> int:
    seen: dict = {}
    for a in _SETS:
        for b in _SETS:
            c = a & b
            seen[c] = seen.get(c, 0) + 1
    bits = 0
    for m in _MASKS:
        for k in _MASKS[:60]:
            bits += (m & ~k).bit_count()
    total = Fraction(0)
    for f in _FRACS:
        total += f
    prod = 1
    for x in _BIG:
        for y in _BIG:
            prod = (prod * x + y) % (1 << 4000)
    return len(seen) + bits + total.denominator % 7 + prod % 11


def times(repeats: int) -> list[float]:
    """Times of ``repeats`` kernel runs, in seconds."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out


def scale(samples: list[float]) -> float:
    """Factor that turns a time measured now into seconds at the nominal
    machine speed."""
    return NOMINAL_S / statistics.median(samples)
