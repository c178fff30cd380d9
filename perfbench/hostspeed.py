"""How fast the host runs plain Python right now, to adjust op times for it.

The benchmark shares a host whose speed drifts by up to 2x over seconds to
minutes, for every process at once.  A pass therefore runs `kernel`, a fixed
piece of pure Python that does not import kirbycalc, between ops, and scales
each op's wall time by REF_S over the kernel's median time around that op.
A slower library leaves the kernel as it is and so shows in full.
"""

from __future__ import annotations

import statistics
import time

# Median kernel time, in seconds, between the ops of a pass on a shared
# 2-vCPU x86 VM at its usual load; an adjusted time is the wall time the op
# would take on a host that runs the kernel this fast.
REF_S = 4.5e-4
# A pass samples the kernel before an op once this many seconds have passed
# since the last sample, so sampling costs a few percent of the pass.
EVERY_S = 0.02
# Kernel samples on each side of an op that its adjustment takes the median of.
HALF_WINDOW = 4

_MATRIX = [[(7 * i + 3 * j * j + 5) % 19 - 9 + 40 * (i == j) for j in range(10)]
           for i in range(10)]


def kernel() -> int:
    """Fraction-free elimination and tuple-keyed dicts, as kirbycalc does."""
    m = [row[:] for row in _MATRIX]
    prev = 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            return 0
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    links: dict[tuple[str, str], int] = {}
    for i in range(400):
        key = (f"k{i % 13}", f"k{i % 7}")
        links[key] = links.get(key, 0) + i
    return m[-1][-1] + len(sorted(links.items()))


def sample() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factor_now(n: int = 2 * HALF_WINDOW + 1) -> float:
    """REF_S over the median of n kernel runs taken now."""
    sample()
    return REF_S / statistics.median(sample() for _ in range(n))


def factors(samples: list[float], marks: list[int]) -> list[float]:
    """REF_S over the median of the samples around each mark.

    `marks[i]` is the index of the last sample taken before op i started.
    """
    out = []
    for j in marks:
        window = samples[max(0, j - HALF_WINDOW):j + HALF_WINDOW + 1]
        out.append(REF_S / statistics.median(window))
    return out
