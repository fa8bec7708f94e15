"""Reference speed probe: times a fixed pure-Python loop.

    python3 perfbench/reference.py [LOOPS]

prints the median of LOOPS (default 3) timings of the loop, in seconds. The loop does
dict updates, tuple building, float sums and keyed sorts, like the
pipeline's inner loops, and never calls tilefp. run.py starts it as a fresh
process between passes, so the heap the program leaves behind cannot change
its time, and scales end-to-end times by it.
"""

from __future__ import annotations

import statistics
import sys
import time


def loop_seconds() -> float:
    data = [((i * 7919) % 10007 / 10007.0, i) for i in range(30000)]
    started = time.perf_counter()
    for _ in range(4):
        buckets: dict[int, float] = {}
        for x, i in data:
            buckets[i % 997] = buckets.get(i % 997, 0.0) + x
        sum(sorted(buckets.values()))
        sorted(data, key=lambda t: (t[1] % 13, t[0]))
    return time.perf_counter() - started


if __name__ == "__main__":
    loops = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    print(statistics.median(loop_seconds() for _ in range(loops)))
