"""Reference work that runs beside a measurement to gauge the host's speed.

  python3 perfbench/calibrate.py STATE_FILE

run.py starts this on the same CPU as the set-up and validation children,
so the two share that CPU in time slices of a few milliseconds and meet the
same host conditions. It repeats a fixed chunk of pure-Python interval-style
arithmetic and, after every chunk, writes the number of chunks done and its
own CPU seconds into STATE_FILE (CHUNK_STATE). A child reads the state at
both ends of its timed span; the CPU seconds the calibrator spent per chunk
over that span measure how fast the host ran the span, whatever other
tenants of the host were doing.

It stops when run.py ends it, when run.py is gone, or after MAX_LIFETIME_S.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import time

# Chunks done (int64) and the calibrator's CPU seconds (float64).
CHUNK_STATE = struct.Struct("<qd")
MAX_LIFETIME_S = 170.0


class Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi

    def add(self, other: "Pair") -> "Pair":
        return Pair(self.lo + other.lo, self.hi + other.hi)

    def mul(self, other: "Pair") -> "Pair":
        p = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return Pair(min(p), max(p))


def chunk() -> None:
    """About 0.25 ms of work on a 2.1 GHz Xeon; never changes."""
    x = Pair(0.5, 0.75)
    y = Pair(-0.25, 0.5)
    shift = Pair(0.5, 0.75)
    seen = {}
    for i in range(200):
        x = x.mul(y).add(shift)
        seen[i] = x


def main() -> int:
    parent = os.getppid()
    stop_at = time.monotonic() + MAX_LIFETIME_S
    with open(sys.argv[1], "r+b") as fh:
        state = mmap.mmap(fh.fileno(), CHUNK_STATE.size)
    done = 0
    while True:
        chunk()
        done += 1
        CHUNK_STATE.pack_into(state, 0, done, time.process_time())
        if done % 1000 == 0 and (os.getppid() != parent or time.monotonic() > stop_at):
            return 0


if __name__ == "__main__":
    sys.exit(main())
