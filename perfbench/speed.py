"""Wall-clock intervals scaled to a reference CPU speed.

Shared machines drift in speed by tens of percent over seconds and
minutes, so raw wall times of two runs of the same code disagree by more
than any useful regression bound.  A fixed pure-Python calibration task,
owned by the benchmark so that no library change can move it, is timed
every TICK_S seconds while measuring.  Each measured interval is scaled by
CAL_REF_S over the median of the calibration samples taken around it: the
result is the time the interval would have taken at reference speed.
"""
from __future__ import annotations

import time
from statistics import median

TICK_S = 0.005  # measuring time between calibration samples
WINDOW = 4  # calibration samples used on each side of an interval
# calibration time that defines reference speed: about its time on the
# 2-core Intel Xeon (2.1 GHz, CPython 3.11) the benchmark was written on,
# when that shared machine ran at its fastest
CAL_REF_S = 0.0004


def _fixed_graph(n=300, m=1500):
    """Adjacency lists of a fixed pseudo-random multigraph (LCG)."""
    adj = [[] for _ in range(n)]
    x = 12345
    for _ in range(m):
        x = (1103515245 * x + 12345) % 2**31
        a = x % n
        x = (1103515245 * x + 12345) % 2**31
        b = x % n
        adj[a].append(b)
        adj[b].append(a)
    return adj


_ADJ = _fixed_graph()


def _dfs(adj):
    seen = bytearray(len(adj))
    order = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = 1
        stack = [(s, iter(adj[s]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if not seen[w]:
                    seen[w] = 1
                    order.append(w)
                    stack.append((w, iter(adj[w])))
                    break
            else:
                stack.pop()
    return order


def calibrate():
    t0 = time.perf_counter()
    _dfs(_ADJ)
    _dfs(_ADJ)
    return time.perf_counter() - t0


class ScaledClock:
    """Collects raw intervals by bucket and scales them afterwards.

    Call tick() before each measured interval and add() after it; call
    finish() once after the last interval so every interval has
    calibration samples on both sides.
    """

    def __init__(self):
        self.samples = []
        self._raw = {}
        self._last = -TICK_S

    def _sample(self):
        self.samples.append(calibrate())
        self._last = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self._last >= TICK_S:
            self._sample()

    def add(self, bucket, seconds):
        self._raw.setdefault(bucket, []).append((seconds, len(self.samples)))

    def finish(self):
        self._sample()

    def scaled(self, bucket):
        s = self.samples
        return [sec * CAL_REF_S / median(s[max(0, j - WINDOW):j + WINDOW])
                for sec, j in self._raw.get(bucket, [])]

    def total(self, bucket):
        return sum(self.scaled(bucket))

    def speed(self):
        """Reference calibration time over the median measured one; above
        1 the machine ran faster than reference."""
        return CAL_REF_S / median(self.samples)
