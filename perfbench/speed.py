"""Machine-speed calibration.

On a shared host the speed of this process drifts by up to 2x over seconds
to minutes (a fixed pure-Python loop, timed every 0.1 s for 150 s on a
2-core VM, varied between 0.73x and 1.24x of its median over 5 s windows).
Raw wall times then spread more across runs than any useful regression
bound. So the benchmark times a fixed kernel between ops and expresses
every duration in reference seconds: wall seconds times
``REFERENCE_KERNEL_S / kernel seconds``, i.e. the time the same work would
take on a machine where the kernel runs in ``REFERENCE_KERNEL_S``. The
kernel does what the library's inner loops do (dict and deque BFS over
small adjacency lists, then a sort), so both slow down together.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

# the kernel's median time on a 2-core CPython 3.11 VM in a quiet phase
REFERENCE_KERNEL_S = 0.0026
RECALIBRATE_AFTER_S = 0.2  # of op wall time
SMOOTH = 5  # measurements in the running median


def kernel():
    start = time.perf_counter()
    n = 400
    adj = [[(i * 7 + j * 13 + 1) % n for j in range(4)] for i in range(n)]
    for src in range(0, n, 40):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            x = queue.popleft()
            for w in adj[x]:
                if w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        sorted((d, v) for v, d in dist.items())
    return time.perf_counter() - start


def scale_now():
    """Reference seconds per wall second right now (median of 3 kernels)."""
    return REFERENCE_KERNEL_S / statistics.median(kernel() for _ in range(3))


class Speed:
    """The current scale: the median of the last SMOOTH measurements, one
    taken after every RECALIBRATE_AFTER_S of op wall time. A single
    measurement spans a few milliseconds and swings more than the drift it
    tracks; the median follows drift over about a second of ops."""

    def __init__(self):
        self.recent = deque((scale_now() for _ in range(SMOOTH)), maxlen=SMOOTH)
        self.scale = statistics.median(self.recent)
        self.since = 0.0

    def spent(self, wall):
        self.since += wall
        if self.since >= RECALIBRATE_AFTER_S:
            self.recent.append(scale_now())
            self.scale = statistics.median(self.recent)
            self.since = 0.0
