"""Timing against a reference probe, so that most host-speed drift cancels.

On a shared host the speed one process gets drifts by 20-40 % within a
minute, in CPU time as much as in wall time.  On a 2-CPU "Intel(R) Xeon(R)
Processor" VM shared with other tenants, a fixed pure-Python loop timed in
20 s runs spread by 24 % (IQR over median) between runs, and the median
query time of a fixed query set by 19 %.  A fixed reference workload slows
down with the program, so every timed region is bracketed by two short
probes and reported scaled to reference speed:

    scaled = wall × REF_PROBE_S / median(probes within WINDOW_S of it)

On a host where the probe takes REF_PROBE_S this is the wall time.  The
probe is graph code of the program's kind (dict-of-lists adjacency,
breadth-first search in pure Python) and never changes with the program.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import deque

# Median probe time on the machine the bounds were set on (that VM, Python
# 3.11), in seconds.
REF_PROBE_S = 0.0020
# A probe is the median of this many timed walks, so one preemption does
# not move it.
PROBE_WALKS = 3
# A region is scaled by the median of the probes taken from WINDOW_S before
# it starts to WINDOW_S after it ends (at least the two that bracket it):
# one probe is noisy, and the host's speed moves over seconds.  Of 1, 2, 4
# and 8 s, and one factor per run, 4 s gave the steadiest metrics overall;
# one factor per run follows none of the drift within a run.
WINDOW_S = 4.0
# Slack for the bracketing probe after a region, which ends this much later.
MAX_PROBE_S = 0.1
_VERTICES = 300
_DEGREE = 6
_SOURCES = 12


def reference_graph() -> list[list[int]]:
    rng = random.Random(0)
    adj: list[list[int]] = [[] for _ in range(_VERTICES)]
    for _ in range(_VERTICES * _DEGREE // 2):
        a, b = rng.randrange(_VERTICES), rng.randrange(_VERTICES)
        adj[a].append(b)
        adj[b].append(a)
    return adj


def walk(adj: list[list[int]]) -> int:
    """Breadth-first search from a few sources; the summed depths."""
    total = 0
    for src in range(_SOURCES):
        depth = {src: 0}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    queue.append(w)
        total += sum(depth.values())
    return total


class Speedometer:
    """Probes the host between timed regions and scales each region by the
    median of the probes taken within WINDOW_S of it."""

    def __init__(self) -> None:
        self.adj = reference_graph()
        self.expected = walk(self.adj)
        self.probes: list[tuple[float, float]] = []  # (when, seconds)
        self._t0 = 0.0

    def probe(self) -> float:
        times = []
        for _ in range(PROBE_WALKS):
            t0 = time.perf_counter()
            got = walk(self.adj)
            times.append(time.perf_counter() - t0)
            if got != self.expected:
                raise RuntimeError("reference probe gave a different result")
        p = statistics.median(times)
        self.probes.append((time.perf_counter(), p))
        return p

    def start(self) -> None:
        self.probe()
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(start, wall seconds) of the region since start()."""
        wall = time.perf_counter() - self._t0
        self.probe()
        return self._t0, wall

    def scaled(self, start: float, wall: float, window: float | None = None) -> float:
        """A region's wall time scaled to reference speed.  Call it once the
        probes after the region are taken."""
        w = WINDOW_S if window is None else window
        near = [p for t, p in self.probes if start - w <= t <= start + wall + w + MAX_PROBE_S]
        return scale(wall, statistics.median(near))


def scale(wall: float, probe: float) -> float:
    return wall * REF_PROBE_S / probe
