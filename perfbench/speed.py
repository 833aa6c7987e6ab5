"""Machine speed, measured between operations with a fixed kernel.

The benchmark is meant for small shared VMs, whose speed drifts: on
the 2-vCPU VM it was tuned on, numpy FFT throughput moved between
11.9k and 17.0k transforms a second in consecutive 4-second windows,
with no steal time and the process always on a CPU.  That drift is
longer than a run, so medians over a run do not remove it.

A Speedometer times a fixed kernel that shares no code with hhalf (a
pass over an 8 MiB array, small FFTs, a small SVD, an interpreter
loop and a JSON encode, roughly the mix of work the workloads do)
between operations, about once per EVERY_S.  Each operation's time is
scaled by REFERENCE_S over the mean kernel time within WINDOW_S of the
operation, so a timing reads as seconds at the speed at which the
kernel takes REFERENCE_S, about the VM's fast phase.  A change to
hhalf moves the operations and not the kernel, so it shows in full.
"""

import json
import time

import numpy as np

REFERENCE_S = 0.006  # kernel time that defines the reference speed
EVERY_S = 0.25  # least time between two samples
WINDOW_S = 3.0
RUNS = 2
MAX_OWED = 8


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(0)
        # The stream is four times the 2 MiB per-core L2 of that VM, so
        # it comes from the shared L3 or memory whatever the operations
        # before it left in cache, like the large arrays of the workloads.
        self.stream = np.zeros(2**20)
        self.signal = rng.standard_normal((4, 2048)) + 0j
        self.matrix = rng.standard_normal((64, 64))
        self.record = [{"k": [float(v) for v in rng.standard_normal(8)]} for _ in range(64)]
        self.samples = []  # (midpoint, kernel seconds)
        self.last = None  # perf_counter at the end of the last sample

    def kernel(self):
        np.add(self.stream, 1.0, out=self.stream)
        np.fft.fft(self.signal, axis=1)
        np.linalg.svd(self.matrix)
        total = 0
        for i in range(2000):
            total += i * i
        json.dumps(self.record)

    def sample(self, count=1):
        """Take `count` timings of RUNS runs of the kernel."""
        for _ in range(count):
            start = time.perf_counter()
            for _ in range(RUNS):
                self.kernel()
            self.last = time.perf_counter()
            self.samples.append((0.5 * (start + self.last), self.last - start))

    def catch_up(self):
        """Sample once per EVERY_S since the last sample, at most MAX_OWED
        times, so long operations get as many samples around them as
        short ones."""
        if self.last is None:
            self.sample(MAX_OWED)
            return
        owed = int((time.perf_counter() - self.last) / EVERY_S)
        if owed:
            self.sample(min(owed, MAX_OWED))

    def scale(self, start, end):
        """Factor for work done from perf_counter `start` to `end`."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S * len(near) / sum(near)
