"""A fixed reference computation that tracks the host's speed.

On a small shared host the speed of the CPU drifts by up to 20 % over
tens of seconds, in wall and CPU time alike, so two runs of the same code
minutes apart can differ by that much. The drift is shared by all work in
the process: timed next to each other, the package's calls and this
kernel slow down together. Dividing each call's time by kernel samples
taken just before and after it removes most of the drift while leaving
every change to the package's own speed in the ratio.

The kernel is benchmark code only, in four parts of about 30 ms each:
permutation enumeration with tuples and sets, products of permutation rows
looked up by their bytes (the shape of an indexed-group product), mpmath
exp/log at 60 digits, and numpy row gathers over a 320 KB array.
"""

import time

import numpy as np
from mpmath import mp

import oracles as O

INTERVAL = 1.0      # seconds of timed calls between two reference samples


class Reference:
    def __init__(self):
        self._gens = O.alternating_gens(7)
        self._a6 = np.array(O.enumerate_group(O.alternating_gens(6)), dtype=np.int8)
        self._index = {row.tobytes(): i for i, row in enumerate(self._a6)}
        rng = np.random.default_rng(20260816)
        n = len(self._a6)
        self._pairs = rng.integers(0, n, size=(6000, 2)).tolist()
        self._rows = rng.integers(0, 10, size=(1 << 15, 10)).astype(np.int8)
        self._perm = np.argsort(self._rows, axis=1).astype(np.int8)
        self.pending = INTERVAL

    def _kernel(self):
        for _ in range(3):
            O.enumerate_group(self._gens)
        rows, index = self._a6, self._index
        for i, j in self._pairs:
            index[rows[j][rows[i]].tobytes()]
        with mp.workdps(60):
            x = mp.mpf(3)
            for i in range(1200):
                x = mp.log(mp.exp(x) + i)
        a = self._rows
        for _ in range(11):
            a = np.take_along_axis(self._perm, a, axis=1)

    def sample(self):
        """Seconds of one kernel run."""
        t0 = time.perf_counter()
        self._kernel()
        self.pending = 0.0
        return time.perf_counter() - t0

    def due(self, spent):
        """Count `spent` seconds of timed calls; True when a sample is due."""
        self.pending += spent
        return self.pending >= INTERVAL
