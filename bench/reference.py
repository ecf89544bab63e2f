"""Reference work timed next to every op, to correct op times for the
machine's speed at the moment the op ran.

On a shared machine the speed of a core drifts by 10-40% over tens of
seconds, which moves a run's median op time as much as a real change
would.  The reference is fixed work that does not use ``delchan``: a loop
of small-array numpy steps (as in the embedding DP), pure-Python integer
arithmetic (as in the per-replica loops) and sorts and cumulative sums of
a 2 MB array (as in the output stream).  Its arrays are allocated once, so
it adds about 4 MB to the peak resident set.  An op's normalized time is its
seconds times ``NOMINAL_S`` over the mean of the reference times measured
just before and just after it, so it reads in seconds on a machine where
the reference takes ``NOMINAL_S``.  A change to ``delchan`` moves op times
and leaves the reference alone.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# about the median reference time on the 2-core Intel Xeon VM the
# benchmark was defined on (0.05-0.06 s from run to run); it only scales
# the normalized times, so it stays fixed
NOMINAL_S = 0.05


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._bits = rng.integers(0, 2, 1500).tolist()
        self._row_bits = rng.integers(0, 2, 1400)
        self._random = rng.random(250_000)
        self._work = np.empty_like(self._random)

    def seconds(self, passes: int) -> float:
        """Mean wall time of one pass of the reference work, over ``passes``."""
        t0 = perf_counter()
        for _ in range(passes):
            row = np.zeros(self._row_bits.size + 1)
            row[0] = 1.0
            for bit in self._bits:
                row[1:] += (self._row_bits == bit) * row[:-1]
                row *= 0.5
            acc = 0
            for i in range(150_000):
                acc += i * i % 7
            for _ in range(6):
                np.copyto(self._work, self._random)
                self._work.sort()
                np.cumsum(self._work, out=self._work)
        return (perf_counter() - t0) / passes
