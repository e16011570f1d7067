"""Host-speed calibration interleaved with the measured code.

On a shared host the speed of one core drifts by tens of percent within
seconds, and the other core does not follow it, so neither a calibration
before and after a run nor one on another core can correct for it.  The
pacer runs a fixed calibration chunk on the measuring core itself: from a
timer signal several times a second during the measured interval, and
once at each end.  A measured interval is then reported twice:

* ``raw``: elapsed seconds minus the time the chunks took;
* ``calibrated``: ``raw`` divided by the mean chunk time over the interval
  and multiplied by ``CHUNK_REF_S``, the chunk time on the reference
  machine, so that on a steady host of that speed both agree.

The chunk uses only numpy and the interpreter, never ``nematicq``, so a
change to the library cannot move it.  It runs between bytecodes of the
main thread and touches no state of the measured code.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

# median chunk time on the reference machine (2-core x86-64 VM, Python 3.11,
# numpy 2.4, one BLAS thread)
CHUNK_REF_S = 0.005
PERIOD_S = 0.1


class Pacer:
    """Calibration chunks on a timer; use as a context manager around measurements."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._tensors = rng.normal(size=(256, 3, 3))
        self._field = rng.normal(size=20480)
        self._grid = rng.normal(size=(16, 16, 5))
        self._frame = np.zeros((18, 18, 5))
        self._starts: list[float] = []
        self._times: list[float] = []
        self._spent = 0.0
        self._busy = False
        self._previous = None

    def chunk(self) -> None:
        """One calibration chunk.

        Half of it is batched 3x3 products, a field-sized vector op and a
        Python loop; the other half mimics a 16 x 16 gradient (a framed
        five-point stencil and a pointwise cubic in 3x3 matrices).
        Interleaved with the workloads, this mix tracked their speed better
        than either half alone, or than memory-streaming or sparse-solve
        chunks.
        """
        self._busy = True
        t0 = perf_counter()
        acc = 0.0
        for _ in range(40):
            sq = self._tensors @ self._tensors
            acc += float(np.sum(sq * sq))
            w = self._field * 1.0001 + acc * 1e-30
            acc += float(w @ w)
            for j in range(40):
                acc += j * 0.5
        q = self._grid
        for _ in range(25):
            ext = self._frame.copy()
            ext[1:-1, 1:-1] = q
            lap = 4.0 * q - ext[:-2, 1:-1] - ext[2:, 1:-1] - ext[1:-1, :-2] - ext[1:-1, 2:]
            m = np.empty((16, 16, 3, 3))
            m[..., 0, 0], m[..., 1, 1], m[..., 2, 2] = q[..., 0], q[..., 3], -q[..., 0] - q[..., 3]
            m[..., 0, 1] = m[..., 1, 0] = q[..., 1]
            m[..., 0, 2] = m[..., 2, 0] = q[..., 2]
            m[..., 1, 2] = m[..., 2, 1] = q[..., 4]
            f2 = np.einsum("...ij,...ij->...", m, m)[..., None, None]
            t = -0.6 * m - 2.0 * (m @ m - (f2 / 3.0) * np.eye(3)) + 2.0 * f2 * m
            acc += float(np.abs(lap[..., 0] + t[..., 0, 0] - t[..., 2, 2]).max())
        took = perf_counter() - t0
        self._starts.append(t0)
        self._times.append(took)
        self._spent += took
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        # a chunk slower than the period must not start another inside itself
        if not self._busy:
            self.chunk()

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """Seconds elapsed outside the chunks (a perf_counter that skips them)."""
        return perf_counter() - self._spent

    def spent(self) -> float:
        """Seconds spent in chunks so far."""
        return self._spent

    def measure(self, fn) -> tuple[float, float, object]:
        """Run ``fn()``; return (raw seconds, calibrated seconds, its result)."""
        self.chunk()
        first = len(self._times) - 1
        t0 = self.clock()
        out = fn()
        raw = self.clock() - t0
        self.chunk()
        speed = float(np.mean(self._times[first:])) / CHUNK_REF_S
        return raw, raw / speed, out

    def chunk_times(self) -> list[float]:
        return list(self._times)

    def chunk_log(self) -> tuple[np.ndarray, np.ndarray]:
        """Start times and durations of every chunk so far."""
        return np.array(self._starts), np.array(self._times)
