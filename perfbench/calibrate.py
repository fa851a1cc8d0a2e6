"""Host-speed calibration for the benchmark's timings.

The shared host this benchmark was built on runs the same code up to 2x
slower for seconds to minutes at a time, and its CPU time slows with its
wall time, so neither longer runs nor CPU clocks take the swing out of a
run's median.  A fixed kernel that uses no rotolock code is timed between
operations; each operation's time is scaled by REFERENCE_S over the
geometric mean of the kernel times on either side of it.  A change to the
program moves the operation and not the kernel, so it still shows in full;
a change in the host's speed moves both and largely cancels.

A workload names the kernel closest to its own mix of work (KERNELS).  The
"python" kernel is the geometric mean of two parts: NumPy formatting an
array to CSV text, and building and probing a 60 000-entry dict.  Of the
kernels tried (integer arithmetic, scipy.integrate.quad callbacks, savetxt
formatting, large NumPy array passes, dicts of two sizes, and their pairs)
this pair tracked the interpreter-bound workloads best when all three were
interleaved for 4.5 minutes on that host: over 10- and 20-second windows
the spread of operation medians fell from 14-18 % to 4-9 %.  It
over-corrected the array-bound simulate-long, which slows less in the
host's slow phases; passes over 600 000-element NumPy arrays track that
one better (over 20-second windows, 33 % raw, 10 % with the "python" kernel,
4 % with the "array" one).  Interpreter start-up
(set-up time) is normalised instead by a fresh interpreter that imports
NumPy (SPAWN_CODE), which tracked it best of a bare interpreter, NumPy, and
NumPy with scipy.linalg: over 15-second windows the spread of set-up medians
fell from 23 % to 7 %.
"""

from __future__ import annotations

import io
import math
from time import perf_counter

import numpy as np

# typical times on the reference host (2 shared vCPUs, Xeon, Python 3.11.7),
# so that normalised times read as seconds on that host
REFERENCE_S = {"python": 0.0296, "array": 0.0245}
SPAWN_REFERENCE_S = 0.2

SPAWN_CODE = "import numpy"
FORMAT_ROWS = 4000
DICT_ENTRIES = 60_000
ARRAY_SIZE = 600_000

_ROWS = np.column_stack([np.linspace(0.0, 1.0, FORMAT_ROWS), np.sin(np.arange(FORMAT_ROWS))])
_ARRAY = np.linspace(0.0, 1.0, ARRAY_SIZE)


def _format() -> None:
    np.savetxt(io.StringIO(), _ROWS, fmt="%.17g", delimiter=",")


def _dict() -> None:
    n = DICT_ENTRIES
    table = {i: (i, str(i)) for i in range(n)}
    s = 0
    for i in range(0, n, 3):
        s += table[(i * 7919) % n][0]


def _array() -> None:
    x = np.sin(3.0 * _ARRAY)
    y = np.cos(2.0 * _ARRAY)
    np.cumsum(x * y)
    m = np.outer(x[:300], y[:300])
    (m @ m).sum()


KERNELS = {"python": (_format, _dict), "array": (_array,)}


def _seconds(part) -> float:
    start = perf_counter()
    part()
    return perf_counter() - start


def measure(kernel: str) -> float:
    """One run of a kernel: the geometric mean of its parts' wall times, in
    seconds."""
    parts = KERNELS[kernel]
    return math.prod(_seconds(part) for part in parts) ** (1.0 / len(parts))


def normalise(seconds: float, before: float, after: float, reference: float) -> float:
    """seconds, measured between calibration times before and after, in
    seconds at the reference host's speed (reference: the calibration's
    time there)."""
    return seconds * reference / math.sqrt(before * after)
