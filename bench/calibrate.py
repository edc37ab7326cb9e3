"""Host-speed calibration with a fixed kernel of the benchmark's own code.

On a shared host the speed of one CPU changes with the load of other
tenants: the same nilflow operation took from 2.0 to 3.3 s in consecutive
runs, and whole runs sat in a fast or a slow period.  No run length the
time budget allows averages that out.  So the benchmark times this kernel
between operations and reports each time scaled to the host speed at which
the kernel takes REFERENCE_WALL_S (REFERENCE_CPU_S of CPU):

    reported = measured * REFERENCE / kernel time measured around it

The kernel shares no code with nilflow and never changes with it, so a change
in nilflow's own speed shows 1:1 while a change in the host's speed mostly
cancels.  Its mix resembles nilflow's: small einsums and tensor reshuffles
from problems.py plus plain Python loops.  The raw times are reported too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import problems

# Median kernel time on a 2-CPU x86_64 host (Python 3.11, numpy 2.4) when the
# benchmark was defined.  Only a unit: any fixed value gives the same ratios.
REFERENCE_WALL_S = 0.010
REFERENCE_CPU_S = 0.010


def _data():
    rng = np.random.default_rng(0)
    p = problems.survey_problem(rng, 5, True)
    B = rng.standard_normal((5, 5))
    return p.mu, B - B.T, np.eye(5) + 0.1 * rng.standard_normal((5, 5))


_MU, _B, _A = _data()


def kernel():
    """Fixed work of about 10 ms; returns a number so nothing is optimised away."""
    acc = 0.0
    for _ in range(40):
        H = problems.dense_d(_B, _MU)
        acc += float(problems.push_bracket(_A, _MU)[0, 1, 2]) + float(problems.pack(H)[0])
        acc += sum(i * i for i in range(400)) * 1e-9
    return acc


def sample():
    """(wall, cpu) seconds of one kernel run."""
    c0, w0 = time.process_time(), time.perf_counter()
    kernel()
    return time.perf_counter() - w0, time.process_time() - c0


def speed(samples):
    """(wall, cpu) scale factors from kernel samples: reference / median measured."""
    return (REFERENCE_WALL_S / statistics.median(s[0] for s in samples),
            REFERENCE_CPU_S / statistics.median(s[1] for s in samples))
