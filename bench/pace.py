"""Reference pace: timings scaled to a fixed speed of the host.

The speed of a small shared host swings by up to half over seconds to
minutes, alike for interpreter and numpy work, while the program stays
the same. Every child therefore also times a fixed reference workload
(``reference_work``), several times right after set-up and again after
its timed sections. The run reports each end-to-end timing at the
reference pace: the measured time scaled by ``REFERENCE_S`` over the
median reference time of all the run's children. A change to netsar
cannot move the reference workload, which uses numpy only; the measured
timings and the reference times are kept in the run's summary file.
"""

from __future__ import annotations

import statistics
import time

# median reference time on an unloaded 2-vCPU KVM guest (Python 3.11,
# numpy 2.4, BLAS threads 2), so paced and measured times are alike there
REFERENCE_S = 0.040
SAMPLES = 6
PACED = ("setup_s", "wall_s", "simulate_s", "reconstruct_s")


def reference_work() -> float:
    """A fixed mix of interpreter loop and single-threaded numpy, about 40 ms.

    No BLAS call: a two-thread matrix product on a shared host varies far
    more than, and apart from, netsar's own work.
    """
    import numpy as np

    total = 0
    for i in range(200_000):
        total += i * 7 % 13
    x = np.linspace(0.0, 50.0, 1 << 18)
    return total + float(np.abs(np.fft.fft(np.exp(1j * x))).max())


def time_reference(times: list[float]) -> None:
    """Append the duration of SAMPLES reference workloads to ``times``."""
    reference_work()  # untimed: the first call also plans the FFT
    for _ in range(SAMPLES):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)


def pace_factor(times: list[float]) -> float:
    """Factor that scales a measured time to the reference pace."""
    return REFERENCE_S / statistics.median(times)
