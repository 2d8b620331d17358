"""Host speed probe for the liesymp benchmark.

The benchmark runs on a few cores of a shared host whose speed changes by
tens of percent from one second to the next and from one minute to the
next, as other tenants come and go. So each measured process times
`probe()`, a fixed piece of exact rational arithmetic of the kind liesymp
spends its time on (Fraction products and sums over small matrices, plus
dict churn), right before and right after each command and, through
`Sampler`, every INTERVAL_S seconds while the command runs. A command's
time in reference seconds is its measured time (probe time taken out)
times NOMINAL_S over the median of those probe times: the seconds it would
have taken on a host that runs the probe in NOMINAL_S.

The probe does not import liesymp, so no change to the library can change
its time.

    python3 perfbench/calibrate.py [N]   # times N probes, in seconds
"""

from __future__ import annotations

import signal
import statistics
import sys
import time
from fractions import Fraction

# median probe time on the 2-vCPU VM where the benchmark was defined; it
# only fixes the scale of reported times
NOMINAL_S = 0.011
INTERVAL_S = 0.2

_N = 6
_A = [[Fraction((3 * i + 5 * j) % 11 - 5, (i + 2 * j) % 5 + 1)
       for j in range(_N)] for i in range(_N)]
_B = [[Fraction((7 * i + j) % 13 - 6, (2 * i + j) % 7 + 1)
       for j in range(_N)] for i in range(_N)]


def _work() -> int:
    a, bits = _A, 0
    cols = list(zip(*_B))
    for _ in range(6):
        a = [[sum((x * y for x, y in zip(row, col)), Fraction(0))
              / (1 + abs(row[0]))
              for col in cols] for row in a]
        seen = {}
        for row in a:
            for x in row:
                seen[x] = seen.get(x, 0) + 1
        bits += max(x.denominator.bit_length() for x in seen)
    return bits


def probe() -> float:
    """Seconds taken by one fixed piece of rational arithmetic."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(probes: list[float]) -> float:
    """Factor from measured to reference seconds, given the probe times
    taken around and during the measured span."""
    return NOMINAL_S / statistics.median(probes)


class Sampler:
    """While entered, times probe() every INTERVAL_S seconds of wall time
    from a SIGALRM handler; `samples` holds the probe times."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def main() -> int:
    probe()  # warm-up
    times = [probe() for _ in range(int(sys.argv[1]) if len(sys.argv) > 1
                                    else 25)]
    print(" ".join(f"{t:.4f}" for t in times))
    print(f"median {statistics.median(times):.4f} s "
          f"(NOMINAL_S {NOMINAL_S})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
