"""The machine's speed, sampled while a workload runs, and times scaled by it.

The cores of a shared host do not run at one speed: on the 2-core Xeon
(2.0 GHz, Python 3.11.7) this benchmark was defined on, a fixed loop of
Fraction arithmetic took 3.5 ms in some stretches and 6-7 ms in others, the
stretches lasting from a fraction of a second to tens of seconds.  Over 10 s
windows the mean time of that loop varied by 21% (coefficient of
variation), so one pass over a workload varied about as much.

A SIGALRM timer runs a small calibration loop every INTERVAL seconds in the
main thread, between the bytecodes of whatever operation is running, and
records how long it took.  A span's time at reference speed is its measured
time, less the calibration loops run inside it, multiplied by REF_S over
the calibration time around it: the time it would have taken on a core
that runs the loop in REF_S seconds.  Over 11 to 17 passes in one process,
passes scaled this way varied by 2-3% where their measured times varied by
14-16%; the median set-up time of 11 probes varied by 5% where measured it
varied by 15%.
"""

import bisect
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.025
# the calibration loop's time in the fast stretches of the machine above
REF_S = 3.4e-4

# fixed inputs of the calibration loop
_ROWS = ((1, 2, 0, -1, 3, 1), (0, 1, 1, 2, -1, 1), (2, 1, -3, 1, 0, 1), (1, 0, 1, 1, 1, -2))
_POLY = {(i, j): Fraction(i - j, 3) for i in range(4) for j in range(3)}
_FACTOR = (((0, 1), Fraction(1, 2)), ((1, 0), Fraction(-2)))
_SETS = ((0, 1), (1, 2), (0, 2), (2, 3))


def calibration_loop():
    """Fixed work of the kinds the library does, written here so that a change
    to the library cannot change it: row reduction over Q, a product of
    sparse polynomials, joins of frozensets."""
    rows = [[Fraction(x) for x in r] for r in _ROWS]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    product = {}
    for (e1, e2), c in _POLY.items():
        for (d1, d2), k in _FACTOR:
            key = (e1 + d1, e2 + d2)
            product[key] = product.get(key, 0) + c * k
    flats = {frozenset(x) for x in _SETS}
    for a in list(flats):
        for b in list(flats):
            flats.add(a | b)
    return rank, product, flats


class SpeedSampler:
    """Times of the calibration loop, taken every INTERVAL seconds while started."""

    def __init__(self):
        self.starts = []
        self.costs = []
        self._previous = None

    def _sample(self, signum, frame):
        t = perf_counter()
        calibration_loop()
        self.starts.append(t)
        self.costs.append(perf_counter() - t)

    def start(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start, end):
        """(measured seconds, seconds at reference speed) of the span [start, end).

        Calibration loops inside the span are taken out of its measured time;
        their mean speed gives the scale.  A span too short to hold one uses
        the loops just before and after it.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.costs[lo:hi]
        near = inside or self.costs[max(lo - 1, 0):lo + 1]
        if not near:
            raise RuntimeError("no speed sample: the sampler was not started")
        seconds = end - start - sum(inside)
        return seconds, seconds * REF_S * sum(1 / c for c in near) / len(near)
