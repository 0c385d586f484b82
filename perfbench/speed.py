"""Machine-speed probe: rescales timings to a fixed reference speed.

The benchmark runs on a shared host whose speed drifts by up to 40%
over minutes, for every process alike, so identical work reads very
different walls from one run to the next.  A *probe* is a fixed piece
of pure-Python work that belongs to the benchmark, not to the program,
so a change to the program cannot speed it up or slow it down.  While a
timed region runs, a :class:`SpeedSampler` runs the probe every
``INTERVAL_S`` from a ``SIGALRM`` handler, in the same process and on
the same core as the work, and keeps each probe's CPU time.  A timing
is then reported at the reference speed::

    rescaled = raw wall * PROBE_REF_S / mean probe time

that is, in seconds of a machine on which one probe takes
``PROBE_REF_S``.  The probes' own wall time is taken out of the raw
wall first.  The mean follows the speed through a region better than
the median does; the slowest and fastest tenth of the probes are left
out of it, so one probe that an interrupt lands in does not count.  A program that does more work reads a longer rescaled
time; a host that runs slower for a while does not.
"""

from __future__ import annotations

import signal
import statistics
import time

#: One probe's CPU time at the reference speed (about this machine's
#: median: a 2-CPU VM, Python 3.11).
PROBE_REF_S = 0.0025
#: Seconds between two probes in a sampled region (about 2% overhead).
INTERVAL_S = 0.1
#: Probes run right before and right after every region, so a region
#: shorter than ``INTERVAL_S`` still has samples.
BRACKET = 5
#: Share of the probes left out at each end of the mean.
TRIM = 0.1


def probe(rounds: int = 3500) -> float:
    """Run the fixed probe work; return its CPU seconds.

    Dict and list traffic with small-int arithmetic and method calls,
    the mix the program's interpreters and solver run.  It creates no
    container objects, so it never triggers the cyclic collector, whose
    cost would depend on the program's heap.
    """
    table = [0] * 64
    seen = {}
    get = seen.get
    x = 0x2545F491
    t0 = time.thread_time()
    for i in range(rounds):
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        j = x & 63
        table[j] = (table[j] + i) & 0xFFFF
        k = table[(j * 7) & 63] & 255
        seen[k] = get(k, 0) + 1
    return time.thread_time() - t0


class SpeedSampler:
    """Samples the machine's speed around and during a timed region.

    With *periodic* the probe also runs every ``INTERVAL_S`` inside the
    region; :attr:`inside_s` is the wall those probes took, which
    :meth:`rescale` removes from the region's wall.  Without it only the
    bracketing probes run, which leaves a traced region's spans
    untouched.
    """

    def __init__(self, periodic: bool = True):
        self.periodic = periodic
        self.samples: list[float] = []
        self.inside_s = 0.0
        self._previous = None

    def _bracket(self) -> None:
        self.samples.extend(probe() for _ in range(BRACKET))

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.inside_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._bracket()
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._bracket()

    @property
    def probe_s(self) -> float:
        """Mean probe CPU time over the region, trimmed by ``TRIM``."""
        samples = sorted(self.samples)
        cut = int(len(samples) * TRIM)
        return statistics.fmean(samples[cut:len(samples) - cut])

    def rescale(self, wall: float) -> float:
        """*wall* (which the region's probes ran inside, if periodic) at
        the reference speed."""
        return (wall - self.inside_s) * PROBE_REF_S / self.probe_s
