"""Host speed reference: a fixed piece of pure-Python work that does not use
`rainbowposet`, timed next to the workload so that its times can be
rescaled to one reference speed.

The sandbox is a shared 2-core guest whose single-core speed drifts by up
to 1.7x over minutes; no estimator inside one run removes that. The
reference drifts with it: in a 10-minute trial that interleaved 0.5 s of
forcing decisions with 0.8 s of this reference, the spread (IQR over
median) of 35 s window medians was 0.33 for the decisions alone and 0.04
for their ratio to the reference.
"""

from __future__ import annotations

import random
import statistics
import time

import cases

# One reference chunk takes this long at the reference speed, so a time t
# measured while a chunk takes r seconds is reported as t * REFERENCE_S / r.
REFERENCE_S = 0.025

_ROWS = cases.closed_rows(7, 0.3, random.Random(7))


def chunk():
    """Seconds taken by one reference chunk: the brute-force isomorphism
    signature of a fixed 7-element poset (5040 orderings)."""
    start = time.perf_counter()
    cases.signature(_ROWS, range(7))
    return time.perf_counter() - start


def sample(k):
    """Times of k reference chunks run back to back."""
    return [chunk() for _ in range(k)]


def scale(chunks):
    """Factor that rescales times measured beside these chunks to the
    reference speed. The mean, not the median: call times are summed, so a
    slow spell must weigh on the reference as it weighs on the calls."""
    return REFERENCE_S / statistics.fmean(chunks)
