"""A fixed piece of interpreter work that gauges how fast the machine runs now.

On a host shared with other work the same Python code runs up to twice as
slowly for minutes at a time, in wall and in CPU time alike, so raw timings
of two runs of one program disagree by more than any bound worth gating on.
The benchmark therefore times this probe right before every task and right
around every set-up, and reports each timing multiplied by
``REFERENCE_S / mean probe time`` near it: the time the work would have
taken with the machine at its reference speed.  The probe runs no conespec
code, so a change to the program cannot move it, and it imports only
``math`` and ``time``, so running it before ``import conespec`` preloads
nothing that set-up time should include.
"""

from __future__ import annotations

import math
import time

# Median probe time on a quiet 2-vCPU x86_64 VM (the baseline's machine).
REFERENCE_S = 0.00115
AROUND_SETUP = 5  # probe runs right before and again right after each set-up


def _work() -> float:
    acc = 0.0
    table: dict = {}
    for i in range(1, 1501):
        x = math.sqrt(i) * math.log(i) / (1.0 + i)
        acc += math.lgamma(1.0 + i % 40) * x + complex(x, 1.0 / i).real
        table[i % 97] = table.get(i % 97, 0.0) + x
    return acc + sum(table.values())


def probe_s() -> float:
    """Wall time of one run of the probe's work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(samples: list) -> float:
    """Factor that turns a timing taken among ``samples`` into reference time."""
    return REFERENCE_S * len(samples) / sum(samples)
