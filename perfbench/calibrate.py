"""Speed reference for the benchmark's timings.

The host is a small guest on a shared machine whose speed flips between
levels up to about 1.6x apart, in stretches of 10 ms to minutes, with the
load its neighbours put on the shared cores and caches.  A plain wall time
therefore measures the neighbours as much as the program.  The benchmark
samples the machine's speed with ``Probe``, a short fixed kernel written
here, with inputs that never change, and reports every time rescaled to the
speed at which the probe takes ``NOMINAL_S``:

    reported = time * mean over the probes taken during it of NOMINAL_S / probe time

During a job, ``Sampler`` runs the probe from a timer signal every
``EVERY_S`` and takes the probes' own time out of the job's; a latency
sample is rescaled by the probes on either side of it (see ``Stamped`` in
``worker.py``).  Set-up time is not rescaled: it is mostly process start-up
and module loading in a child process, which the probe does not track.

The probe does the per-record work of an audit in miniature (JSON lines
parsed into records, a pure-Python betting recursion, and a tuple holding a
backlog of 8000 items grown one item at a time, copying the backlog each
time as a batched audit's pending batch does) and uses none of the
program's code, so a change to the program moves the reported time while a
change of machine speed largely cancels.  Without the backlog part, latency
p99 on audit-async, whose tail is that copying, spread four times as much
over ten seeded runs.
The probe leaves numpy out: a numpy part ran twice as slow right after the
job had used the caches, which would let the program's own cache footprint
leak into the factor.  The raw wall times are kept in each run's detail line.
"""
from __future__ import annotations

import json
import signal
import time

import numpy as np

import reference
import workloads as wl

NOMINAL_S = 0.0025  # probe time that defines the reference speed, about its time mid-job here
EVERY_S = 0.02
_SEED = 20230527  # fixed: the probe's inputs are the same in every run
_BETS = 1_000
_LINES = 60
_BACKLOG = 8_000  # items already pending when the probe's batch grows
_GROW = 40


class Probe:
    """The speed probe; inputs are built once, outside any timing."""

    def __init__(self):
        rng = np.random.default_rng(_SEED)
        self._args = (rng.random(_BETS) - 0.5).tolist()
        self._lines = [json.dumps({"t": i, "group": i % 2, "y_hat": a}) for i, a in enumerate(self._args[:_LINES])]
        self._backlog = tuple(rng.random(_BACKLOG).tolist())

    def __call__(self) -> float:
        """Seconds one run of the probe takes."""
        t0 = time.perf_counter()
        for d in map(json.loads, self._lines):
            wl.Rec(d["t"], d["group"], d["y_hat"], None, None)
        game = reference._Game(-0.5, False, False)
        for g in self._args:
            game.bet(g)
        pending = self._backlog
        for x in self._args[:_GROW]:
            pending = pending + (x,)
        return time.perf_counter() - t0


def factor(probe_s) -> float:
    """Mean rescale factor of a set of probe times."""
    return sum(NOMINAL_S / s for s in probe_s) / len(probe_s)


class Sampler:
    """Runs the probe from a timer signal every ``EVERY_S`` while ``timed``
    runs its function, in this thread: no thread or process is added.  The
    probes' own time is taken out of the function's wall time."""

    def __init__(self, probe: Probe):
        self._probe = probe
        self._taken: list[float] = []
        self._spent = 0.0

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._taken.append(self._probe())
        self._spent += time.perf_counter() - t0

    def timed(self, fn) -> tuple[float, float, object]:
        """(seconds of ``fn()`` without the probes, rescale factor, result)."""
        self._taken = [self._probe()]
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            t0 = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._taken.append(self._probe())
        return wall - self._spent, factor(self._taken), out
