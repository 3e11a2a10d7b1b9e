"""Shared helpers for the service frontend tests.

``collect`` bounds every wait on a request's event stream, so a frontend
that never dispatches a queued cell (a lost dispatcher wake-up, say)
fails its test within seconds instead of hanging the suite.
``OverlapProbe`` is a scheduler-shaped backend stub that takes a fixed
time per engine pass and records how many passes overlap.
"""

import asyncio
import threading
import time

import numpy as np

from repro.core.results import VerificationOutcome, VerificationResult
from repro.engine.results import EngineReport

#: Longest a test waits for one request's verdicts, in seconds.
COLLECT_SECONDS = 30.0


async def collect(handle, seconds: float = COLLECT_SECONDS):
    """``handle.collect()``, failing with ``asyncio.TimeoutError`` after
    ``seconds``."""
    return await asyncio.wait_for(handle.collect(), seconds)


def _verdict() -> VerificationResult:
    return VerificationResult(
        outcome=VerificationOutcome.VERIFIED,
        contained=True,
        certified=True,
        margin=1.0,
        iterations_phase1=1,
        iterations_phase2=0,
        time_seconds=0.0,
        stage="box",
    )


class OverlapProbe:
    """A scheduler-shaped stub that measures its own concurrency: the
    sleep is long enough for genuinely parallel calls to overlap, and
    ``peak`` records the most calls ever in flight at once."""

    def __init__(self, delay_seconds: float = 0.01):
        self.delay_seconds = delay_seconds
        self._lock = threading.Lock()
        self._inflight = 0
        self.peak = 0
        self.calls = 0

    def certify(self, xs, labels, epsilon, clip_min=0.0, clip_max=1.0):
        with self._lock:
            self._inflight += 1
            self.calls += 1
            self.peak = max(self.peak, self._inflight)
        time.sleep(self.delay_seconds)
        with self._lock:
            self._inflight -= 1
        count = np.atleast_2d(xs).shape[0]
        return EngineReport(results=[_verdict() for _ in range(count)])
