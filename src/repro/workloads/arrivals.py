"""Deterministic open-loop arrival generation with diurnal rate curves.

The macro benchmark drives traffic the way a real service sees it: an
*open-loop* arrival process whose rate follows a compressed "day" —
quiet overnight trough, ramp through the morning, midday peak, evening
tail. Arrivals do not wait for responses (open loop), so saturation
shows up as queueing and drops rather than as a silently slowed driver.

Arrivals are a non-homogeneous Poisson process sampled by *thinning*:
candidate arrivals are drawn from a homogeneous process at the peak
rate, and each candidate is accepted with probability ``rate(t)/peak``.
The thinning is event-free: the generator draws candidates in a loop and
puts only the next *accepted* arrival on the event loop, so a rejected
candidate costs two draws and no event. The draws run ahead of the
clock by up to one accepted gap, which is why the rng stream must be
private to the generator. All randomness comes from an injected
:mod:`repro.sim.rng` stream, so two same-seed runs produce
byte-identical arrival timelines.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.sim.eventloop import EventLoop


class DiurnalProfile:
    """Rate curve ``rate(t)``: a raised-cosine day shape in requests/s.

    ``t = 0`` is midnight (the trough at ``base_rps``); the peak of
    ``peak_rps`` lands mid-"day". ``day_seconds`` compresses the 24h
    cycle into simulated time; the curve repeats for multi-day runs.
    The time-average rate is ``(base_rps + peak_rps) / 2``.
    """

    __slots__ = ("base_rps", "peak_rps", "day_seconds")

    def __init__(
        self, base_rps: float, peak_rps: float, day_seconds: float
    ) -> None:
        if base_rps < 0 or peak_rps < base_rps:
            raise ValueError(
                "need 0 <= base_rps <= peak_rps: %r, %r" % (base_rps, peak_rps)
            )
        if day_seconds <= 0:
            raise ValueError("day_seconds must be > 0: %r" % day_seconds)
        self.base_rps = float(base_rps)
        self.peak_rps = float(peak_rps)
        self.day_seconds = float(day_seconds)

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at scenario time ``t`` (seconds)."""
        x = (t / self.day_seconds) % 1.0
        shape = 0.5 - 0.5 * math.cos(2.0 * math.pi * x)
        return self.base_rps + (self.peak_rps - self.base_rps) * shape

    def mean_rate(self) -> float:
        return (self.base_rps + self.peak_rps) / 2.0

    def __repr__(self) -> str:
        return "DiurnalProfile(base=%.1f, peak=%.1f, day=%.1fs)" % (
            self.base_rps,
            self.peak_rps,
            self.day_seconds,
        )


class OpenLoopArrivals:
    """Schedules ``on_arrival(index)`` calls on the event loop by thinning.

    Parameters
    ----------
    loop:
        The simulation event loop.
    rng:
        A seeded ``random.Random`` stream (e.g.
        ``RngStreams(seed).stream("arrivals")``). It must be private
        to this generator: candidates are drawn ahead of the clock, by
        up to one accepted gap, so a second consumer of the stream
        would get draws that depend on how far thinning has run ahead.
    profile:
        The :class:`DiurnalProfile` rate curve.
    on_arrival:
        Called with the 1-based arrival index at each accepted arrival;
        the current virtual time is ``loop.clock.now``.
    duration:
        Scenario length in simulated seconds; no arrivals occur after
        ``start_time + duration``.

    ``candidates`` counts thinning candidates drawn so far and
    ``arrivals`` the accepted ones fired; ``finished`` turns true once a
    candidate lands past the deadline, at which point no arrival is
    pending. The loop fires exactly one event per accepted arrival.
    """

    def __init__(
        self,
        loop: EventLoop,
        rng,
        profile: DiurnalProfile,
        on_arrival: Callable[[int], None],
        duration: float,
    ) -> None:
        if duration <= 0:
            raise ValueError("duration must be > 0: %r" % duration)
        self._loop = loop
        self._rng = rng
        self._profile = profile
        self._on_arrival = on_arrival
        self.duration = float(duration)
        self.arrivals = 0
        self.candidates = 0
        self.finished = False
        self._started_at: Optional[float] = None
        self._deadline = 0.0

    def start(self) -> None:
        """Begin generating; idempotent-guarded against double starts."""
        if self._started_at is not None:
            raise RuntimeError("arrival process already started")
        self._started_at = self._loop.clock.now
        self._deadline = self._started_at + self.duration
        self._schedule_next(self._started_at)

    def _schedule_next(self, t: float) -> None:
        """Thin forward from time ``t``; schedule the next accepted arrival.

        Per candidate: the gap draw, then the accept draw against the rate
        at the candidate's own time. Rejected candidates never reach the
        event loop. Drawing past the deadline ends the process.
        """
        rng = self._rng
        peak = self._profile.peak_rps
        rate = self._profile.rate
        started_at = self._started_at
        deadline = self._deadline
        candidates = self.candidates
        while True:
            t += rng.expovariate(peak)
            if t > deadline:
                self.finished = True
                break
            candidates += 1
            if rng.random() * peak < rate(t - started_at):
                self._loop.call_transient_at(t, self._candidate)
                break
        self.candidates = candidates

    def _candidate(self) -> None:
        # Fires once per accepted arrival; the clock holds the arrival's
        # candidate time exactly, so thinning resumes from it.
        self.arrivals += 1
        self._on_arrival(self.arrivals)
        self._schedule_next(self._loop.clock.now)

    def __repr__(self) -> str:
        return "OpenLoopArrivals(%d arrivals / %d candidates, %s)" % (
            self.arrivals,
            self.candidates,
            "finished" if self.finished else "running",
        )
