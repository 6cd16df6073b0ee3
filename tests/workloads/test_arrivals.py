"""Open-loop diurnal arrivals: deterministic, shaped, and bounded."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.eventloop import EventLoop
from repro.sim.rng import RngStreams
from repro.workloads.arrivals import DiurnalProfile, OpenLoopArrivals


class PerCandidateArrivals:
    """Reference thinning: one event per candidate, accepted or not.

    The straightforward form of the sampler, kept here as the oracle for
    :class:`OpenLoopArrivals`, which draws the same sequence but
    schedules only accepted arrivals. Per candidate, at its own fire
    time: the accept draw, then the gap to the next candidate.

    The two agree only while the rng stream is private to the generator:
    :class:`OpenLoopArrivals` draws ahead of the clock by up to one
    accepted gap, so a draw anyone else took in between would land at a
    different point of the sequence in each.
    """

    def __init__(self, loop, rng, profile, on_arrival, duration):
        self._loop = loop
        self._rng = rng
        self._profile = profile
        self._on_arrival = on_arrival
        self._started_at = loop.clock.now
        self._deadline = self._started_at + duration
        self.arrivals = 0
        self.candidates = 0
        self.finished = False

    def start(self):
        self._schedule_next(self._started_at)

    def _schedule_next(self, from_when):
        next_at = from_when + self._rng.expovariate(self._profile.peak_rps)
        if next_at > self._deadline:
            self.finished = True
            return
        self._loop.call_at(next_at, self._candidate)

    def _candidate(self):
        now = self._loop.clock.now
        self.candidates += 1
        accept = self._rng.random() * self._profile.peak_rps
        if accept < self._profile.rate(now - self._started_at):
            self.arrivals += 1
            self._on_arrival(self.arrivals)
        self._schedule_next(now)


def collect(seed, base=50.0, peak=200.0, day=20.0, duration=20.0):
    loop = EventLoop()
    profile = DiurnalProfile(base, peak, day)
    times = []
    arrivals = OpenLoopArrivals(
        loop,
        RngStreams(seed).stream("arrivals"),
        profile,
        lambda index: times.append((index, loop.clock.now)),
        duration=duration,
    )
    arrivals.start()
    loop.run_for(duration + 1.0)
    return arrivals, times


def test_profile_shape():
    profile = DiurnalProfile(100.0, 500.0, 86400.0)
    assert profile.rate(0.0) == pytest.approx(100.0)  # midnight trough
    assert profile.rate(43200.0) == pytest.approx(500.0)  # midday peak
    assert profile.rate(86400.0) == pytest.approx(100.0)  # wraps
    assert profile.mean_rate() == pytest.approx(300.0)
    # Monotone ramp through the morning.
    morning = [profile.rate(t) for t in range(0, 43200, 3600)]
    assert morning == sorted(morning)


def test_profile_validation():
    with pytest.raises(ValueError):
        DiurnalProfile(200.0, 100.0, 60.0)  # peak < base
    with pytest.raises(ValueError):
        DiurnalProfile(10.0, 20.0, 0.0)


def test_same_seed_identical_timeline():
    _, times_a = collect(seed=7)
    _, times_b = collect(seed=7)
    assert times_a == times_b
    _, times_c = collect(seed=8)
    assert times_a != times_c


def test_arrival_count_tracks_mean_rate():
    arrivals, times = collect(seed=3, base=100.0, peak=300.0, duration=20.0)
    expected = 200.0 * 20.0  # mean rate x duration
    assert len(times) == arrivals.arrivals
    assert abs(len(times) - expected) < expected * 0.10
    # Thinning acceptance ratio ~ mean/peak.
    assert arrivals.candidates > arrivals.arrivals


def test_density_follows_the_curve():
    _, times = collect(seed=11, base=20.0, peak=400.0, day=40.0, duration=40.0)
    trough = sum(1 for _, t in times if t < 8.0 or t > 32.0)
    peak = sum(1 for _, t in times if 16.0 <= t <= 24.0)
    assert peak > trough * 2


def test_no_arrivals_after_deadline():
    arrivals, times = collect(seed=5, duration=10.0)
    assert arrivals.finished
    assert all(t <= 10.0 + 1e-9 for _, t in times)
    assert [i for i, _ in times] == list(range(1, len(times) + 1))


def test_double_start_rejected():
    loop = EventLoop()
    arrivals = OpenLoopArrivals(
        loop,
        RngStreams(1).stream("arrivals"),
        DiurnalProfile(10.0, 20.0, 10.0),
        lambda index: None,
        duration=5.0,
    )
    arrivals.start()
    with pytest.raises(RuntimeError):
        arrivals.start()


def test_mean_rate_matches_integral():
    profile = DiurnalProfile(60.0, 180.0, 100.0)
    steps = 10000
    integral = sum(
        profile.rate(i * 100.0 / steps) for i in range(steps)
    ) / steps
    assert integral == pytest.approx(profile.mean_rate(), rel=1e-3)
    assert math.isclose(profile.mean_rate(), 120.0)


def run_generator(cls, seed, base, peak, day, duration, start_at):
    loop = EventLoop()
    loop.run_until(start_at)
    rng = RngStreams(seed).stream("arrivals")
    times = []
    arrivals = cls(
        loop,
        rng,
        DiurnalProfile(base, peak, day),
        lambda index: times.append((index, loop.clock.now)),
        duration,
    )
    arrivals.start()
    loop.run_for(duration + 1.0)
    return arrivals, times, rng.getstate(), loop.fired


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    base=st.floats(min_value=0.0, max_value=150.0),
    extra=st.floats(min_value=0.5, max_value=150.0),
    day=st.floats(min_value=0.5, max_value=50.0),
    duration=st.floats(min_value=0.01, max_value=20.0),
    start_at=st.floats(min_value=0.0, max_value=1000.0),
)
def test_event_free_thinning_matches_the_per_candidate_reference(
    seed, base, extra, day, duration, start_at
):
    # Same draws, same order, same stream: the accepted timeline, both
    # totals, the finished flag and the rng state afterwards all agree;
    # only the number of events the loop fired differs.
    args = (seed, base, base + extra, day, duration, start_at)
    ref, ref_times, ref_state, ref_fired = run_generator(
        PerCandidateArrivals, *args
    )
    new, new_times, new_state, new_fired = run_generator(
        OpenLoopArrivals, *args
    )
    assert new_times == ref_times
    assert (new.candidates, new.arrivals) == (ref.candidates, ref.arrivals)
    assert new.finished and ref.finished
    assert new_state == ref_state
    assert ref_fired == ref.candidates
    assert new_fired == new.arrivals


def test_standalone_run_fires_one_event_per_arrival():
    loop = EventLoop()
    arrivals = OpenLoopArrivals(
        loop,
        RngStreams(4).stream("arrivals"),
        DiurnalProfile(20.0, 400.0, 10.0),
        lambda index: None,
        duration=10.0,
    )
    arrivals.start()
    loop.run_for(11.0)
    assert arrivals.finished
    assert arrivals.candidates > arrivals.arrivals > 0
    assert loop.fired == arrivals.arrivals
    assert loop.pending == 0
