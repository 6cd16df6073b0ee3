"""Simulated time source.

All components take a :class:`Clock` rather than calling ``time.time`` so
that an entire multi-node experiment advances on virtual time and is
repeatable. The clock only moves forward; the event loop owns advancing it.
"""

from __future__ import annotations

# repro: allow-file[DET001] -- this module IS the sanctioned time
# authority; everything else must take a Clock instead of host time.


class Clock:
    """A monotonically non-decreasing virtual clock, in seconds.

    The clock starts at ``0.0``. Only the owning event loop should call
    :meth:`advance_to`; everything else treats the clock as read-only.

    :attr:`now` is a plain slot rather than a read-only property: it is
    read millions of times per run, and a property costs a Python call
    on every read. Only :meth:`advance_to` writes it — a tier-1 test
    (``tests/sim/test_clock.py``) fails if any other module
    under ``src/`` assigns to ``.now``.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ValueError("clock cannot start before t=0: %r" % start)
        #: Current virtual time in seconds since the simulation epoch.
        self.now = float(start)

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when``.

        Raises :class:`ValueError` on an attempt to move backwards, which
        would indicate a scheduling bug rather than a recoverable state.
        """
        if when < self.now:
            raise ValueError(
                "clock moved backwards: now=%r requested=%r" % (self.now, when)
            )
        self.now = float(when)

    def __repr__(self) -> str:
        return "Clock(now=%.6f)" % self.now
