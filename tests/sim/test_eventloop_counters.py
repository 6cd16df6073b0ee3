"""O(1) pending accounting, heap compaction, and same-instant batching."""

import pytest

from repro.sim.eventloop import EventLoop


def test_pending_counter_tracks_schedule_cancel_fire():
    loop = EventLoop()
    events = [loop.call_at(float(i), lambda: None) for i in range(10)]
    assert loop.pending == 10
    events[3].cancel()
    events[7].cancel()
    assert loop.pending == 8
    loop.run_until(4.0)  # fires 0,1,2,4 (3 cancelled)
    assert loop.fired == 4
    assert loop.pending == 4


def test_double_cancel_does_not_double_decrement():
    loop = EventLoop()
    event = loop.call_at(1.0, lambda: None)
    keeper = loop.call_at(2.0, lambda: None)
    event.cancel()
    event.cancel()
    event.cancel()
    assert loop.pending == 1
    loop.drain()
    assert loop.pending == 0
    assert loop.fired == 1
    assert not keeper.cancelled


def test_cancel_after_fire_does_not_corrupt_counter():
    loop = EventLoop()
    event = loop.call_at(1.0, lambda: None)
    loop.call_at(2.0, lambda: None)
    loop.run_until(1.5)
    event.cancel()  # already fired: a no-op for the books
    assert loop.pending == 1
    loop.drain()
    assert loop.pending == 0


def test_compaction_shrinks_queue_and_preserves_order():
    loop = EventLoop()
    events = [loop.call_at(float(i), lambda i=i: fired.append(i)) for i in range(100)]
    fired = []
    # Cancel 60% — crossing the half-cancelled threshold compacts the heap.
    for event in events[::2]:
        event.cancel()
    for event in events[1::10]:
        event.cancel()
    survivors = [e for e in events if not e.cancelled]
    assert len(loop._queue) < len(events)  # compaction dropped dead entries
    assert loop.pending == len(survivors)
    loop.drain()
    assert fired == sorted(e.when for e in survivors)


def test_same_instant_batch_preserves_seq_order_and_cancellation():
    loop = EventLoop()
    order = []
    third = loop.call_at(1.0, lambda: order.append("third"))

    def first():
        order.append("first")
        third.cancel()
        loop.call_soon(lambda: order.append("late"))

    loop.call_at(1.0, first)
    loop.call_at(1.0, lambda: order.append("second"))
    loop.run_until(1.0)
    # Strict schedule order within the instant: "third" (earliest seq)
    # fires before "first" can cancel it (a safe no-op), and the
    # call_soon'd "late" event joins the back of the same batch.
    assert order == ["third", "first", "second", "late"]
    assert loop.pending == 0


def test_mid_batch_cancellation_is_honoured():
    loop = EventLoop()
    order = []
    victim = None

    def killer():
        order.append("killer")
        victim.cancel()

    loop.call_at(1.0, killer)
    victim = loop.call_at(1.0, lambda: order.append("victim"))
    loop.call_at(1.0, lambda: order.append("tail"))
    loop.run_until(2.0)
    assert order == ["killer", "tail"]
    assert loop.pending == 0


def test_mid_batch_compaction_keeps_draining_current_instant():
    loop = EventLoop()
    order = []
    # A large population of future events that get mass-cancelled from
    # inside a same-instant batch, forcing an in-place compaction while
    # run_until is iterating the queue alias.
    future = [loop.call_at(5.0 + i, lambda: order.append("future")) for i in range(50)]

    def purge():
        order.append("purge")
        for event in future:
            event.cancel()

    loop.call_at(1.0, purge)
    loop.call_at(1.0, lambda: order.append("after-purge"))
    loop.call_at(2.0, lambda: order.append("next-instant"))
    loop.run_until(10.0)
    assert order == ["purge", "after-purge", "next-instant"]
    assert loop.pending == 0


class Boom(Exception):
    pass


def _raise():
    raise Boom()


def test_raising_heap_action_leaves_batch_resumable():
    loop = EventLoop()
    order = []
    seen = {}

    def first():
        order.append("first")
        # Joins the back of this instant's batch via the ready deque.
        loop.call_soon(lambda: order.append("soon"))

    def boom():
        # Counters are already exact while the action runs.
        seen["fired"], seen["pending"] = loop.fired, loop.pending
        _raise()

    loop.call_at(1.0, first)
    loop.call_at(1.0, boom)
    loop.call_transient_at(1.0, order.append, "transient")
    loop.call_at(1.0, lambda: order.append("last-heap"))
    loop.call_at(1.5, lambda: order.append("later"))
    with pytest.raises(Boom):
        loop.run_until(2.0)
    assert seen == {"fired": 2, "pending": 4}
    assert order == ["first"]
    assert loop.fired == 2
    assert loop.pending == 4
    assert loop.clock.now == 1.0
    assert loop.run_until(2.0) == 4
    # The rest of the instant in seq order (heap before the ready deque),
    # then the next instant.
    assert order == ["first", "transient", "last-heap", "soon", "later"]
    assert loop.fired == 6
    assert loop.pending == 0
    assert loop.clock.now == 2.0


def test_raising_ready_action_leaves_batch_resumable():
    loop = EventLoop()
    order = []
    loop.run_until(1.0)
    loop.call_soon(lambda: order.append("a"))
    loop.call_soon(_raise)
    victim = loop.call_soon(lambda: order.append("cancelled"))
    loop.call_soon(lambda: order.append("b"))
    loop.call_transient_at(1.0, order.append, "c")
    victim.cancel()
    with pytest.raises(Boom):
        loop.run_until(1.0)
    assert (loop.fired, loop.pending) == (2, 2)
    assert loop.run_until(1.0) == 2
    assert order == ["a", "b", "c"]
    assert (loop.fired, loop.pending) == (4, 0)
