"""Membership edge cases: join retries across partitions, leave races,
and reliable-channel corner paths (closed sends, stale-incarnation acks,
retry give-up) that the mainline suites don't reach.
"""

import pytest

from repro.gcs.channel import ReliableChannel
from repro.gcs.directory import GroupDirectory
from repro.gcs.member import GroupMember
from repro.sim.eventloop import EventLoop
from repro.sim.network import Network
from repro.sim.rng import RngStreams


@pytest.fixture
def directory():
    return GroupDirectory()


def make_member(name, loop, network, directory, **kwargs):
    return GroupMember(name, "g", loop, network, directory, **kwargs)


def form_group(loop, network, directory, names):
    members = []
    for name in names:
        member = make_member(name, loop, network, directory)
        members.append(member)
        member.join()
        loop.run_for(0.5)
    loop.run_for(1.0)
    return members


class TestJoinRetryDuringPartition:
    def test_joiner_keeps_retrying_and_is_admitted_after_heal(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2"])
        network.partition({"gcs/g/n1", "gcs/g/n2"}, {"gcs/g/n3"})
        joiner = make_member("n3", loop, network, directory)
        joiner.join()
        loop.run_for(5.0)
        # The directory lists peers, so the joiner must NOT give up and
        # install a singleton view — it retries JOIN across the partition.
        assert joiner.view is None or not joiner.is_coordinator
        assert "gcs/g/n3" not in members[0].view.members
        network.heal()
        loop.run_for(5.0)
        assert members[0].view.members == ("gcs/g/n1", "gcs/g/n2", "gcs/g/n3")
        assert joiner.view == members[0].view

    def test_joiner_alone_after_peers_deregister_installs_singleton(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2"])
        network.partition({"gcs/g/n1", "gcs/g/n2"}, {"gcs/g/n3"})
        joiner = make_member("n3", loop, network, directory)
        joiner.join()
        loop.run_for(1.0)
        # Both peers leave (deregistering) while still unreachable: the
        # next retry finds an empty directory and self-installs.
        for member in members:
            member.leave()
        loop.run_for(5.0)
        assert joiner.view is not None
        assert joiner.view.members == ("gcs/g/n3",)
        assert joiner.is_coordinator

    def test_leave_before_admission_stops_retries(
        self, loop, network, directory
    ):
        form_group(loop, network, directory, ["n1"])
        network.partition({"gcs/g/n1"}, {"gcs/g/n2"})
        joiner = make_member("n2", loop, network, directory)
        joiner.join()
        loop.run_for(1.0)
        joiner.leave()
        network.heal()
        loop.run_for(5.0)
        # The aborted join must leave no trace: not registered, no view.
        assert directory.lookup("g") == ["gcs/g/n1"]
        assert joiner.view is None


class TestLeaveDuringViewBroadcast:
    def test_member_leaves_while_join_view_is_in_flight(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2"])
        joiner = make_member("n3", loop, network, directory)
        joiner.join()
        # No run_for: n2's LEAVE races the coordinator's VIEW broadcast
        # for n3's admission.
        members[1].leave()
        loop.run_for(10.0)
        survivors = [members[0], joiner]
        views = {m.view for m in survivors}
        assert len(views) == 1
        assert views.pop().members == ("gcs/g/n1", "gcs/g/n3")

    def test_coordinator_leaves_while_its_own_broadcast_is_in_flight(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2", "n3"])
        joiner = make_member("n4", loop, network, directory)
        joiner.join()
        members[0].leave()  # coordinator departs mid-admission
        loop.run_for(15.0)
        survivors = [members[1], members[2], joiner]
        views = {m.view for m in survivors}
        assert len(views) == 1
        view = views.pop()
        assert "gcs/g/n1" not in view.members
        assert set(view.members) >= {"gcs/g/n2", "gcs/g/n3"}
        coordinators = [m for m in survivors if m.is_coordinator]
        assert len(coordinators) == 1

    def test_stale_directory_entry_is_harmless_to_joiners(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2"])
        # A crash leaves the directory entry behind (no deregistration) —
        # the docstring's "stale entry is harmless" claim, tested.
        members[1].crash()
        assert "gcs/g/n2" in directory.lookup("g")
        loop.run_for(10.0)  # failure detection shrinks the view
        joiner = make_member("n3", loop, network, directory)
        joiner.join()
        loop.run_for(5.0)
        assert members[0].view.members == ("gcs/g/n1", "gcs/g/n3")
        assert joiner.view == members[0].view


class TestTimerHandles:
    @staticmethod
    def held(member):
        return [
            t for t in (member._hb_timer, member._join_timer) if t is not None
        ]

    def test_handles_stay_bounded_over_a_minute(self, loop, network, directory):
        members = form_group(loop, network, directory, ["n1", "n2", "n3"])
        network.partition({"gcs/g/n1", "gcs/g/n2", "gcs/g/n3"}, {"gcs/g/n4"})
        joiner = make_member("n4", loop, network, directory)
        joiner.join()
        members.append(joiner)
        for second in range(60):
            if second == 10:
                network.heal()
            loop.run_for(1.0)
            # One heartbeat chain and at most one join-retry chain, each
            # holding only its latest handle.
            for member in members:
                assert 1 <= len(self.held(member)) <= 2
                assert not member._hb_timer.cancelled
        assert all(m.view.size == 4 for m in members)

    def test_crash_and_leave_cancel_the_live_timers(
        self, loop, network, directory
    ):
        members = form_group(loop, network, directory, ["n1", "n2", "n3"])
        live = [self.held(m) for m in members[:2]]
        members[0].crash()
        members[1].leave()
        for handles in live:
            assert all(t.cancelled for t in handles)
        assert self.held(members[0]) == []
        assert self.held(members[1]) == []


class TestChannelEdges:
    def make_channel(self, loop, network, name, inbox):
        endpoint = network.attach(name, lambda m: channel.handle_raw(m))
        channel = ReliableChannel(
            name, endpoint, loop,
            lambda sender, body: inbox.append((sender, body)),
        )
        return channel

    def test_send_on_closed_channel_returns_sentinel(self, loop, network):
        channel = self.make_channel(loop, network, "a", [])
        channel.close()
        assert channel.send("b", "x") == -1
        assert channel.pending_count == 0

    def test_cancel_to_drops_only_that_destination(self, loop):
        network = Network(loop, RngStreams(1), loss_rate=0.99)
        channel = self.make_channel(loop, network, "a", [])
        network.attach("b", lambda m: None)
        network.attach("c", lambda m: None)
        channel.send("b", "x")
        channel.send("b", "y")
        keep = channel.send("c", "z")
        channel.cancel_to("b")
        assert channel.pending_count == 1
        assert keep in channel._pending

    def test_stale_incarnation_ack_is_ignored(self, loop):
        network = Network(loop, RngStreams(1), loss_rate=0.99)
        channel = self.make_channel(loop, network, "a", [])
        network.attach("b", lambda m: None)
        msg_id = channel.send("b", "x")
        channel._on_ack({"id": msg_id, "inc": channel.incarnation - 1})
        assert channel.pending_count == 1  # previous life's ack: ignored
        channel._on_ack({"id": msg_id, "inc": channel.incarnation})
        assert channel.pending_count == 0

    def test_retries_give_up_after_max_attempts(self, loop):
        network = Network(loop, RngStreams(1), loss_rate=0.0)
        channel = self.make_channel(loop, network, "a", [])
        channel.rto = 0.01
        # Destination never attached: every transmit is dropped silently.
        channel.send("ghost", "x")
        loop.run_for(ReliableChannel.MAX_RETRIES * 0.01 + 1.0)
        assert channel.pending_count == 0
        assert channel.retransmits == ReliableChannel.MAX_RETRIES - 1

    def test_non_channel_traffic_is_not_consumed(self, loop, network):
        inbox = []
        channel = self.make_channel(loop, network, "a", inbox)

        class FakeMessage:
            source = "b"
            payload = {"other": 1}

        assert channel.handle_raw(FakeMessage()) is False
        assert inbox == []
