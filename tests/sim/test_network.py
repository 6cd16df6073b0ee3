"""Simulated network: delivery, FIFO links, loss, partitions."""

import pytest

from repro.sim.eventloop import EventLoop
from repro.sim.network import Message, Network
from repro.sim.rng import RngStreams


def make_pair(network):
    inbox_a, inbox_b = [], []
    a = network.attach("a", inbox_a.append)
    b = network.attach("b", inbox_b.append)
    return a, b, inbox_a, inbox_b


def test_basic_delivery(loop, network):
    a, b, _, inbox_b = make_pair(network)
    a.send("b", {"hello": 1})
    loop.run_for(1.0)
    assert len(inbox_b) == 1
    assert inbox_b[0].payload == {"hello": 1}
    assert inbox_b[0].source == "a"


def test_latency_is_applied(loop):
    network = Network(loop, RngStreams(0), latency=0.5, jitter=0.0)
    _, b, _, inbox_b = make_pair(network)
    network.send("a", "b", "x")
    loop.run_for(0.4)
    assert inbox_b == []
    loop.run_for(0.2)
    assert len(inbox_b) == 1


def test_fifo_per_link_despite_jitter(loop):
    network = Network(loop, RngStreams(3), latency=0.01, jitter=0.05)
    a, b, _, inbox_b = make_pair(network)
    for i in range(50):
        a.send("b", i)
    loop.run_for(5.0)
    assert [m.payload for m in inbox_b] == list(range(50))


def test_duplicate_attach_rejected(loop, network):
    network.attach("x", lambda m: None)
    with pytest.raises(ValueError):
        network.attach("x", lambda m: None)


def test_message_to_unknown_endpoint_dropped(loop, network):
    a = network.attach("a", lambda m: None)
    a.send("ghost", "boo")
    loop.run_for(1.0)
    assert network.stats.dropped_dead == 1


def test_detached_endpoint_stops_receiving(loop, network):
    a, b, _, inbox_b = make_pair(network)
    a.send("b", 1)
    network.detach("b")
    loop.run_for(1.0)
    assert inbox_b == []
    assert network.stats.dropped_dead == 1


def test_loss_rate_drops_some_messages(loop):
    network = Network(loop, RngStreams(5), loss_rate=0.5)
    a, b, _, inbox_b = make_pair(network)
    for _ in range(200):
        a.send("b", "x")
    loop.run_for(5.0)
    assert 0 < len(inbox_b) < 200
    assert network.stats.dropped_loss + network.stats.delivered == 200


def test_invalid_loss_rate_rejected(loop):
    with pytest.raises(ValueError):
        Network(loop, loss_rate=1.0)
    with pytest.raises(ValueError):
        Network(loop, loss_rate=-0.1)


def test_partition_blocks_cross_group_traffic(loop, network):
    a, b, inbox_a, inbox_b = make_pair(network)
    network.partition({"a"}, {"b"})
    a.send("b", "blocked")
    loop.run_for(1.0)
    assert inbox_b == []
    assert network.stats.dropped_partition == 1


def test_partition_allows_same_group_traffic(loop, network):
    a, b, _, inbox_b = make_pair(network)
    network.partition({"a", "b"}, {"c"})
    a.send("b", "ok")
    loop.run_for(1.0)
    assert len(inbox_b) == 1


def test_heal_restores_traffic(loop, network):
    a, b, _, inbox_b = make_pair(network)
    network.partition({"a"}, {"b"})
    network.heal()
    a.send("b", "ok")
    loop.run_for(1.0)
    assert len(inbox_b) == 1


def test_partition_raised_mid_flight_kills_message(loop):
    network = Network(loop, RngStreams(0), latency=1.0, jitter=0.0)
    a, b, _, inbox_b = make_pair(network)
    a.send("b", "in-flight")
    loop.run_for(0.5)
    network.partition({"a"}, {"b"})
    loop.run_for(1.0)
    assert inbox_b == []


def test_unpartitioned_endpoints_can_still_talk(loop, network):
    a, b, _, inbox_b = make_pair(network)
    inbox_c = []
    c = network.attach("c", inbox_c.append)
    network.partition({"a"})  # only a isolated; b and c unlisted
    b.send("c", "hi")
    loop.run_for(1.0)
    assert len(inbox_c) == 1
    a.send("c", "nope")
    loop.run_for(1.0)
    assert len(inbox_c) == 1


def test_stats_track_bytes(loop, network):
    a, _, _, _ = make_pair(network)
    a.send("b", "x", size_bytes=1000)
    assert network.stats.bytes_sent == 1000


def test_endpoint_names_sorted(loop, network):
    network.attach("z", lambda m: None)
    network.attach("a", lambda m: None)
    assert network.endpoint_names() == ["a", "z"]


def test_node_partition_raised_after_unpartitioned_send_drops_at_delivery(loop):
    network = Network(loop, RngStreams(0), latency=1.0, jitter=0.0)
    inbox = []
    network.attach("gcs/g/n1", lambda m: None)
    network.attach("gcs/g/n2", inbox.append)
    network.send("gcs/g/n1", "gcs/g/n2", "in-flight")
    loop.run_for(0.5)
    network.partition_nodes({"n1"}, {"n2"})
    loop.run_for(1.0)
    assert inbox == []
    assert network.stats.dropped_partition == 1


def test_endpoint_attached_after_node_partition_is_confined(loop, network):
    network.partition_nodes({"n1"}, {"n2"})
    inbox_old, inbox_new = [], []
    network.attach("gcs/g/n1", inbox_old.append)
    network.attach("svc/n2", inbox_new.append)
    fresh = network.attach("gcs/g2/n2", inbox_new.append)
    fresh.send("gcs/g/n1", "across")
    fresh.send("svc/n2", "same-node")
    loop.run_for(1.0)
    assert inbox_old == []
    assert [m.payload for m in inbox_new] == ["same-node"]


def test_heal_clears_both_partition_maps(loop, network):
    a, b, _, inbox_b = make_pair(network)
    network.partition({"a"}, {"b"})
    network.partition_nodes({"a"}, {"b"})
    assert network.partitioned
    network.heal()
    assert not network.partitioned
    assert network._group_of == {} and network._node_group_of == {}
    a.send("b", "ok")
    loop.run_for(1.0)
    assert len(inbox_b) == 1


@pytest.mark.parametrize("node_level", [False, True])
def test_member_named_in_two_groups_belongs_to_the_last(loop, network, node_level):
    inboxes = {name: [] for name in ("a", "b", "c")}
    for name, inbox in inboxes.items():
        network.attach(name, inbox.append)
    split = network.partition_nodes if node_level else network.partition
    split({"a", "b"}, {"b", "c"})
    network.send("a", "b", "a->b")
    network.send("c", "b", "c->b")
    network.send("b", "a", "b->a")
    loop.run_for(1.0)
    assert [m.payload for m in inboxes["b"]] == ["c->b"]
    assert inboxes["a"] == []
    assert network.stats.dropped_partition == 2


def test_node_latency_changes_apply_between_sends_on_one_link(loop):
    network = Network(loop, RngStreams(0), latency=0.1, jitter=0.0)
    arrivals = []
    network.attach("svc/n1", lambda m: None)
    network.attach("svc/n2", lambda m: arrivals.append((m.payload, loop.clock.now)))
    network.send("svc/n1", "svc/n2", "plain")
    network.set_node_latency("n2", 0.5)
    network.send("svc/n1", "svc/n2", "slow")
    loop.run_for(1.0)
    network.clear_node_latency("n2")
    network.send("svc/n1", "svc/n2", "cleared")
    loop.run_for(1.0)
    assert [p for p, _ in arrivals] == ["plain", "slow", "cleared"]
    assert [t for _, t in arrivals] == pytest.approx([0.1, 0.6, 1.1])


def test_message_fields_defaults_and_repr():
    message = Message("a", "b", {"k": 1}, 2.5)
    assert (message.source, message.destination) == ("a", "b")
    assert message.payload == {"k": 1}
    assert message.sent_at == 2.5
    assert message.size_bytes == 256
    assert message.trace is None
    traced = Message("a", "b", "p", 0.0, 64, "span-context")
    assert (traced.size_bytes, traced.trace) == (64, "span-context")
    assert repr(traced) == (
        "Message(source='a', destination='b', payload='p', sent_at=0.0, size_bytes=64)"
    )
