"""Virtual server routing, queueing, and director failover."""

import pytest

from repro.ipvs.addressing import IpEndpoint
from repro.ipvs.schedulers import LeastConnectionScheduler
from repro.ipvs.server import DirectorCluster, RealServer, Request, VirtualServer

VIP = IpEndpoint("10.0.0.100", 80)


@pytest.fixture
def director(loop):
    d = VirtualServer("ipvs1", loop)
    d.add_service(VIP)
    return d


class TestVirtualServer:
    def test_route_to_real_server(self, loop, director):
        director.add_real_server(VIP, RealServer("n1", 80, service_time=0.01))
        request = Request(1, VIP, loop.clock.now)
        director.route(request)
        loop.run_for(1.0)
        assert request.ok
        assert request.served_by == "n1"
        assert request.latency == pytest.approx(0.01)

    def test_unknown_service_dropped(self, loop, director):
        request = Request(1, IpEndpoint("10.0.0.99", 80), loop.clock.now)
        director.route(request)
        assert request.dropped == "no-service"

    def test_no_real_server_dropped(self, loop, director):
        request = Request(1, VIP, loop.clock.now)
        director.route(request)
        assert request.dropped == "no-real-server"

    def test_dead_director_drops(self, loop, director):
        director.add_real_server(VIP, RealServer("n1", 80))
        director.alive = False
        request = Request(1, VIP, loop.clock.now)
        director.route(request)
        assert request.dropped == "director-down"

    def test_duplicate_service_rejected(self, director):
        with pytest.raises(ValueError):
            director.add_service(VIP)

    def test_real_server_for_unknown_service_rejected(self, director):
        with pytest.raises(ValueError):
            director.add_real_server(IpEndpoint("1.1.1.1", 1), RealServer("n1", 1))

    def test_queueing_adds_latency(self, loop, director):
        director.add_real_server(
            VIP, RealServer("n1", 80, service_time=0.1, queue_limit=10)
        )
        requests = []
        for i in range(3):
            request = Request(i, VIP, loop.clock.now)
            director.route(request)
            requests.append(request)
        loop.run_for(1.0)
        latencies = [r.latency for r in requests]
        assert latencies == pytest.approx([0.1, 0.2, 0.3])

    def test_queue_limit_rejects_overflow(self, loop, director):
        director.add_real_server(
            VIP, RealServer("n1", 80, service_time=1.0, queue_limit=2)
        )
        outcomes = []
        for i in range(4):
            request = Request(i, VIP, loop.clock.now)
            director.route(request)
            outcomes.append(request.dropped)
        assert outcomes.count("no-real-server") == 2

    def test_mark_node_flips_replicas(self, loop, director):
        director.add_real_server(VIP, RealServer("n1", 80))
        director.add_real_server(VIP, RealServer("n2", 80))
        assert director.mark_node("n1", False) == 1
        for i in range(4):
            request = Request(i, VIP, loop.clock.now)
            director.route(request)
        loop.run_for(1.0)
        assert all(
            r.node_id == "n2" or not r.alive for r in director.real_servers(VIP)
        )

    def test_remove_real_server(self, director):
        director.add_real_server(VIP, RealServer("n1", 80))
        assert director.remove_real_server(VIP, "n1") == 1
        assert director.real_servers(VIP) == []

    def test_server_death_mid_service_drops_request(self, loop, director):
        server = RealServer("n1", 80, service_time=0.5)
        director.add_real_server(VIP, server)
        request = Request(1, VIP, loop.clock.now)
        director.route(request)
        loop.run_for(0.1)
        server.alive = False
        loop.run_for(1.0)
        assert not request.ok
        assert request.dropped == "server-died"
        assert director.drops == {"server-died": 1}

    def test_custom_scheduler(self, loop):
        director = VirtualServer("d", loop)
        director.add_service(VIP, LeastConnectionScheduler())
        busy = RealServer("busy", 80)
        busy.active_connections = 3
        idle = RealServer("idle", 80)
        director.add_real_server(VIP, busy)
        director.add_real_server(VIP, idle)
        request = Request(1, VIP, loop.clock.now)
        director.route(request)
        loop.run_for(1.0)
        assert request.served_by == "idle"


class TestDirectorCluster:
    def test_config_fans_out_to_replicas(self, loop):
        cluster = DirectorCluster(loop, replicas=2)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1")
        for director in cluster.directors:
            assert len(director.real_servers(VIP)) == 1

    def test_submit_routes_through_primary(self, loop):
        cluster = DirectorCluster(loop)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1", service_time=0.01)
        request = cluster.submit(VIP)
        loop.run_for(1.0)
        assert request.ok
        assert cluster.directors[0].routed == 1
        assert cluster.directors[1].routed == 0

    def test_failover_window_then_standby_serves(self, loop):
        cluster = DirectorCluster(loop, failover_seconds=1.0)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1", service_time=0.01)
        cluster.fail_primary()
        dropped = cluster.submit(VIP)
        assert dropped.dropped == "no-director"
        loop.run_for(1.1)
        served = cluster.submit(VIP)
        loop.run_for(1.0)
        assert served.ok
        assert cluster.directors[1].routed == 1

    def test_all_directors_dead_drops_everything(self, loop):
        cluster = DirectorCluster(loop, replicas=2, failover_seconds=0.1)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1")
        cluster.fail_primary()
        loop.run_for(1.0)
        cluster.fail_primary()
        loop.run_for(1.0)
        request = cluster.submit(VIP)
        assert request.dropped == "no-director"

    def test_load_balanced_across_replicas(self, loop):
        cluster = DirectorCluster(loop)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1", service_time=0.001)
        cluster.add_real_server(VIP, "n2", service_time=0.001)
        for _ in range(20):
            cluster.submit(VIP)
            loop.run_for(0.01)
        loop.run_for(1.0)
        served = cluster.per_node_served()
        assert served == {"n1": 10, "n2": 10}

    def test_stats_shape(self, loop):
        cluster = DirectorCluster(loop)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1", service_time=0.01)
        cluster.submit(VIP)
        loop.run_for(1.0)
        stats = cluster.stats()
        assert stats["submitted"] == 1
        assert stats["completed"] == 1
        assert stats["dropped"] == 0
        assert stats["mean_latency"] > 0

    def test_server_death_counted_by_the_owning_replica(self, loop):
        # Aggregate mode reports drops from counters, not requests, so a
        # request lost on a dead real server must be counted by a replica.
        cluster = DirectorCluster(loop, replicas=2, retain_requests=False)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1", service_time=0.5)
        cluster.submit(VIP)
        loop.run_for(0.1)
        cluster.mark_node("n1", False)
        loop.run_for(1.0)
        primary, standby = cluster.directors
        assert primary.drops == {"server-died": 1}
        assert standby.drops == {}
        stats = cluster.stats()
        assert stats["dropped"] == 1
        assert stats["submitted"] == stats["completed"] + stats["dropped"]

    def test_no_director_refusal_counted_once_by_the_cluster(self, loop):
        cluster = DirectorCluster(loop, replicas=2, retain_requests=False)
        cluster.add_service(VIP)
        cluster.add_real_server(VIP, "n1")
        assert cluster.drops == {}
        cluster.fail_primary()
        assert cluster.submit(VIP).dropped == "no-director"
        loop.run_for(1.0)
        assert cluster.drops == {"no-director": 1}
        assert all(director.drops == {} for director in cluster.directors)
        stats = cluster.stats()
        assert stats["dropped"] == 1
        assert stats["submitted"] == stats["completed"] + stats["dropped"]

    def test_at_least_one_replica_required(self, loop):
        with pytest.raises(ValueError):
            DirectorCluster(loop, replicas=0)

    def test_watch_node_tracks_health(self, loop):
        from repro.cluster.cluster import Cluster

        node_cluster = Cluster.build(1, seed=1)
        node = node_cluster.node("n1")
        directors = DirectorCluster(node_cluster.loop)
        directors.add_service(VIP)
        directors.add_real_server(VIP, "n1", service_time=0.01)
        directors.watch_node(node)
        node.fail()
        request = directors.submit(VIP)
        assert request.dropped == "no-real-server"


class TestRequest:
    def test_positional_construction_and_defaults(self):
        request = Request(7, VIP, 1.5)
        assert request.request_id == 7
        assert request.endpoint == VIP
        assert request.arrived_at == 1.5
        assert request.client is None
        assert request.completed_at is None
        assert request.served_by is None
        assert request.dropped is None
        assert request.span is None

    def test_every_field_positional(self):
        request = Request(1, VIP, 1.0, "c1", 1.25, "n1", "reason", "span")
        assert (request.client, request.completed_at) == ("c1", 1.25)
        assert (request.served_by, request.dropped) == ("n1", "reason")
        assert request.span == "span"

    def test_keywords_match_the_positional_order(self):
        request = Request(
            request_id=2, endpoint=VIP, arrived_at=0.5, client="c2", served_by="n2"
        )
        assert (request.request_id, request.client, request.served_by) == (
            2,
            "c2",
            "n2",
        )

    def test_ok_and_latency(self):
        request = Request(1, VIP, 2.0)
        assert not request.ok
        assert request.latency is None
        request.completed_at = 2.5
        assert request.ok
        assert request.latency == pytest.approx(0.5)

    def test_dropped_request_is_not_ok(self):
        request = Request(1, VIP, 0.0, dropped="no-real-server")
        assert not request.ok
        assert request.latency is None

    def test_no_per_instance_dict(self):
        request = Request(1, VIP, 0.0)
        with pytest.raises(AttributeError):
            request.unknown_field = 1
