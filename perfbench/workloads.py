"""The three benchmark workloads, driven through the public APIs only.

Each workload is a fixed batch of simulated work derived from one seed.
``setup()`` builds the topology (timed as set-up), ``run()`` simulates
the batch (timed as the run) and returns an :class:`Outcome` whose
``digest`` fingerprints everything the batch produced, so repeats of one
seed, and the traced run, must agree on it byte for byte.

All three are open loop in simulated time: a seeded arrival or fault
process fires whether or not earlier work finished, so overload shows up
as simulated queueing, drops and failovers, never as a slower load generator.

Two kinds of check are kept apart. An :class:`IntegrityError` means the
benchmark's own accounting does not balance; the run fails. Dependability
findings (a lost acknowledged write, a tenant on no node, an invariant or
conformance violation) are counted in ``violations`` and ``failed_share``
and never abort the run.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class IntegrityError(Exception):
    """The benchmark's accounting of a run does not balance."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise IntegrityError(message)


def _digest(document: Any) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample (0 if empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


@dataclass
class Outcome:
    """What one batch produced: its digest and its simulated metrics."""

    digest: str
    #: Simulated requests submitted (requests_per_ref_s numerator).
    requests: int
    #: Operations attempted / failed: requests, or chaos episodes.
    attempted: int
    failed: int
    #: Simulated latency percentiles of served requests, in seconds.
    latency_p50: float
    latency_p99: float
    failovers: List[float] = field(default_factory=list)
    violations: int = 0
    #: Workload-specific detail for the result file (failures by cause...).
    detail: Dict[str, Any] = field(default_factory=dict)

    def simulated_metrics(self) -> Dict[str, Tuple[float, str]]:
        failovers = sorted(self.failovers)
        return {
            "virtual_p50_ms": (self.latency_p50 * 1e3, "sim_ms"),
            "virtual_p99_ms": (self.latency_p99 * 1e3, "sim_ms"),
            "failed_share": (self.failed / self.attempted, "ratio"),
            "failover_p50_ms": (_percentile(failovers, 0.50) * 1e3, "sim_ms"),
            "failover_p90_ms": (_percentile(failovers, 0.90) * 1e3, "sim_ms"),
            "failover_samples": (float(len(failovers)), "count"),
            "violations": (float(self.violations), "count"),
        }


# ---------------------------------------------------------------------------
# macro-day
# ---------------------------------------------------------------------------
class MacroDay:
    """The million-user-day shape, with the day compressed to fit a run.

    4 consistent-hash ipvs shards x 12 real servers, 10k clients, diurnal
    open-loop arrivals from 1200 to 4800 req/s, telemetry off. Only the
    day length is shortened (``DAY_SECONDS``), so one batch is ~180k
    requests; peak load per server is that of the full day.
    """

    DAY_SECONDS = 60.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> Any:
        from repro.macrobench.scenario import MacroConfig, MacroScenario

        config = MacroConfig.million_user_day(
            day_seconds=self.DAY_SECONDS, seed=self.seed
        )
        return MacroScenario(config)

    def run(self, scenario: Any) -> Outcome:
        result = scenario.run()
        report = result.report()
        requests = report["requests"]
        submitted, completed, dropped = (
            requests["submitted"],
            requests["completed"],
            requests["dropped"],
        )
        _check(
            submitted == completed + dropped,
            "macro: submitted %d != completed %d + dropped %d"
            % (submitted, completed, dropped),
        )
        _check(
            sum(requests["per_shard_submitted"]) == submitted,
            "macro: per-shard submitted does not sum to %d" % submitted,
        )
        _check(
            sum(requests["per_shard_completed"]) == completed,
            "macro: per-shard completed does not sum to %d" % completed,
        )
        _check(
            sum(requests["drop_reasons"].values()) == dropped,
            "macro: drop reasons do not sum to %d" % dropped,
        )
        latency = report["virtual_latency_seconds"]
        return Outcome(
            digest=report["digest"],
            requests=submitted,
            attempted=submitted,
            failed=dropped,
            latency_p50=latency["p50"],
            latency_p99=latency["p99"],
            detail={
                "report_digest": report["digest"],
                "virtual_latency_seconds": latency,
                "drop_reasons": requests["drop_reasons"],
                "events_fired": report["sim"]["events_fired"],
            },
        )


# ---------------------------------------------------------------------------
# tenant-failover
# ---------------------------------------------------------------------------
class TenantFailover:
    """Tenants behind their own VIPs on an N-node platform, under crashes.

    Every node framework runs the host ``http.HttpService`` bundle; each
    tenant runs ``kvstore_bundle`` + ``webservice_bundle``. Seeded Poisson
    requests go through ``director.submit`` and each one also resolves
    the tenant's HTTP (read) or KV (write) service through the tenant
    instance's registry; writes commit to the SAN. Every ``CRASH_GAP`` s
    a seeded pick among the alive nodes crashes (while more than half are
    alive) and is repaired ``REPAIR_AFTER`` s later; the administrator
    reinstalls the host HTTP bundle on each repaired node, as
    examples/ha_shop.py does.

    A batch is ``EPISODES`` independent platforms with seeds drawn from
    the workload seed. Tenants the platform loses stay lost for the rest
    of an episode, so one long episode's cost swings with how many it
    lost early; several shorter ones average that out.
    """

    EPISODES = 2
    NODES = 12
    TENANTS = 48
    RATE = 600.0
    WRITE_SHARE = 0.25
    DURATION = 30.0
    CRASH_GAP = 2.0
    REPAIR_AFTER = 6.0
    SETTLE = 30.0
    SERVICE_TIME = 0.004

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> List[Dict[str, Any]]:
        rng = random.Random(self.seed)
        return [self._build(random.Random(rng.randrange(2**31)))
                for _ in range(self.EPISODES)]

    def _build(self, rng: random.Random) -> Dict[str, Any]:
        from repro.core import DependableEnvironment
        from repro.ipvs import IpEndpoint
        from repro.sla import ServiceLevelAgreement
        from repro.workloads import (
            HTTP_SERVICE_CLASS,
            kvstore_bundle,
            webservice_bundle,
        )
        from repro.workloads.webservice import host_http_bundle

        env = DependableEnvironment.build(
            node_count=self.NODES, seed=rng.randrange(2**31)
        )
        for node in env.cluster.nodes():
            node.framework.install(host_http_bundle()).start()
        tenants = ["t%02d" % i for i in range(self.TENANTS)]
        admissions = [
            env.admit_customer(
                ServiceLevelAgreement(name, cpu_share=0.1, availability_target=0.99),
                services=(HTTP_SERVICE_CLASS,),
                bundles=[kvstore_bundle(), webservice_bundle(name)],
            )
            for name in tenants
        ]
        env.cluster.run_until_settled(admissions)
        env.run_for(1.0)
        vips = {}
        for i, name in enumerate(tenants):
            vip = IpEndpoint("10.1.%d.%d" % (i // 200, i % 200 + 1), 80)
            env.expose_service(name, vip, service_time=self.SERVICE_TIME)
            vips[name] = vip
        return {"env": env, "rng": rng, "tenants": tenants, "vips": vips}

    def run(self, episodes: List[Dict[str, Any]]) -> Outcome:
        results = [self._episode(**state) for state in episodes]
        log = [entry for r in results for entry in r["log"]]
        served = sum(r["served"] for r in results)
        causes: Dict[str, int] = {}
        for r in results:
            for cause, count in r["causes"].items():
                causes[cause] = causes.get(cause, 0) + count
        failed = sum(causes.values())
        _check(
            len(log) == served + failed,
            "tenant-failover: attempted %d != served %d + failed %d"
            % (len(log), served, failed),
        )
        latencies = sorted(r.latency for r, _, _, cause in log if cause is None)
        misplaced = sum(len(r["misplaced"]) for r in results)
        lost = sum(r["lost"] for r in results)
        detail = {
            "failures_by_cause": dict(sorted(causes.items())),
            "acked_writes": sum(r["acked"] for r in results),
            "lost_acked_writes": lost,
            "misplaced_tenants": [r["misplaced"] for r in results],
            "crashes": sum(len(r["crashes"]) for r in results),
            "failover_samples": sum(len(r["failovers"]) for r in results),
        }
        digest = _digest(
            {
                "episodes": [
                    {
                        "requests": r["fingerprint"],
                        "failovers": [round(f, 9) for f in r["failovers"]],
                        "crashes": r["crashes"],
                        "placement": r["placement"],
                    }
                    for r in results
                ],
                "detail": detail,
            }
        )
        return Outcome(
            digest=digest,
            requests=len(log),
            attempted=len(log),
            failed=failed,
            latency_p50=_percentile(latencies, 0.50),
            latency_p99=_percentile(latencies, 0.99),
            failovers=[f for r in results for f in r["failovers"]],
            violations=lost + misplaced,
            detail=detail,
        )

    def _episode(self, env, rng, tenants, vips) -> Dict[str, Any]:
        from repro.workloads import HTTP_SERVICE_CLASS
        from repro.workloads.kvstore import KV_SERVICE_CLASS
        from repro.workloads.webservice import host_http_bundle

        loop = env.loop
        end = loop.clock.now + self.DURATION
        #: (request, tenant, kind, failure cause or None) per arrival.
        log: List[Tuple[Any, str, str, Optional[str]]] = []
        acked: List[Tuple[str, str, int]] = []
        down_since: Dict[str, float] = {}
        failovers: List[float] = []
        crashes: List[List[Any]] = []

        def on_record(record: Any) -> None:
            started = down_since.get(record.instance)
            if record.up_at is not None and started is not None:
                del down_since[record.instance]
                failovers.append(record.up_at - started)

        for module in env.migration.values():
            module.add_listener(on_record)

        def resolve(tenant: str, write: bool, seq: int) -> Optional[str]:
            instance = env.instance_of(tenant)
            if instance is None:
                return "no-instance"
            context = instance.framework.system_context
            reference = context.get_service_reference(
                KV_SERVICE_CLASS if write else HTTP_SERVICE_CLASS
            )
            if reference is None:
                return "no-service"
            service = context.get_service(reference)
            try:
                if write:
                    key = "w%d" % seq
                    service.begin().put(key, seq).commit()
                    acked.append((tenant, key, seq))
                    return None
                status, _ = service.dispatch("/%s/echo" % tenant, seq)
                return None if status == 200 else "dispatch-%d" % status
            except RuntimeError:
                return "commit-error" if write else "dispatch-error"
            finally:
                context.unget_service(reference)

        def arrival() -> None:
            if loop.clock.now >= end:
                return
            seq = len(log) + 1
            tenant = tenants[rng.randrange(len(tenants))]
            write = rng.random() < self.WRITE_SHARE
            request = env.director.submit(vips[tenant], client="c%d" % seq)
            log.append((request, tenant, "write" if write else "read",
                        resolve(tenant, write, seq)))
            loop.call_after(rng.expovariate(self.RATE), arrival)

        def repaired(node_id: str) -> Callable[[Any], None]:
            def done(completion: Any) -> None:
                if completion.ok:
                    env.cluster.node(node_id).framework.install(
                        host_http_bundle()
                    ).start()
                    env.migration[node_id].add_listener(on_record)

            return done

        def crash() -> None:
            now = loop.clock.now
            if now >= end:
                return
            alive = [n.node_id for n in env.cluster.alive_nodes()]
            if len(alive) > self.NODES // 2:
                victim = alive[rng.randrange(len(alive))]
                hosted = env.fail_node(victim)
                crashes.append([round(now, 9), victim, hosted])
                for tenant in hosted:
                    down_since.setdefault(tenant, now)
                loop.call_after(
                    self.REPAIR_AFTER,
                    lambda: env.repair_node(victim).on_done(repaired(victim)),
                )
            loop.call_after(self.CRASH_GAP, crash)

        loop.call_after(rng.expovariate(self.RATE), arrival)
        loop.call_after(self.CRASH_GAP, crash)
        env.run_for(self.DURATION + self.SETTLE)

        served = 0
        causes: Dict[str, int] = {}
        fingerprint = hashlib.sha256()
        for i, (request, tenant, kind, error) in enumerate(log):
            cause = error or request.dropped or (None if request.ok else "unfinished")
            log[i] = (request, tenant, kind, cause)
            if cause is None:
                served += 1
            else:
                causes[cause] = causes.get(cause, 0) + 1
            fingerprint.update(
                ("%s %s %s %r\n" % (tenant, kind, cause, request.latency)).encode()
            )
        _check(
            env.director.submitted == len(log),
            "tenant-failover: director saw %d submissions for %d arrivals"
            % (env.director.submitted, len(log)),
        )
        # After the settle no request may still be in flight.
        ipvs = env.director.stats()
        _check(
            ipvs["submitted"] == ipvs["completed"] + ipvs["dropped"],
            "tenant-failover: ipvs submitted %d != completed %d + dropped %d"
            % (ipvs["submitted"], ipvs["completed"], ipvs["dropped"]),
        )
        placement = {
            tenant: sorted(
                n.node_id
                for n in env.cluster.alive_nodes()
                if tenant in n.instance_names()
            )
            for tenant in tenants
        }
        misplaced = sorted(t for t, nodes in placement.items() if len(nodes) != 1)
        return {
            "log": log,
            "served": served,
            "causes": causes,
            "fingerprint": fingerprint.hexdigest(),
            "failovers": failovers,
            "crashes": crashes,
            "placement": placement,
            "misplaced": misplaced,
            "acked": len(acked),
            "lost": self._lost_writes(env, acked, set(misplaced)),
        }

    @staticmethod
    def _lost_writes(env: Any, acked: List[Tuple[str, str, int]], skip: set) -> int:
        """Acknowledged writes the tenant's KV service no longer returns.
        Tenants not on exactly one node are counted as misplaced instead."""
        from repro.workloads.kvstore import KV_SERVICE_CLASS

        lost = 0
        services: Dict[str, Any] = {}
        for tenant, key, value in acked:
            if tenant in skip:
                continue
            if tenant not in services:
                context = env.instance_of(tenant).framework.system_context
                reference = context.get_service_reference(KV_SERVICE_CLASS)
                services[tenant] = (
                    context.get_service(reference) if reference is not None else None
                )
            service = services[tenant]
            if service is None or service.get(key) != value:
                lost += 1
        return lost


# ---------------------------------------------------------------------------
# audited-chaos
# ---------------------------------------------------------------------------
class AuditedChaos:
    """Two seeded ChaosCampaigns with telemetry and conformance on.

    One uses the default all-kinds fault mix on the default scenario, the
    other ``upgrade=True`` (a staged rollout under fire). The campaign
    seed is the workload seed. Episode seeds do not depend on the episode
    count, so with the default seed 0 the first six episodes are those of
    ``python -m repro chaos --seed 0 --episodes 6``, known ``customers-
    placed`` loss in episodes 3 and 5 included. The episode counts keep
    the host time of a batch steady from seed to seed. Set-up is the
    time spent building each episode's scenario; the run is the rest.
    """

    #: Episodes per campaign, by mode.
    EPISODES = {"default": 12, "upgrade": 8}

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> Dict[str, Any]:
        # Scenarios are built inside each campaign, per episode; their
        # build time is measured there and moved from run to set-up.
        return {"setup_s": 0.0, "envs": []}

    def run(self, state: Dict[str, Any]) -> Outcome:
        from repro.conformance.report import campaign_verdict
        from repro.faults.campaign import ChaosCampaign, default_scenario
        from repro.rollout.scenario import chaos_upgrade_scenario

        digests: Dict[str, str] = {}
        ran: List[Any] = []
        latencies: List[float] = []
        requests = 0
        for mode, episodes in self.EPISODES.items():
            build = chaos_upgrade_scenario if mode == "upgrade" else default_scenario
            result = ChaosCampaign(
                scenario_factory=self._timed(build, state),
                seed=self.seed,
                episodes=episodes,
                telemetry=True,
                conformance=True,
                upgrade=mode == "upgrade",
            ).run()
            digests[mode + ".trace"] = result.trace_digest()
            digests[mode + ".verdict"] = campaign_verdict(result, scenario=mode)["digest"]
            ran.extend(result.episodes)
            # Each episode's traffic, read once the campaign is done with it.
            for env in state["envs"]:
                requests += env.director.submitted
                latencies.extend(r.latency for r in env.director.requests if r.ok)
            state["envs"].clear()
        latencies.sort()
        failovers = [f for e in ran for f in e.failover_seconds]
        not_ok = [e for e in ran if not e.ok]
        detail = {
            "digests": digests,
            "episodes_not_ok": ["%d:%s" % (e.index, e.verdict.value) for e in not_ok],
            "invariant_violations": sorted({str(v) for e in ran for v in e.violations}),
            "conformance_violations": sum(len(e.conformance) for e in ran),
        }
        return Outcome(
            digest=_digest([digests, requests, _digest(latencies), failovers]),
            requests=requests,
            attempted=len(ran),
            failed=len(not_ok),
            latency_p50=_percentile(latencies, 0.50),
            latency_p99=_percentile(latencies, 0.99),
            failovers=failovers,
            violations=sum(len(e.violations) + len(e.conformance) for e in ran),
            detail=detail,
        )

    @staticmethod
    def _timed(build: Callable[[int], Any], state: Dict[str, Any]) -> Callable[[int], Any]:
        def scenario(seed: int) -> Any:
            started = time.perf_counter()
            env = build(seed)
            state["setup_s"] += time.perf_counter() - started
            state["envs"].append(env)
            return env

        return scenario


WORKLOADS = {
    "macro-day": MacroDay,
    "tenant-failover": TenantFailover,
    "audited-chaos": AuditedChaos,
}
