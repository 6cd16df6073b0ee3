"""Macro-benchmark scenario: deterministic, accounted, and schedulable."""

import json

import pytest

from repro.macrobench import MacroConfig, MacroScenario


@pytest.fixture(scope="module")
def smoke_result():
    # Trimmed further below CI smoke scale to keep the unit suite fast.
    config = MacroConfig.smoke(day_seconds=10.0)
    return MacroScenario(config).run()


def test_two_runs_byte_identical():
    config = MacroConfig.smoke(day_seconds=10.0)
    first = json.dumps(MacroScenario(config).run().report(), sort_keys=True)
    second = json.dumps(MacroScenario(config).run().report(), sort_keys=True)
    assert first == second


#: Report digest of ``MacroConfig.smoke(day_seconds=10.0)``: 10,001
#: requests, all completed, over 20,002 events. A hot-path optimisation
#: must leave it byte-identical; a change that alters routing, arrival
#: draws or event order moves it.
#:
#: Re-pinned when arrival thinning became event-free: rejected candidates
#: no longer pass through the event loop, so ``events_fired`` fell from
#: 25,973 by the 5,971 rejected candidates, and the digest moved with it
#: (from ``8705c136...``). Every request, per-shard count, drop reason
#: and latency in the report stayed byte-identical.
PINNED_SMOKE_DIGEST = (
    "dddbc469741d9a14d4801b1074df27f6bfbdc8bc0cdfd42a6a370eda181bec37"
)


def test_smoke_digest_is_pinned(smoke_result):
    report = smoke_result.report()
    assert report["requests"]["submitted"] == 10001
    assert report["sim"]["events_fired"] == 20002
    assert report["digest"] == PINNED_SMOKE_DIGEST


def test_node_death_mid_day_is_in_the_drop_accounting():
    scenario = MacroScenario(MacroConfig.smoke(day_seconds=10.0))
    shard0 = scenario._shards[0]
    scenario.loop.call_at(5.0, lambda: shard0.mark_node("n001", False))
    result = scenario.run()
    assert result.dropped > 0
    assert result.submitted == result.completed + result.dropped
    assert sum(result.drop_reasons.values()) == result.dropped
    assert result.drop_reasons == {"server-died": result.dropped}
    assert shard0.stats()["dropped"] == result.dropped


def test_no_director_refusals_are_in_the_drop_accounting():
    scenario = MacroScenario(MacroConfig.smoke(day_seconds=10.0))
    shard0 = scenario._shards[0]

    def kill_directors():
        for director in shard0.directors:
            director.alive = False

    scenario.loop.call_at(5.0, kill_directors)
    result = scenario.run()
    assert result.dropped > 0
    assert result.submitted == result.completed + result.dropped
    assert result.drop_reasons == {"no-director": result.dropped}
    stats = shard0.stats()
    assert stats["dropped"] == result.dropped
    assert stats["submitted"] == stats["completed"] + stats["dropped"]
    # The other shards refused nothing, and carry no zero-count key.
    assert all(not shard.drops for shard in scenario._shards[1:])


def test_seed_changes_the_run():
    a = MacroScenario(MacroConfig.smoke(day_seconds=10.0)).run()
    b = MacroScenario(MacroConfig.smoke(day_seconds=10.0, seed=9)).run()
    assert a.report()["digest"] != b.report()["digest"]


def test_accounting_balances(smoke_result):
    result = smoke_result
    assert result.submitted > 0
    assert result.submitted == result.completed + result.dropped
    assert sum(result.per_shard_submitted) == result.submitted
    assert sum(result.per_shard_completed) == result.completed
    # ~mean-rate x duration arrivals, within Poisson noise.
    expected = result.config.expected_requests
    assert abs(result.submitted - expected) < expected * 0.15


def test_every_shard_sees_traffic(smoke_result):
    assert len(smoke_result.per_shard_submitted) == smoke_result.config.shards
    assert all(n > 0 for n in smoke_result.per_shard_submitted)


def test_latencies_sane(smoke_result):
    result = smoke_result
    service_time = result.config.service_time
    assert result.latency_p50 >= service_time - 1e-12
    assert result.latency_p50 <= result.latency_p99 <= result.latency_max
    assert result.latency_mean > 0


def test_report_shape(smoke_result):
    report = smoke_result.report()
    decoded = json.loads(json.dumps(report, sort_keys=True))
    assert decoded["scenario"] == "million-user-day"
    assert decoded["config"]["seed"] == 2026
    assert decoded["requests"]["submitted"] == smoke_result.submitted
    assert len(decoded["digest"]) == 64
    # Digest covers the payload: recompute by clearing and re-reporting.
    again = smoke_result.report()
    assert again["digest"] == decoded["digest"]


def test_bucketed_scheduler_run_matches_naive():
    """Config-level A/B: identical traffic outcome either way."""
    naive = MacroScenario(MacroConfig.smoke(day_seconds=5.0)).run().report()
    bucketed = (
        MacroScenario(MacroConfig.smoke(day_seconds=5.0, scheduler="lc-bucketed"))
        .run()
        .report()
    )
    naive["config"].pop("scheduler")
    bucketed["config"].pop("scheduler")
    naive.pop("digest")
    bucketed.pop("digest")
    assert naive == bucketed


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError):
        MacroScenario(MacroConfig.smoke(scheduler="wlc"))
