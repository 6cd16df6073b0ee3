#!/usr/bin/env python3
"""Benchmark runner: one workload, one seed, timed repeats or one traced run.

Run from the repository root::

    python3 perfbench/run.py --workload macro-day --seed 0 --seconds 30 --trace 0

``--trace 0`` runs the workload's fixed batch (set-up + run, same seed)
once to warm up, then repeats it for about ``--seconds``, at least
``MIN_REPEATS`` times. Between batches it times a fixed
calibration loop for ``CAL_SHARE`` of a batch's time. The end-to-end
times are host times rescaled to the reference host by the ratio of the
loop's reference time to its mean time in this run: ``setup_s`` is the
median set-up, ``run_ref_s`` the mean run, ``requests_per_ref_s`` the
requests of a batch per ``run_ref_s``. The raw host times are printed
and kept in the result file beside them.
``--trace 1`` runs the batch to warm up, once untraced and once with
every layer wrapped (perfbench/tracing.py), requires all three to
produce the same deterministic digest, and reports the per-layer
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
counts the batches run and ``failed`` those whose integrity checks
failed. Any integrity failure makes the exit code 1. A full record of
the run (host, per-repeat values, quartiles, digests) is written to
``perfbench/out/``. Without a ``src/repro`` tree under the current
directory it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

MIN_REPEATS = 3
#: Steps of the calibration loop, and its host time on the reference host,
#: a fixed unit: the Intel Xeon, nproc 2, Python 3.11 host of
#: perfbench/NOTES.md has run it in 0.09 to 0.47 s.
CAL_STEPS = 100_000
REF_CAL_S = 0.130
#: Calibration time between two batches, as a share of a batch's time.
CAL_SHARE = 0.4
#: End-to-end metrics, as BENCHMARK.json lists them; the others are printed
#: and kept in the result file.
END_TO_END = ("setup_s", "run_ref_s", "requests_per_ref_s", "peak_rss_mb")
OUT_DIR = Path("perfbench") / "out"


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("macro-day", "tenant-failover", "audited-chaos"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_record() -> Dict[str, Any]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spread(values: List[float]) -> Dict[str, float]:
    """Median and quartiles, as statistics.quantiles gives them."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


class _Item:
    __slots__ = ("key", "size")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size

    def weight(self) -> float:
        return self.size * 0.5 + 1.0


def calibrate(steps: int = CAL_STEPS) -> float:
    """Time a fixed pure-Python loop shaped like the simulator's hot path
    (a bounded heap of (when, seq, object) tuples, small objects, a dict
    of counters, float sums); returns its host seconds. Its result is
    checked, so its work stays fixed."""
    heap: List[Tuple[int, int, _Item]] = []
    counts: Dict[int, int] = {}
    push, pop = heapq.heappush, heapq.heappop
    x = 12345
    total = 0.0
    started = time.perf_counter()
    for i in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        push(heap, ((x & 1023) + i, i, _Item(x % 997, x & 63)))
        if len(heap) > 512:
            item = pop(heap)[2]
            counts[item.key] = counts.get(item.key, 0) + 1
            total += item.weight()
    elapsed = time.perf_counter() - started
    if (len(counts), sum(counts.values())) != (997, steps - 512):
        raise RuntimeError("calibration loop gave a wrong result")
    return elapsed


def timed_batch(workload: Any) -> Tuple[float, float, Any]:
    """Set up and run one batch; returns (setup_s, run_s, outcome)."""
    gc.collect()
    started = time.perf_counter()
    state = workload.setup()
    built = time.perf_counter()
    outcome = workload.run(state)
    finished = time.perf_counter()
    setup_s = built - started
    run_s = finished - built
    # audited-chaos builds its scenarios inside the run and reports how
    # long that took; that time is set-up, not simulation.
    if isinstance(state, dict) and "setup_s" in state:
        setup_s += state["setup_s"]
        run_s -= state["setup_s"]
    return setup_s, run_s, outcome


def calibrate_for(seconds: float, into: List[float]) -> None:
    """Run calibration loops for at least ``seconds``, at least once."""
    spent = 0.0
    while True:
        into.append(calibrate())
        spent += into[-1]
        if spent >= seconds:
            return


def untraced(workload: Any, seconds: float) -> Dict[str, Any]:
    # The first batch pays for lazy imports and first-use caches; it is
    # checked like the others but left out of the timings.
    calibrate()
    setup_s, run_s, outcome = timed_batch(workload)
    outcomes: List[Any] = [outcome]
    last = setup_s + run_s
    deadline = time.perf_counter() + seconds
    setups: List[float] = []
    runs: List[float] = []
    cals: List[float] = []
    # Another batch starts only if half of it, with its calibration, fits
    # before the deadline, so a run ends within about half a batch of it.
    while (len(runs) < MIN_REPEATS
           or time.perf_counter() + (1 + CAL_SHARE) * last / 2 < deadline):
        calibrate_for(CAL_SHARE * last, cals)
        setup_s, run_s, outcome = timed_batch(workload)
        setups.append(setup_s)
        runs.append(run_s)
        outcomes.append(outcome)
        last = setup_s + run_s
    calibrate_for(CAL_SHARE * last, cals)
    return {"setup_s": setups, "run_s": runs, "cal_s": cals, "outcomes": outcomes}


def traced(workload: Any) -> Dict[str, Any]:
    from tracing import LayerTracer

    warm = timed_batch(workload)[2]
    _, plain_run_s, plain = timed_batch(workload)
    with LayerTracer() as tracer:
        _, traced_run_s, outcome = timed_batch(workload)
    return {
        "tracer": tracer,
        "outcomes": [warm, plain, outcome],
        "plain_run_s": plain_run_s,
        "traced_run_s": traced_run_s,
    }


def layer_metrics(tracer: Any, overhead_ratio: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer counts (public counters) and self times (spans)."""
    inst = tracer.captured
    calls = tracer.call_count
    self_s = tracer.layer_self
    events = sum(loop.fired for loop in inst("EventLoop"))
    candidates = sum(a.candidates for a in inst("OpenLoopArrivals"))
    accepted = sum(a.arrivals for a in inst("OpenLoopArrivals"))
    net = [n.stats for n in inst("Network")]
    san = [s.stats for s in inst("SharedStore")]
    records = [r for m in inst("MigrationModule") for r in m.records]
    reports = [e.report for e in inst("RolloutEngine") if e.report is not None]
    injected = sum(
        1
        for injector in inst("FaultInjector")
        for entry in injector.trace.entries
        if entry.kind != "quiesce" and not entry.detail.startswith("skipped")
    )
    loop_self = self_s("sim.eventloop")
    count, secs, ratio = "count", "s", "ratio"
    return {
        "sim.eventloop.events": (events, count),
        "sim.eventloop.self_s": (loop_self, secs),
        "sim.eventloop.us_per_event": (loop_self / events * 1e6 if events else 0.0, "us"),
        "arrivals.candidates": (candidates, count),
        "arrivals.accepted": (accepted, count),
        "arrivals.accept_ratio": (accepted / candidates if candidates else 0.0, ratio),
        "arrivals.self_s": (self_s("arrivals"), secs),
        "ipvs.submitted": (sum(d.submitted for d in inst("DirectorCluster")), count),
        "ipvs.dropped": (sum(int(d.stats()["dropped"]) for d in inst("DirectorCluster")), count),
        "ipvs.self_s": (self_s("ipvs"), secs),
        "ipvs.scheduler.picks": (sum(v for k, v in tracer.calls.items() if k.endswith(".pick")), count),
        "ipvs.scheduler.self_s": (self_s("ipvs.scheduler"), secs),
        "sim.network.sent": (sum(s.sent for s in net), count),
        "sim.network.delivered": (sum(s.delivered for s in net), count),
        "sim.network.dropped": (
            sum(s.dropped_loss + s.dropped_partition + s.dropped_dead for s in net), count),
        "sim.network.self_s": (self_s("sim.network"), secs),
        "gcs.delivered": (sum(m.delivered_count for m in inst("GroupMember")), count),
        "gcs.multicasts": (calls("GroupMember.multicast"), count),
        "gcs.view_changes": (tracer.view_changes, count),
        "gcs.suspicions": (tracer.members_left, count),
        "gcs.self_s": (self_s("gcs"), secs),
        "migration.failovers": (
            sum(1 for r in records if r.reason == "failure" and r.completed), count),
        "migration.redeploys_failed": (
            sum(1 for r in records if r.reason != "planned" and not r.completed), count),
        "migration.self_s": (self_s("migration"), secs),
        "san.state_reads": (sum(s.state_reads for s in san), count),
        "san.state_writes": (sum(s.state_writes for s in san), count),
        "san.data_writes": (sum(s.data_writes for s in san), count),
        "san.bytes_written": (sum(s.bytes_written for s in san), "bytes"),
        "san.self_s": (self_s("san"), secs),
        "vosgi.instances_created": (calls("InstanceManager.create_instance"), count),
        "vosgi.self_s": (self_s("vosgi"), secs),
        "osgi.registry.lookups": (calls("ServiceRegistry.get_references"), count),
        "osgi.registry.registrations": (calls("ServiceRegistry.register"), count),
        "osgi.registry.self_s": (self_s("osgi.registry"), secs),
        "osgi.events.dispatched": (calls(
            "EventDispatcher.fire_bundle_event",
            "EventDispatcher.fire_service_event",
            "EventDispatcher.fire_framework_event"), count),
        "osgi.events.self_s": (self_s("osgi.events"), secs),
        "osgi.framework.start_errors": (tracer.framework_errors, count),
        "osgi.framework.self_s": (self_s("osgi.framework"), secs),
        "environment.locate_calls": (calls("DependableEnvironment.locate"), count),
        "environment.self_s": (self_s("environment"), secs),
        "monitoring.samples": (sum(m.ticks for m in inst("MonitoringModule")), count),
        "monitoring.self_s": (self_s("monitoring"), secs),
        "autonomic.self_s": (self_s("autonomic"), secs),
        "telemetry.spans": (calls("Tracer.start_span"), count),
        "telemetry.self_s": (self_s("telemetry"), secs),
        "conformance.events": (sum(len(r.history) for r in inst("HistoryRecorder")), count),
        "conformance.record_s": (self_s("conformance.record"), secs),
        "conformance.check_s": (self_s("conformance.check"), secs),
        "faults.injected": (injected, count),
        "faults.invariant_checks": (calls("InvariantChecker.check_now"), count),
        "faults.self_s": (self_s("faults"), secs),
        "rollout.waves": (sum(len(r.waves) for r in reports), count),
        "rollout.rollbacks": (sum(1 for r in reports if r.outcome == "rolled-back"), count),
        "rollout.self_s": (self_s("rollout"), secs),
        "trace.spans": (tracer.span_count, count),
        "trace.overhead_ratio": (overhead_ratio, ratio),
    }


def emit(title: str, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print("  %-30s %16.6f %s" % (name, value, unit))


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro under %s; run from the repository root"
              % os.getcwd(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, IntegrityError

    workload = WORKLOADS[args.workload](args.seed)
    host = host_record()
    record: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace, "host": host}
    print("perfbench %s seed=%d trace=%d  cpu=%s nproc=%s python=%s" % (
        args.workload, args.seed, args.trace, host["cpu"], host["nproc"], host["python"]))
    problems: List[str] = []
    outcomes: List[Any] = []
    reported: Dict[str, Tuple[float, str]] = {}
    try:
        if args.trace:
            result = traced(workload)
            outcomes = result["outcomes"]
            tracer = result["tracer"]
            reported = layer_metrics(tracer, result["traced_run_s"] / result["plain_run_s"])
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            span_file = OUT_DIR / ("%s-seed%d.spans.jsonl.gz" % (args.workload, args.seed))
            tracer.write_spans(str(span_file))
            record.update(span_file=str(span_file), absent_hooks=tracer.absent,
                          run_s={"untraced": result["plain_run_s"],
                                 "traced": result["traced_run_s"]})
            if tracer.absent:
                print("absent hooks (layers reported as 0): %s" % ", ".join(tracer.absent))
        else:
            result = untraced(workload, args.seconds)
            outcomes = result["outcomes"]
            requests = outcomes[0].requests
            setups, runs, cals = result["setup_s"], result["run_s"], result["cal_s"]
            # The host's speed swings by up to 2x within seconds and drifts
            # over minutes. Host seconds are rescaled to the reference host
            # by the calibration loops timed between the batches of this
            # run, and the run time is the mean over the run: a median of a
            # few batches would keep the fast swings that the mean averages.
            speed = REF_CAL_S / statistics.fmean(cals)
            run_ref_s = statistics.fmean(runs) * speed
            record["timed_repeats"] = len(runs)
            record["host_speed"] = speed
            host_time = {
                name: dict(spread(values), values=values)
                for name, values in (
                    ("setup_s", [t * speed for t in setups]),
                    ("run_ref_s", [t * speed for t in runs]),
                    ("setup_host_s", setups),
                    ("run_host_s", runs),
                    ("cal_s", cals),
                )
            }
            reported = {
                "setup_s": (host_time["setup_host_s"]["median"] * speed, "s"),
                "run_ref_s": (run_ref_s, "s"),
                "requests_per_ref_s": (requests / run_ref_s, "req/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
                "host_speed": (speed, "ratio"),
                "setup_host_s": (host_time["setup_host_s"]["median"], "s"),
                "run_host_s": (statistics.fmean(runs), "s"),
                "requests_per_host_s": (requests / statistics.fmean(runs), "req/s"),
            }
            record["host_time"] = host_time
        digests = sorted({o.digest for o in outcomes})
        if len(digests) != 1:
            problems.append("%s: %d distinct digests %s" % (
                "traced run differs from untraced" if args.trace else "repeats disagree",
                len(digests), digests))
    except IntegrityError as exc:
        problems.append(str(exc))

    record["repeats"] = len(outcomes)
    if outcomes:
        outcome = outcomes[-1]
        simulated = outcome.simulated_metrics()
        record.update(digest=outcome.digest, detail=outcome.detail,
                      simulated={k: v[0] for k, v in simulated.items()})
        if args.trace:
            reported.update(simulated)
            emit("per-layer (traced run) and simulated:", reported)
        else:
            emit("end-to-end, then raw host time (%d timed repeats):"
                 % record["timed_repeats"], reported)
            reported = {name: reported[name] for name in END_TO_END}
            emit("simulated (exact per seed):", simulated)
        print("digest %s" % outcome.digest)
        print("detail %s" % json.dumps(outcome.detail, sort_keys=True))
    for problem in problems:
        print("INTEGRITY FAILURE: %s" % problem, file=sys.stderr)
    record["problems"] = problems
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(OUT_DIR / name, "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True)
    batches = max(1, len(outcomes))
    print(json.dumps({
        "correct": not problems,
        "attempted": batches,
        "failed": batches if problems else 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
