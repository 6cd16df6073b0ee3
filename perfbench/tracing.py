"""Outside-in layer tracing for the traced benchmark run.

The traced run wraps each layer's entry points from here, without
touching ``src/``: every wrapped call records a span (name, start, end,
parent) in flat in-memory arrays, and each layer's *self time* is the
span's duration minus the time its child spans cover. Counts come from
the layers' own public counters, read off instances captured when they
are constructed.

Limits of tracing from outside: closures the event loop fires directly
(gcs heartbeats, rollout polls, ipvs completions) are not wrapped, so
their cost lands in the self time of the span that fired them, normally
``sim.eventloop``. A hook whose target no longer exists is skipped and
its layer reported in :attr:`LayerTracer.absent`; the untraced runs never
depend on any of this.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, class, method, layer). The first group are public entry
#: points; the ones marked "callback" are the bound methods the event
#: loop or gcs calls directly, the only way into those layers from
#: outside.
SPAN_HOOKS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.eventloop", "EventLoop", "run_until", "sim.eventloop"),
    ("repro.sim.eventloop", "EventLoop", "run_for", "sim.eventloop"),
    ("repro.sim.eventloop", "EventLoop", "drain", "sim.eventloop"),
    ("repro.workloads.arrivals", "OpenLoopArrivals", "_candidate", "arrivals"),  # callback
    ("repro.ipvs.server", "DirectorCluster", "submit", "ipvs"),
    ("repro.sim.network", "Network", "send", "sim.network"),
    ("repro.sim.network", "Endpoint", "deliver", "sim.network"),
    ("repro.gcs.member", "GroupMember", "multicast", "gcs"),
    ("repro.gcs.member", "GroupMember", "join", "gcs"),
    ("repro.migration.module", "MigrationModule", "migrate", "migration"),
    ("repro.migration.module", "MigrationModule", "evacuate", "migration"),
    ("repro.migration.module", "MigrationModule", "send_command", "migration"),
    ("repro.migration.module", "MigrationModule", "_on_message", "migration"),  # callback
    ("repro.migration.module", "MigrationModule", "_on_view_change", "migration"),  # callback
    ("repro.storage.san", "SharedStore", "save_state", "san"),
    ("repro.storage.san", "SharedStore", "load_state", "san"),
    ("repro.storage.san", "SharedStore", "data_area", "san"),
    ("repro.storage.san", "SharedStore", "put_definition", "san"),
    ("repro.vosgi.manager", "InstanceManager", "create_instance", "vosgi"),
    ("repro.vosgi.manager", "InstanceManager", "start_instance", "vosgi"),
    ("repro.vosgi.manager", "InstanceManager", "stop_instance", "vosgi"),
    ("repro.vosgi.manager", "InstanceManager", "destroy_instance", "vosgi"),
    ("repro.vosgi.instance", "VirtualInstance", "start", "vosgi"),
    ("repro.vosgi.instance", "VirtualInstance", "stop", "vosgi"),
    ("repro.osgi.registry", "ServiceRegistry", "register", "osgi.registry"),
    ("repro.osgi.registry", "ServiceRegistry", "get_references", "osgi.registry"),
    ("repro.osgi.registry", "ServiceRegistry", "get_reference", "osgi.registry"),
    ("repro.osgi.registry", "ServiceRegistry", "get_service", "osgi.registry"),
    ("repro.osgi.registry", "ServiceRegistry", "unget_service", "osgi.registry"),
    ("repro.osgi.events", "EventDispatcher", "fire_bundle_event", "osgi.events"),
    ("repro.osgi.events", "EventDispatcher", "fire_service_event", "osgi.events"),
    ("repro.osgi.events", "EventDispatcher", "fire_framework_event", "osgi.events"),
    ("repro.osgi.framework", "Framework", "start", "osgi.framework"),
    ("repro.osgi.framework", "Framework", "stop", "osgi.framework"),
    ("repro.osgi.framework", "Framework", "install", "osgi.framework"),
    ("repro.core.environment", "DependableEnvironment", "locate", "environment"),
    ("repro.core.environment", "DependableEnvironment", "instance_of", "environment"),
    ("repro.core.environment", "DependableEnvironment", "fail_node", "environment"),
    ("repro.core.environment", "DependableEnvironment", "repair_node", "environment"),
    ("repro.monitoring.monitor", "MonitoringModule", "_tick", "monitoring"),  # callback
    ("repro.autonomic.serpentine", "PolicyEngine", "handle", "autonomic"),
    ("repro.telemetry.tracer", "Tracer", "start_span", "telemetry"),
    ("repro.telemetry.tracer", "Span", "finish", "telemetry"),
    ("repro.conformance.recorder", "HistoryRecorder", "view_install", "conformance.record"),
    ("repro.conformance.recorder", "HistoryRecorder", "multicast_send", "conformance.record"),
    ("repro.conformance.recorder", "HistoryRecorder", "deliver", "conformance.record"),
    ("repro.conformance.recorder", "HistoryRecorder", "op_invoke", "conformance.record"),
    ("repro.conformance.recorder", "HistoryRecorder", "op_return", "conformance.record"),
    ("repro.conformance.recorder", "HistoryRecorder", "migration_event", "conformance.record"),
    ("repro.conformance.recorder", "HistoryRecorder", "rollout_event", "conformance.record"),
    ("repro.conformance.recorder", "HistoryRecorder", "request_drop", "conformance.record"),
    ("repro.conformance.report", None, "check_history", "conformance.check"),
    ("repro.faults.injector", "FaultInjector", "arm", "faults"),
    ("repro.faults.injector", "FaultInjector", "quiesce", "faults"),
    ("repro.faults.invariants", "InvariantChecker", "check_now", "faults"),
    ("repro.rollout.engine", "RolloutEngine", "start", "rollout"),
)

_INHERITED = object()

#: Constructors whose instances the counters are read from.
CAPTURE_HOOKS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.eventloop", "EventLoop"),
    ("repro.workloads.arrivals", "OpenLoopArrivals"),
    ("repro.ipvs.server", "DirectorCluster"),
    ("repro.sim.network", "Network"),
    ("repro.gcs.member", "GroupMember"),
    ("repro.migration.module", "MigrationModule"),
    ("repro.storage.san", "SharedStore"),
    ("repro.monitoring.monitor", "MonitoringModule"),
    ("repro.faults.injector", "FaultInjector"),
    ("repro.rollout.engine", "RolloutEngine"),
    ("repro.conformance.recorder", "HistoryRecorder"),
)


class LayerTracer:
    """Span recorder plus the patches that feed it; a context manager."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.instances: Dict[str, List[Any]] = {}
        self.absent: List[str] = []
        self.view_changes = 0
        self.members_left = 0
        self.framework_errors = 0
        self._stack: List[int] = []
        self._child: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ---------------------------------------------------
    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        self.self_s.setdefault(layer, 0.0)
        self.calls.setdefault(name, 0)
        clock = time.perf_counter
        stack, child, calls, self_s = self._stack, self._child, self.calls, self.self_s
        starts, ends = self.span_start, self.span_end
        names, parents = self.span_name, self.span_parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            child.append(0.0)
            start = clock()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                duration = end - start
                self_s[layer] += duration - child.pop()
                if child:
                    child[-1] += duration

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    # -- installation -------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for module_name, cls_name, attr, layer in SPAN_HOOKS:
            label = "%s.%s" % (cls_name or module_name, attr)
            owner = self._resolve(module_name, cls_name)
            if owner is None or not callable(vars(owner).get(attr)):
                self.absent.append("%s:%s" % (layer, label))
                continue
            self._patch(owner, attr, self._wrap(layer, label, vars(owner)[attr]))
        self._hook_schedulers()
        for module_name, cls_name in CAPTURE_HOOKS:
            owner = self._resolve(module_name, cls_name)
            if owner is None:
                self.absent.append("capture:%s" % cls_name)
                continue
            self._patch(owner, "__init__", self._capture(cls_name, owner.__init__))
        self._hook_network_attach()
        self._hook_framework_errors()
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _resolve(module_name: str, cls_name: Optional[str]) -> Any:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None
        return module if cls_name is None else getattr(module, cls_name, None)

    def _capture(self, cls_name: str, init: Callable) -> Callable:
        bucket = self.instances.setdefault(cls_name, [])
        tracer = self

        @functools.wraps(init)
        def captured(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            bucket.append(obj)
            if cls_name == "GroupMember":
                obj.view_listeners.append(tracer._count_view)

        return captured

    def _count_view(self, change: Any) -> None:
        self.view_changes += 1
        self.members_left += len(change.left)

    def _hook_schedulers(self) -> None:
        module = self._resolve("repro.ipvs.schedulers", None)
        base = getattr(module, "Scheduler", None)
        if base is None:
            self.absent.append("ipvs.scheduler:Scheduler.pick")
            return
        for cls in vars(module).values():
            if isinstance(cls, type) and issubclass(cls, base) and "pick" in vars(cls):
                label = "%s.pick" % cls.__name__
                self._patch(cls, "pick", self._wrap("ipvs.scheduler", label, vars(cls)["pick"]))

    def _hook_network_attach(self) -> None:
        """Wrap each endpoint handler as a span of the layer that owns it
        (``gcs/...`` endpoints belong to gcs, the rest to vosgi remoting)."""
        network = self._resolve("repro.sim.network", "Network")
        attach = vars(network).get("attach") if network is not None else None
        if attach is None:
            self.absent.append("gcs:Network.attach")
            return
        tracer = self

        @functools.wraps(attach)
        def traced_attach(net, name, handler):
            layer = "gcs" if name.startswith("gcs/") else "vosgi"
            return attach(net, name, tracer._wrap(layer, "%s.handler" % layer, handler))

        self._patch(network, "attach", traced_attach)

    def _hook_framework_errors(self) -> None:
        """Count framework ERROR events: a bundle that fails to start is
        reported only there."""
        dispatcher = self._resolve("repro.osgi.events", "EventDispatcher")
        fire = vars(dispatcher).get("fire_framework_event") if dispatcher else None
        if fire is None:
            self.absent.append("osgi.framework:EventDispatcher.fire_framework_event")
            return
        tracer = self

        @functools.wraps(fire)
        def counted(dispatcher_, event):
            if getattr(getattr(event, "type", None), "name", "") == "ERROR":
                tracer.framework_errors += 1
            return fire(dispatcher_, event)

        self._patch(dispatcher, "fire_framework_event", counted)

    # -- results ------------------------------------------------------------
    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def captured(self, cls_name: str) -> List[Any]:
        return self.instances.get(cls_name, [])

    def call_count(self, *labels: str) -> int:
        return sum(self.calls.get(label, 0) for label in labels)

    def layer_self(self, layer: str) -> float:
        return self.self_s.get(layer, 0.0)

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent
        (the parent's line number, -1 for roots); times in seconds from
        the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_start)):
                out.write(
                    "[%d,%.9f,%.9f,%d]\n"
                    % (
                        self.span_name[i],
                        self.span_start[i] - origin,
                        self.span_end[i] - origin,
                        self.span_parent[i],
                    )
                )
