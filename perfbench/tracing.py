"""In-memory span recorder that wraps layer entry points from outside.

The traced run installs :func:`install` before the scenario or engine is
built: several objects pre-bind methods at construction time
(``Network.attach`` stores ``device.receive``, ``Host`` stores
``network.transmit_fast``), so a later patch would miss the packet path.

Each wrapper records one span -- name, start, end, parent span and the
request id of a packet argument -- into flat arrays.  A wrapper reads
only the host clock: it draws no random numbers and schedules no events,
so a traced run's simulated results equal the untraced run's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from typing import Dict, List, Tuple

import numpy as np

#: (module, class or None, attribute, span name, layer group, packet arg)
#: ``packet arg`` is the positional index (after ``self``) of an argument
#: carrying ``request_id``, or None.  ``class`` None with attribute
#: ``SOLVERS`` wraps every placement solver in that registry dict.
ENTRY_POINTS: Tuple[tuple, ...] = (
    ("repro.sim.core", "Environment", "run", "Environment.run", "sim", None),
    ("repro.network.fabric", "Network", "transmit", "Network.transmit", "network", 2),
    ("repro.network.fabric", "Network", "transmit_fast", "Network.transmit_fast", "network", 2),
    ("repro.network.switch", "ProgrammableSwitch", "receive", "ProgrammableSwitch.receive", "network", 0),
    ("repro.network.accelerator", "Accelerator", "submit", "Accelerator.submit", "network", 0),
    ("repro.network.routing", "Router", "path", "Router.path", "network", None),
    ("repro.network.host", "Host", "send", "Host.send", "network", 0),
    ("repro.network.host", "Host", "receive", "Host.receive", "network", 0),
    ("repro.core.selector_node", "NetRSSelector", "on_request", "NetRSSelector.on_request", "core", 0),
    ("repro.core.selector_node", "NetRSSelector", "on_response", "NetRSSelector.on_response", "core", 0),
    ("repro.core.placement", None, "SOLVERS", "placement", "core.placement", None),
    ("repro.selection.c3", "C3Selector", "select", "C3Selector.select", "selection", None),
    ("repro.selection.c3", "C3Selector", "note_response", "C3Selector.note_response", "selection", None),
    ("repro.kvstore.client", "KVClient", "issue", "KVClient.issue", "kvstore.client", None),
    ("repro.kvstore.client", "KVClient", "issue_write", "KVClient.issue_write", "kvstore.client", None),
    ("repro.kvstore.client", "KVClient", "handle_packet", "KVClient.handle_packet", "kvstore.client", 0),
    # Timer callbacks the event loop dispatches straight into the client.
    ("repro.kvstore.client", "KVClient", "_on_timeout", "KVClient._on_timeout", "kvstore.client", None),
    ("repro.kvstore.client", "KVClient", "_on_write_timeout", "KVClient._on_write_timeout", "kvstore.client", None),
    ("repro.kvstore.client", "KVClient", "_fire_redundant", "KVClient._fire_redundant", "kvstore.client", None),
    ("repro.kvstore.server", "KVServer", "handle_packet", "KVServer.handle_packet", "kvstore.server", 0),
    # Service completion, scheduled by the server on the event loop.
    ("repro.kvstore.server", "KVServer", "_complete", "KVServer._complete", "kvstore.server", 0),
    ("repro.kvstore.membership", "ChurnCoordinator", "leave", "ChurnCoordinator.leave", "kvstore.membership", None),
    ("repro.kvstore.membership", "ChurnCoordinator", "join", "ChurnCoordinator.join", "kvstore.membership", None),
    ("repro.kvstore.workload", "OpenLoopWorkload", "_arrival", "OpenLoopWorkload._arrival", "kvstore.workload", None),
    ("repro.faults.injector", "FaultInjector", "_apply", "FaultInjector._apply", "faults", None),
    ("repro.mesoscale.vector", "VectorFlowEngine", "__init__", "VectorFlowEngine.__init__", "mesoscale.setup", None),
    ("repro.mesoscale.vector", "VectorFlowEngine", "run", "VectorFlowEngine.run", "mesoscale", None),
)

#: Groups whose spans fall in set-up, before the first simulated event.
SETUP_GROUPS = ("core.placement", "mesoscale.setup")


class Tracer:
    """Spans in flat arrays; the open-span stack gives each span its parent."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.groups: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request_id = array("q")
        self._stack = [-1]

    def _intern(self, name: str, group: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return self._name_ids[name]

    def wrap(self, fn, name: str, group: str, packet_arg=None):
        """``fn`` recording one span per call."""
        nid = self._intern(name, group)
        clock = time.perf_counter
        stack = self._stack
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, rids = self.parent, self.request_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            rid = -1
            if packet_arg is not None and len(args) > packet_arg + 1:
                rid = getattr(args[packet_arg + 1], "request_id", -1)
            rids.append(rid if isinstance(rid, int) else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            began = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = began
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str, group: str):
        """Record one harness-owned span around the ``with`` body."""
        index = len(self.name_id)
        self.name_id.append(self._intern(name, group))
        self.parent.append(self._stack[-1])
        self.request_id.append(-1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def arrays(self) -> Dict[str, np.ndarray]:
        """Spans as numpy arrays (``parent`` -1 marks a root span)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request_id": np.frombuffer(self.request_id, dtype=np.int64),
        }

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per group: span count and self time (span minus direct children)."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        self_time = duration - child_time
        totals: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            mask = spans["name_id"] == nid
            entry = totals.setdefault(
                self.groups[nid], {"calls": 0, "self_s": 0.0, "by_name": {}}
            )
            calls = int(mask.sum())
            entry["calls"] += calls
            entry["self_s"] += float(self_time[mask].sum())
            entry["by_name"][name] = calls
        return totals

    def write(self, path: str) -> None:
        """Write every span plus the name table to a compressed ``.npz``."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            groups=np.array(self.groups),
            **self.arrays(),
        )


def install(tracer: Tracer) -> None:
    """Replace every entry point in :data:`ENTRY_POINTS` by a traced wrapper."""
    for module_name, class_name, attr, name, group, packet_arg in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if class_name is None:
            registry = getattr(module, attr)
            for key in list(registry):
                registry[key] = tracer.wrap(
                    registry[key], f"{name}.{key}", group
                )
            continue
        owner = getattr(module, class_name)
        setattr(owner, attr, tracer.wrap(owner.__dict__[attr], name, group, packet_arg))
