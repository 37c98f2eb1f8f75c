"""Declared flow-vs-packet mirror contracts (checked by ``netrs contracts``).

Both tiers run the same server, accelerator, NetRS selector and service
fluctuation classes (``KVServer``, ``Accelerator``, ``NetRSSelector``,
``BimodalFluctuation``/``StableService``); only the client endpoint and
the workload's arrival loop are still written twice.  The flow tier
(:mod:`repro.mesoscale.flow`) replays those line for line, and rule CON001
of ``repro.lint.contracts`` enforces it by comparing each pair below as
normalized ASTs.  Every rename, drop and equivalence here is a *reviewed,
allowed* rewrite -- the flow tier's transport substitutions
(``host.send`` -> closed-form delivery, ``env.call_in`` -> the micro-heap)
and its read-only-path omissions (writes, trace sinks, fault-free guards).
Anything not declared is drift and fails CI.

When you edit one side of a pair, replay the edit into the other side in
the same commit; if the rewrite is genuinely tier-specific, declare it
here -- the declaration is the reviewable artifact.

CON002 contracts bind the RNG surface: the stream *families* both tiers
create (a renamed family is a silently different seed) and the ordered
draws on the shared mixed-family arrival stream.

The vectorized flow tier (:mod:`repro.mesoscale.vector`) replays the
scalar flow tier, with the *scalar* engine as oracle.  Its surface is
structurally vectorized (one megaloop instead of per-entity methods) and
is covered by the runtime byte-identity suites instead; its arrival-stream
draw order is pinned against ``FlowEngine._arrival``.
"""

from __future__ import annotations

from repro.lint.contracts import (
    ContractRegistry,
    DrawSequencePair,
    MirrorPair,
    Site,
    StreamFamilyContract,
)

_FLOW = "src/repro/mesoscale/flow.py"
_VECTOR = "src/repro/mesoscale/vector.py"
_CLIENT = "src/repro/kvstore/client.py"
_WORKLOAD = "src/repro/kvstore/workload.py"
_SCENARIOS = "src/repro/experiments/scenarios.py"

#: The packet tier's write path sends real packets; the flow tier reuses
#: the entry and lets the engine deliver analytically.  These makeup
#: statements are the declared transport substitution for KVClient.issue.
_ISSUE_NETRS_PACKET = (
    "packet = make_request(client=self.name, request_id=request_id, key=key, "
    "rgid=rgid, backup_replica=backup, issued_at=now, netrs=True)"
)
_ISSUE_CLIRS_PACKET = (
    "packet = make_request(client=self.name, request_id=request_id, key=key, "
    "rgid=rgid, backup_replica=target, issued_at=now, netrs=False, dst=target)"
)
_RETRY_NETRS_PACKET = (
    "packet = make_request(client=self.name, request_id=request_id, "
    "key=entry.key, rgid=entry.rgid, backup_replica=backup, "
    "issued_at=entry.issued_at, netrs=True)"
)
_RETRY_CLIRS_PACKET = (
    "packet = make_request(client=self.name, request_id=request_id, "
    "key=entry.key, rgid=entry.rgid, backup_replica=target, "
    "issued_at=entry.issued_at, netrs=False, dst=target)"
)
_REDUNDANT_PACKET = (
    "duplicate = make_request(client=self.name, request_id=request_id, "
    "key=entry.key, rgid=entry.rgid, backup_replica=target, "
    "issued_at=entry.issued_at, netrs=False, dst=target)"
)

MIRROR_PAIRS = (
    # -- KVClient <-> _FlowClient --------------------------------------
    MirrorPair(
        name="client.issue",
        reference=Site(_CLIENT, "KVClient.issue"),
        mirror=Site(_FLOW, "_FlowClient.issue"),
        renames=(("self.env", "engine"),),
        drop_reference=(
            _ISSUE_NETRS_PACKET,
            _ISSUE_CLIRS_PACKET,
            "delay = self._redundancy_threshold()",
            "if self.read_quorum > 1: ...",
        ),
        drop_mirror=("engine = self.engine",),
        equivalences=(
            ("request_id = next(self._ids)", "request_id = next(engine._ids)"),
            (
                "backup = self.selector.select(replicas, now)",
                "self.selector.select(replicas, now)",
            ),
            (
                "entry = _Outstanding(key=key, rgid=rgid, replicas=replicas, "
                "issued_at=now, record=record, primary_target=primary_target)",
                "entry = _Entry(key, rgid, replicas, now, record, primary_target)",
            ),
            (
                "self.host.send(packet)",
                "if self.netrs:\n"
                "    engine._send_via_operator(self, request_id, entry.rgid)\n"
                "else:\n"
                "    engine._send_request(self, request_id, entry, primary_target)",
            ),
            (
                "entry.timer = engine.call_in(delay, self._fire_redundant, request_id)",
                "engine.post_in(self._redundancy_threshold(), self._fire_redundant, (request_id,))",
            ),
            (
                "entry.timeout_timer = engine.call_in(self.request_timeout, "
                "self._on_timeout, request_id)",
                "engine.post_in(self.request_timeout, self._on_timeout, (request_id,))",
            ),
        ),
    ),
    MirrorPair(
        # No declarations at all: the bodies agree once the assert is
        # stripped and math.isnan(x) is canonicalized to x != x.
        name="client.redundancy_threshold",
        reference=Site(_CLIENT, "KVClient._redundancy_threshold"),
        mirror=Site(_FLOW, "_FlowClient._redundancy_threshold"),
    ),
    MirrorPair(
        name="client.fire_redundant",
        reference=Site(_CLIENT, "KVClient._fire_redundant"),
        mirror=Site(_FLOW, "_FlowClient._fire_redundant"),
        renames=(("self.env", "self.engine"),),
        drop_reference=(
            _REDUNDANT_PACKET,
            "duplicate.is_redundant = True",
        ),
        equivalences=(
            (
                "self.host.send(duplicate)",
                "self.engine._send_request(self, request_id, entry, target)",
            ),
        ),
    ),
    MirrorPair(
        name="client.on_timeout",
        reference=Site(_CLIENT, "KVClient._on_timeout"),
        mirror=Site(_FLOW, "_FlowClient._on_timeout"),
        renames=(("self.env", "engine"),),
        # Send accounting and the packet build live inside the branches on
        # the mirror side but after them on the reference side; both are
        # dropped and the remaining selector/entry state must agree.
        drop_reference=(
            _RETRY_NETRS_PACKET,
            _RETRY_CLIRS_PACKET,
            "self.requests_sent += 1",
            "self.host.send(packet)",
            "if self.on_complete is not None: ...",
            "if entry.quorum is not None and entry.quorum.data_seen: ...",
        ),
        drop_mirror=(
            "engine = self.engine",
            "self.requests_sent += 1",
            "engine._send_via_operator(self, request_id, entry.rgid)",
            "engine._send_request(self, request_id, entry, target)",
        ),
        equivalences=(
            (
                "backup = self.selector.select(entry.replicas, now)",
                "self.selector.select(entry.replicas, now)",
            ),
            (
                "if self.tracker is not None:\n    self.tracker.complete()",
                "engine._complete_request()",
            ),
            (
                "entry.timeout_timer = engine.call_in(delay, self._on_timeout, request_id)",
                "engine.post_in(delay, self._on_timeout, (request_id,))",
            ),
        ),
    ),
    MirrorPair(
        name="client.handle_response",
        reference=Site(_CLIENT, "KVClient.handle_packet"),
        mirror=Site(_FLOW, "_FlowClient.handle_response"),
        renames=(
            ("self.env", "engine"),
            ("packet.request_id", "request_id"),
            ("packet.server", "server"),
        ),
        # Write acks, trace sinks, timer cancellation and the on_complete
        # hook are packet-tier-only surfaces (the flow tier is read-only,
        # its timers self-disarm on entry.done, and closed-loop/trace
        # instrumentation is unsupported -- see mesoscale.support).
        drop_reference=(
            "status = packet.server_status",
            "if packet.is_digest: ...",
            "if entry is not None and entry.is_write: ...",
            "if entry.quorum is not None: ...",
            "if self.trace_sink is not None: ...",
            "if entry.timer is not None: ...",
            "if entry.timeout_timer is not None: ...",
            "if self.on_complete is not None: ...",
        ),
        drop_mirror=("engine = self.engine",),
        equivalences=(
            (
                "if status is not None and entry is not None: ...",
                "if entry is not None: ...",
            ),
            (
                "if self.tracker is not None:\n    self.tracker.complete()",
                "engine._complete_request()",
            ),
        ),
    ),
    # -- workload arrival loop -----------------------------------------
    MirrorPair(
        name="workload.arrival",
        reference=Site(_WORKLOAD, "OpenLoopWorkload._arrival"),
        mirror=Site(_FLOW, "FlowEngine._arrival"),
        renames=(
            ("self._rng", "self._arrival_rng"),
            ("self.key_sampler", "self._sampler"),
            ("self.warmup_requests", "self._warmup"),
            ("self.total_requests", "self._total"),
            ("self.rate", "self._rate"),
            ("self.env.call_in", "self.post_in"),
        ),
        drop_reference=("if self.on_finished is not None: ...",),
        equivalences=(
            (
                "if self.write_fraction and self._arrival_rng.random() < self.write_fraction:\n"
                "    self.writes_issued += 1\n"
                "    self.clients[index].issue_write(key, record=record)\n"
                "else:\n"
                "    self.clients[index].issue(key, record=record)",
                "self.clients[index].issue(key, record=record)",
            ),
        ),
    ),
)

#: Both tiers must create the same named stream families.  ``background``
#: is packet-only: the flow tier rejects background traffic outright
#: (``ensure_flow_supported``), so no stream is ever created for it.
STREAM_FAMILIES = (
    StreamFamilyContract(
        name="packet-vs-flow stream families",
        reference_paths=(_SCENARIOS,),
        mirror_paths=(_FLOW,),
        reference_only=("background",),
    ),
)

#: The arrival stream is the one *mixed-family* stream: demand-weight
#: sampling, the write-fraction check and the inter-arrival exponential
#: all draw from it, so their relative order is load-bearing.  The
#: write-fraction draw is reference-only: the flow tier is read-only and
#: ``ensure_flow_supported`` rejects ``write_fraction > 0``, so the draw
#: is never made on either side of a fidelity-checked run.
DRAW_SEQUENCES = (
    DrawSequencePair(
        name="arrival-stream draw order",
        reference=Site(_WORKLOAD, "OpenLoopWorkload._arrival"),
        mirror=Site(_FLOW, "FlowEngine._arrival"),
        reference_rng="_rng",
        mirror_rng="_arrival_rng",
        reference_only_draws=("<rng>.random",),
    ),
    # The vector tier rolls the workload forward a block at a time, but the
    # per-request draws on the shared arrival stream keep the scalar order:
    # client pick, then the inter-arrival gap.  The key draw lives on its
    # own batched stream (not an arrival-stream draw on either side).
    DrawSequencePair(
        name="vector arrival-stream draw order",
        reference=Site(_FLOW, "FlowEngine._arrival"),
        mirror=Site(_VECTOR, "VectorFlowEngine._load_chunk"),
        reference_rng="_arrival_rng",
        mirror_rng="rng",
    ),
    # Both engines open with one exponential on the arrival stream (the
    # scalar tier posts the first arrival; the vector tier seeds the block
    # cursor with the same value).
    DrawSequencePair(
        name="vector opening arrival draw",
        reference=Site(_FLOW, "FlowEngine.run"),
        mirror=Site(_VECTOR, "VectorFlowEngine.run"),
        reference_rng="_arrival_rng",
        mirror_rng="_arrival_rng",
    ),
)

CONTRACTS = ContractRegistry(
    mirror_pairs=list(MIRROR_PAIRS),
    stream_families=list(STREAM_FAMILIES),
    draw_sequences=list(DRAW_SEQUENCES),
)
