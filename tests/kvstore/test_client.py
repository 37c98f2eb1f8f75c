"""Tests for the KV client: issuing, feedback, redundancy, tracking."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kvstore.client import (
    _BACKOFF_CAP,
    CompletionTracker,
    KVClient,
    RedundancyPolicy,
)
from repro.kvstore.hashing import ConsistentHashRing
from repro.network.packet import (
    MAGIC_PLAIN,
    MAGIC_REQUEST,
    ServerStatus,
    make_response,
)
from repro.selection.base import ReplicaSelector
from repro.sim import Environment
from repro.sim.probes import LatencyRecorder

SERVERS = [f"server{i}" for i in range(5)]


class StubHost:
    def __init__(self, name="client0"):
        self.name = name
        self.sent = []
        self.endpoint = None

    def bind(self, endpoint):
        self.endpoint = endpoint

    def send(self, packet):
        self.sent.append(packet)


class FirstCandidateSelector(ReplicaSelector):
    """Deterministic selector double that logs its calls."""

    algorithm_name = "first"

    def __init__(self):
        super().__init__()
        self.sent = []
        self.responses = []

    def select(self, candidates, now):
        self.selections += 1
        return candidates[0]

    def note_sent(self, server, now):
        self.sent.append(server)

    def note_response(self, server, latency, status, now):
        self.responses.append((server, latency))


@pytest.fixture
def ring():
    return ConsistentHashRing(SERVERS, replication_factor=3, virtual_nodes=8)


def _client(env, ring, host=None, **kwargs):
    host = host or StubHost()
    selector = kwargs.pop("selector", FirstCandidateSelector())
    return (
        KVClient(
            env,
            host,
            ring=ring,
            selector=selector,
            recorder=kwargs.pop("recorder", LatencyRecorder()),
            **kwargs,
        ),
        host,
        selector,
    )


def _respond(client, request_packet, server=None, queue=0):
    """Simulate a server response arriving back at the client."""
    server = server or request_packet.dst
    request_packet.server = server
    status = ServerStatus(queue_size=queue, service_rate=1000.0, timestamp=0.0)
    response = make_response(request_packet, server=server, status=status)
    client.handle_packet(response)
    return response


class TestIssuePlain:
    def test_plain_issue_selects_and_sends(self, ring):
        env = Environment()
        client, host, selector = _client(env, ring)
        client.issue(key=7)
        assert len(host.sent) == 1
        packet = host.sent[0]
        assert packet.magic == MAGIC_PLAIN
        assert packet.dst in SERVERS
        assert selector.sent == [packet.dst]

    def test_dst_is_a_replica_of_the_key(self, ring):
        env = Environment()
        client, host, _ = _client(env, ring)
        client.issue(key=7)
        _, replicas = ring.group_for_key(7)
        assert host.sent[0].dst == replicas[0]

    def test_latency_recorded_on_response(self, ring):
        env = Environment()
        recorder = LatencyRecorder()
        client, host, _ = _client(env, ring, recorder=recorder)
        client.issue(key=1)
        env.call_in(3e-3, lambda: None)
        env.run()
        _respond(client, host.sent[0])
        assert len(recorder) == 1
        assert recorder.samples[0] == pytest.approx(3e-3)

    def test_warmup_requests_not_recorded(self, ring):
        env = Environment()
        recorder = LatencyRecorder()
        client, host, _ = _client(env, ring, recorder=recorder)
        client.issue(key=1, record=False)
        _respond(client, host.sent[0])
        assert len(recorder) == 0

    def test_selector_gets_feedback(self, ring):
        env = Environment()
        client, host, selector = _client(env, ring)
        client.issue(key=1)
        _respond(client, host.sent[0])
        assert len(selector.responses) == 1

    def test_duplicate_response_counted_late(self, ring):
        env = Environment()
        client, host, _ = _client(env, ring)
        client.issue(key=1)
        response = _respond(client, host.sent[0])
        client.handle_packet(response)
        assert client.late_responses == 1


class TestIssueNetrs:
    def test_netrs_request_has_rgid_and_backup(self, ring):
        env = Environment()
        client, host, selector = _client(env, ring, netrs=True)
        client.issue(key=7)
        packet = host.sent[0]
        assert packet.magic == MAGIC_REQUEST
        assert packet.dst is None
        rgid, replicas = ring.group_for_key(7)
        assert packet.rgid == rgid
        assert packet.backup_replica == replicas[0]
        # The client must not count a send it did not target.
        assert selector.sent == []

    def test_netrs_redundancy_rejected(self, ring):
        env = Environment()
        with pytest.raises(ConfigurationError):
            _client(env, ring, netrs=True, redundancy=RedundancyPolicy())


class TestRedundancy:
    def _issue_and_wait(self, env, ring, wait, min_samples=2):
        policy = RedundancyPolicy(min_samples=min_samples, fallback_multiplier=3.0)
        client, host, selector = _client(
            env, ring, redundancy=policy, rng=np.random.default_rng(0)
        )
        # Give the client some latency history (2 samples of ~1 ms), with
        # responses arriving *before* any redundancy timer can fire.
        for key in (1, 2):
            client.issue(key=key)
            env.call_in(1e-3, lambda: _respond(client, host.sent[-1]))
            env.run(until=env.now + 2e-3)
        host.sent.clear()
        client.issue(key=3)
        env.run(until=env.now + wait)
        return client, host, selector

    def test_slow_request_triggers_duplicate(self, ring):
        env = Environment()
        client, host, _ = self._issue_and_wait(env, ring, wait=50e-3)
        assert len(host.sent) == 2  # primary + duplicate
        assert host.sent[1].is_redundant
        assert host.sent[1].dst != host.sent[0].dst
        assert client.redundant_sent == 1

    def test_fast_response_cancels_timer(self, ring):
        env = Environment()
        policy = RedundancyPolicy(min_samples=1000)
        client, host, _ = _client(
            env, ring, redundancy=policy, rng=np.random.default_rng(0)
        )
        client.issue(key=1)
        _respond(client, host.sent[0])
        env.run()
        assert client.redundant_sent == 0

    def test_first_response_wins(self, ring):
        env = Environment()
        recorder = LatencyRecorder()
        policy = RedundancyPolicy(min_samples=2)
        client, host, _ = _client(
            env,
            ring,
            recorder=recorder,
            redundancy=policy,
            rng=np.random.default_rng(0),
        )
        for key in (1, 2):
            client.issue(key=key)
            env.call_in(1e-3, lambda: _respond(client, host.sent[-1]))
            env.run(until=env.now + 2e-3)
        host.sent.clear()
        recorded_before = len(recorder)
        client.issue(key=3)
        env.run(until=env.now + 60e-3)
        assert len(host.sent) == 2
        _respond(client, host.sent[1])  # duplicate answers first
        _respond(client, host.sent[0])  # primary arrives late
        assert len(recorder) == recorded_before + 1
        assert client.late_responses == 1

    def test_duplicate_targets_different_replica(self, ring):
        env = Environment()
        _, host, _ = self._issue_and_wait(env, ring, wait=50e-3)
        primary, duplicate = host.sent
        _, replicas = ring.group_for_key(3)
        assert duplicate.dst in replicas
        assert duplicate.dst != primary.dst


class TestCompletionTracker:
    def test_fires_once_at_expected(self):
        tracker = CompletionTracker(3)
        fired = []
        tracker.when_done(lambda: fired.append(True))
        for _ in range(3):
            tracker.complete()
        assert fired == [True]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CompletionTracker(0)

    def test_client_reports_completion(self, ring):
        env = Environment()
        tracker = CompletionTracker(1)
        client, host, _ = _client(env, ring, tracker=tracker)
        client.issue(key=1)
        _respond(client, host.sent[0])
        assert tracker.completed == 1


class StubEnv:
    """Hand-driven clock with the flow tier's timer contract: ``call_in``
    records the timer and returns no handle, so nothing is ever cancelled."""

    def __init__(self):
        self.now = 0.0
        self.timers = []

    def call_in(self, delay, fn, *args):
        self.timers.append((self.now + delay, len(self.timers), fn, args))

    def fire_next(self):
        self.timers.sort()
        when, _order, fn, args = self.timers.pop(0)
        self.now = when
        fn(*args)


def test_hostless_client_runs_on_its_send_seam(ring):
    """No host, no fabric: a client built with ``name`` and ``send`` issues,
    fires one R95 duplicate to another replica, retries on the capped
    backoff schedule and completes exactly once."""
    env = StubEnv()
    sent = []

    def send(client, request_id, entry, target, redundant):
        sent.append((env.now, request_id, target, redundant))

    timeout = 0.05
    tracker = CompletionTracker(1)
    recorder = LatencyRecorder()
    client = KVClient(
        env,
        None,
        name="client0",
        send=send,
        ring=ring,
        selector=FirstCandidateSelector(),
        recorder=recorder,
        tracker=tracker,
        redundancy=RedundancyPolicy(),
        request_timeout=timeout,
        max_retries=4,
    )
    assert client.name == "client0"
    rid = client.issue(7)
    _rgid, replicas = ring.group_for_key(7)
    assert sent == [(0.0, rid, replicas[0], False)]

    # With no latency history the R95 threshold is the 30 ms fallback, so
    # the duplicate leaves before the first timeout.
    env.fire_next()
    assert sent[1][1:] == (rid, replicas[1], True)
    assert sent[1][0] == pytest.approx(0.03)
    assert client.redundant_sent == 1

    # Four timeouts: untried replicas first, then the full group again,
    # each retransmission waiting min(2**k, cap) request timeouts.
    for _ in range(4):
        env.fire_next()
    retries = sent[2:]
    assert [target for _t, _rid, target, _dup in retries] == [
        replicas[1], replicas[2], replicas[0], replicas[0]
    ]
    assert all(request == rid and not dup for _t, request, _target, dup in retries)
    times = [0.0] + [t for t, _rid, _target, _dup in retries]
    gaps = [later - earlier for earlier, later in zip(times, times[1:])]
    assert gaps == pytest.approx(
        [timeout * min(2.0**k, _BACKOFF_CAP) for k in range(4)]
    )
    assert (client.timeouts, client.retries, client.requests_sent) == (4, 4, 5)
    # The fifth wait is where the cap bites: 2**4 request timeouts capped.
    ((next_timeout, _order, _fn, _args),) = env.timers
    assert next_timeout == pytest.approx(times[-1] + timeout * _BACKOFF_CAP)
    assert 2.0**4 > _BACKOFF_CAP

    # The first response completes the read; a losing copy only counts late.
    env.now = 0.8
    status = ServerStatus(queue_size=1, service_rate=1000.0, timestamp=0.8)
    client.handle_response(rid, replicas[2], status)
    client.handle_response(rid, replicas[1], status)
    assert tracker.completed == 1
    assert recorder.samples == (pytest.approx(0.8),)
    assert client.late_responses == 1
    assert client.duplicates_suppressed == 1

    # The last armed timeout fires as a no-op: nothing sent, nothing lost.
    env.fire_next()
    assert not env.timers
    assert len(sent) == 6
    assert client.requests_lost == 0
    assert tracker.completed == 1
