"""Key-value server: Np-parallel queue with fluctuating exponential service.

A server processes up to ``parallelism`` requests concurrently (paper:
``Np = 4``); excess requests wait in FIFO order.  Each request's service time
is exponential with the *current* fluctuating mean.  Every response
piggybacks a :class:`~repro.network.packet.ServerStatus` -- the queue size at
departure and the server's EWMA service-rate estimate -- which is the
feedback channel C3-style selectors rely on.

The server is one core for both simulation tiers.  ``env`` is anything
with ``now`` and ``post_in`` (the packet tier's
:class:`~repro.sim.core.Environment` or the flow tier's micro-heap engine),
a *job* is whatever the tier queues (a request :class:`Packet`, or the flow
tier's ``(client, request_id, retaining_value)`` tuple), and every
completed job goes to a ``reply(server, job, status)`` callable.  On the
packet tier that is :meth:`KVServer._respond`: build the response, fold the
LWW version and send it from the host.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Protocol, Tuple

from repro.network.host import Host
from repro.network.packet import MAGIC_PLAIN, Packet, ServerStatus, make_response
from repro.sim.rng import DrawSource


class ServiceModel(Protocol):
    """Provides the time-varying mean service time."""

    def mean_at(self, t: float) -> float:
        """Mean service time at time ``t`` (non-decreasing across calls)."""
        ...  # pragma: no cover - protocol definition


#: ``reply(server, job, status)``: deliver a completed job's response.
Reply = Callable[["KVServer", Any, ServerStatus], None]


class KVServer:
    """One replica server of the key-value store."""

    __slots__ = (
        "env",
        "host",
        "name",
        "_reply",
        "service_model",
        "parallelism",
        "value_size",
        "_draws",
        "_alpha",
        "_waiting",
        "_in_service",
        "_ewma_service_time",
        "completions",
        "arrivals",
        "max_queue_seen",
        "down",
        "_epoch",
        "dropped_requests",
        "lost_in_service",
        "_versions",
        "digest_requests",
        "repairs_applied",
        "migration_keys_in",
        "migration_bytes_in",
    )

    def __init__(
        self,
        env,
        host: Optional[Host],
        *,
        service_model: ServiceModel,
        parallelism: int = 4,
        rng: DrawSource,
        value_size: int = 1024,
        rate_ewma_alpha: float = 0.9,
        name: Optional[str] = None,
        reply: Optional[Reply] = None,
    ) -> None:
        """``host`` is the packet tier's NIC; hostless servers (the flow
        tier) pass ``name`` and the ``reply`` that delivers responses."""
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        if not 0 <= rate_ewma_alpha < 1:
            raise ValueError("rate_ewma_alpha must be in [0, 1)")
        self.env = env
        self.host = host
        self.name = host.name if host is not None else name
        self._reply: Reply = reply if reply is not None else KVServer._respond
        self.service_model = service_model
        self.parallelism = parallelism
        self.value_size = value_size
        self._draws = rng
        self._alpha = rate_ewma_alpha
        # Queued jobs with their arrival times.
        self._waiting: Deque[Tuple[Any, float]] = deque()
        self._in_service = 0
        # EWMA of observed service durations seeds at the nominal mean so the
        # first piggybacked rates are sane.
        self._ewma_service_time = service_model.mean_at(env.now)
        # Accounting
        self.completions = 0
        self.arrivals = 0
        self.max_queue_seen = 0
        # Crash-stop state (see repro.faults and docs/FAULTS.md).  The epoch
        # stamps in-flight completions so work scheduled before a crash dies
        # with the server instead of completing across it.
        self.down = False
        self._epoch = 0
        self.dropped_requests = 0
        self.lost_in_service = 0
        # Per-key LWW version store: key -> (version_ts, version_id).  Only
        # written keys have entries (reads of never-written keys carry the
        # zero version).  Versions survive crashes -- crash-stop loses the
        # queue, not the disk -- and are the payload key migration ships.
        self._versions: "dict[int, Tuple[float, int]]" = {}
        self.digest_requests = 0
        self.repairs_applied = 0
        self.migration_keys_in = 0
        self.migration_bytes_in = 0
        if host is not None:
            host.bind(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_size(self) -> int:
        """Pending requests: waiting plus in service (what C3 piggybacks)."""
        return len(self._waiting) + self._in_service

    @property
    def service_rate_estimate(self) -> float:
        """EWMA-based aggregate drain rate (requests/second)."""
        return self.parallelism / self._ewma_service_time

    def status(self) -> ServerStatus:
        """Snapshot the piggybacked status segment."""
        return ServerStatus(
            queue_size=len(self._waiting) + self._in_service,
            service_rate=self.parallelism / self._ewma_service_time,
            timestamp=self.env.now,
        )

    # ------------------------------------------------------------------
    # Crash-stop faults
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash the server: lose the queue and all requests in service.

        Idempotent.  Requests arriving while down are dropped (and counted
        in ``dropped_requests``); clients recover them via their timeout and
        retry path.  The EWMA rate estimate survives the crash -- the paper's
        feedback channel carries no tombstones, so stale state after
        recovery is part of the model.
        """
        if self.down:
            return
        self.down = True
        self._epoch += 1
        self.lost_in_service += self._in_service + len(self._waiting)
        self._waiting.clear()
        self._in_service = 0

    def recover(self) -> None:
        """Bring a crashed server back with an empty queue (idempotent)."""
        self.down = False

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        """Endpoint callback: accept a request (read, write, or metadata)."""
        if (packet.is_digest or packet.is_migration) and not self.down:
            self._handle_metadata(packet)
            return
        self.handle_arrival(packet)

    def handle_arrival(self, job: Any) -> None:
        """Queue a data request, or start serving it if a slot is free."""
        if self.down:
            self.dropped_requests += 1
            return
        self.arrivals += 1
        queued = len(self._waiting) + self._in_service + 1
        if queued > self.max_queue_seen:
            self.max_queue_seen = queued
        now = self.env.now
        if self._in_service < self.parallelism:
            self._begin_service(job, arrived_at=now)
        else:
            self._waiting.append((job, now))

    def _begin_service(self, job: Any, arrived_at: float) -> None:
        self._in_service += 1
        now = self.env.now
        duration = self._draws.exponential(self.service_model.mean_at(now))
        if self.host is not None:
            # Per-request server telemetry rides on the packet.
            job.server_queue_delay = now - arrived_at
            job.server_service_time = duration
        self.env.post_in(duration, self._complete, (job, duration, self._epoch))

    def _complete(self, job: Any, duration: float, epoch: int) -> None:
        if epoch != self._epoch:
            # Scheduled before a crash: that work died with the server.
            return
        self._in_service -= 1
        self.completions += 1
        self._ewma_service_time = (
            self._alpha * self._ewma_service_time + (1 - self._alpha) * duration
        )
        self._reply(self, job, self.status())
        if self._waiting:
            next_job, arrived_at = self._waiting.popleft()
            self._begin_service(next_job, arrived_at)

    def _respond(self, packet: Packet, status: ServerStatus) -> None:
        """The packet tier's reply: response packet, LWW fold, send."""
        response = make_response(
            packet,
            server=self.name,
            status=status,
            value_size=self.value_size,
        )
        self._fold_version(packet, response)
        self.host.send(response)

    # ------------------------------------------------------------------
    # Consistency protocol (see docs/CONSISTENCY.md)
    # ------------------------------------------------------------------
    def version_of(self, key: int) -> Tuple[float, int]:
        """The LWW version of ``key``; the zero version if never written."""
        return self._versions.get(key, (0.0, 0))

    def version_items(self):
        """Stored ``(key, version)`` pairs in write-application order.

        Dict insertion order is the order writes were first applied, which
        is deterministic per seed -- migration payloads iterate this.
        """
        return self._versions.items()

    def _fold_version(self, packet: Packet, response: Packet) -> None:
        """Apply a write's version (LWW) and stamp the store's onto the reply.

        Called at completion time from ``_respond``, the packet tier's
        reply (the flow tier rejects write workloads, so its reply has no
        fold).  Ordering ties break on the scenario-wide monotone
        ``version_id``, so last-write-wins is a total order and replicas
        converge regardless of apply order.
        """
        if packet.is_write:
            incoming = (packet.version_ts, packet.version_id)
            if incoming > self._versions.get(packet.key, (0.0, 0)):
                self._versions[packet.key] = incoming
                if packet.is_repair:
                    self.repairs_applied += 1
        version = self._versions.get(packet.key)
        if version is not None:
            response.version_ts, response.version_id = version

    def _handle_metadata(self, packet: Packet) -> None:
        """Serve version metadata outside the service queue.

        Digest probes and migration installs touch only the in-memory
        version table (no value retrieval), so they answer immediately
        instead of competing with data requests for the ``Np`` service
        slots -- and deliberately do not perturb ``arrivals``, queue sizes,
        or the piggybacked feedback loop.
        """
        if packet.is_migration:
            self._install_migration(packet)
            return
        self.digest_requests += 1
        response = Packet(
            src=self.name,
            dst=packet.client,
            magic=MAGIC_PLAIN,
            request_id=packet.request_id,
            server_status=self.status(),
            key=packet.key,
            value_size=0,
            client=packet.client,
            server=self.name,
            issued_at=packet.issued_at,
            is_digest=True,
        )
        version = self._versions.get(packet.key)
        if version is not None:
            response.version_ts, response.version_id = version
        self.host.send(response)

    def _install_migration(self, packet: Packet) -> None:
        """Fold a migration chunk into the version store (LWW per key)."""
        for key, version_ts, version_id in packet.migration_entries:
            incoming = (version_ts, version_id)
            if incoming > self._versions.get(key, (0.0, 0)):
                self._versions[key] = incoming
                self.migration_keys_in += 1
        self.migration_bytes_in += packet.value_size
