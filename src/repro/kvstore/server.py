"""Key-value server: Np-parallel queue with fluctuating exponential service.

A server processes up to ``parallelism`` requests concurrently (paper:
``Np = 4``); excess requests wait in FIFO order.  Each request's service time
is exponential with the *current* fluctuating mean.  Every response
piggybacks a :class:`~repro.network.packet.ServerStatus` -- the queue size at
departure and the server's EWMA service-rate estimate -- which is the
feedback channel C3-style selectors rely on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Protocol, Tuple

from repro.network.host import Host
from repro.network.packet import MAGIC_PLAIN, Packet, ServerStatus, make_response
from repro.sim.core import Environment
from repro.sim.rng import DrawSource


class ServiceModel(Protocol):
    """Provides the time-varying mean service time."""

    @property
    def current_mean(self) -> float:
        """Mean service time right now."""
        ...  # pragma: no cover - protocol definition

    def start(self, env: Environment) -> None:
        """Begin any time-varying behaviour."""
        ...  # pragma: no cover - protocol definition


class KVServer:
    """One replica server of the key-value store."""

    __slots__ = (
        "env",
        "host",
        "name",
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
        env: Environment,
        host: Host,
        *,
        service_model: ServiceModel,
        parallelism: int = 4,
        rng: DrawSource,
        value_size: int = 1024,
        rate_ewma_alpha: float = 0.9,
    ) -> None:
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        if not 0 <= rate_ewma_alpha < 1:
            raise ValueError("rate_ewma_alpha must be in [0, 1)")
        self.env = env
        self.host = host
        self.name = host.name
        self.service_model = service_model
        self.parallelism = parallelism
        self.value_size = value_size
        self._draws = rng
        self._alpha = rate_ewma_alpha
        self._waiting: Deque[Tuple[Packet, float]] = deque()
        self._in_service = 0
        # EWMA of observed service durations seeds at the nominal mean so the
        # first piggybacked rates are sane.
        self._ewma_service_time = service_model.current_mean
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
        host.bind(self)
        service_model.start(env)

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
            queue_size=self.queue_size,
            service_rate=self.service_rate_estimate,
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
    # Packet handling
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        """Endpoint callback: accept a request (read, write, or metadata)."""
        if self.down:
            self.dropped_requests += 1
            return
        if packet.is_digest or packet.is_migration:
            self._handle_metadata(packet)
            return
        self.arrivals += 1
        if self.queue_size + 1 > self.max_queue_seen:
            self.max_queue_seen = self.queue_size + 1
        if self._in_service < self.parallelism:
            self._begin_service(packet, arrived_at=self.env.now)
        else:
            self._waiting.append((packet, self.env.now))

    def _begin_service(self, packet: Packet, arrived_at: float) -> None:
        self._in_service += 1
        duration = self._draws.exponential(self.service_model.current_mean)
        packet.server_queue_delay = self.env.now - arrived_at
        packet.server_service_time = duration
        self.env.post_in(duration, self._complete, (packet, duration, self._epoch))

    def _complete(self, packet: Packet, duration: float, epoch: int) -> None:
        if epoch != self._epoch:
            # Scheduled before a crash: that work died with the server.
            return
        self._in_service -= 1
        self.completions += 1
        self._ewma_service_time = (
            self._alpha * self._ewma_service_time + (1 - self._alpha) * duration
        )
        response = make_response(
            packet,
            server=self.name,
            status=self.status(),
            value_size=self.value_size,
        )
        self._fold_version(packet, response)
        self.host.send(response)
        if self._waiting:
            next_packet, arrived_at = self._waiting.popleft()
            self._begin_service(next_packet, arrived_at)

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

        Called at completion time from ``_complete`` (the packet tier's only
        write-path hook in a mirrored method; the flow tier drops it by
        contract until writes are mirrored).  Ordering ties break on the
        scenario-wide monotone ``version_id``, so last-write-wins is a total
        order and replicas converge regardless of apply order.
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
