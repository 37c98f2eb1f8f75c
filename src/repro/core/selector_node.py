"""The NetRS selector: replica selection on a network accelerator.

Implements paper section IV-C.  For a NetRS request the selector resolves
the RGID against its local replica-group database, runs the configured
replica-selection algorithm, and rebuilds the packet: destination set to the
chosen server, retaining value set to the send timestamp (the paper's worked
example for RV), and magic set to ``f(MAGIC_RESPONSE)`` so switches treat the
rebuilt packet as ordinary traffic while the server's ``f^-1`` turns the
reply into a NetRS response.  For a cloned NetRS response the selector folds
the piggybacked server status (and the RV-derived response time) into the
algorithm's state and drops the clone.

The algorithm calls, :meth:`NetRSSelector.choose` and
:meth:`NetRSSelector.absorb`, take no packet, so the flow tier's RSNodes
run them directly (with the flow engine as ``env``).
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.kvstore.hashing import ConsistentHashRing
from repro.network.packet import (
    MAGIC_RESPONSE,
    Packet,
    ServerStatus,
    magic_transform,
)
from repro.selection.base import ReplicaSelector


class NetRSSelector:
    """Selector software running on one NetRS operator's accelerator."""

    def __init__(
        self,
        env,
        *,
        algorithm: ReplicaSelector,
        ring: ConsistentHashRing,
    ) -> None:
        self.env = env
        self.algorithm = algorithm
        self.ring = ring
        self.requests_handled = 0
        self.responses_handled = 0

    def choose(self, rgid: int) -> str:
        """Run the selection algorithm over a replica group; returns the server."""
        now = self.env.now
        candidates = self.ring.replicas(rgid)
        server = self.algorithm.select(candidates, now)
        self.algorithm.note_sent(server, now)
        self.requests_handled += 1
        return server

    def absorb(self, server: str, retaining_value: float, status: ServerStatus) -> None:
        """Fold one response's server status and response time into the algorithm."""
        now = self.env.now
        self.algorithm.note_response(server, now - retaining_value, status, now)
        self.responses_handled += 1

    def on_request(self, packet: Packet) -> Packet:
        """Choose a replica and rebuild the request (accelerator work)."""
        if packet.rgid < 0:
            raise ProtocolError(
                f"NetRS request {packet.request_id} carries no RGID"
            )
        server = self.choose(packet.rgid)
        now = self.env.now
        packet.dst = server
        packet.server = server
        packet.retaining_value = now
        packet.selected_at = now
        packet.magic = magic_transform(MAGIC_RESPONSE)
        return packet

    def on_response(self, packet: Packet) -> None:
        """Fold a cloned NetRS response into local information."""
        if packet.server_status is None:
            raise ProtocolError(
                f"NetRS response {packet.request_id} carries no server status"
            )
        self.absorb(packet.server, packet.retaining_value, packet.server_status)
