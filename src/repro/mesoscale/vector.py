"""Struct-of-arrays whole-request fast path for the flow tier.

:class:`VectorFlowEngine` re-runs the exact experiment of
:class:`~repro.mesoscale.flow.FlowEngine` -- same named RNG streams in the
same order, same float-addition order, same tie-breaking -- but precomputes
whole *blocks* of requests ahead of the drain loop instead of materialising
one ``_Entry`` object, one arrival heap event and one hop loop per request:

* the open-loop arrival process (gap chain, per-request client index, key)
  is rolled forward ``vector_batch`` requests at a time into parallel
  struct-of-arrays blocks;
* key -> replica-group resolution and the per-(request, replica) locality
  class run over the block in one pass (``hop_class_batch``);
* the deterministic request delivery time for each locality class is one
  vectorized chained-add over the block (``path_chain``) -- the same
  IEEE additions the scalar ``_send_along`` performs hop by hop, evaluated
  element-wise, so the timestamps are bit-equal;
* arrivals never touch the heap: a cursor over the block merges with the
  micro-heap on the scalar engine's exact ``(time, seq)`` order, with the
  sequence numbers the scalar tier *would* have assigned simulated at the
  same points.

Per-request mutable state lives in flat rid-indexed arrays (issue time,
primary target, replica tuple, done/alive bytemaps) with the rare fields
(duplicate counts, retry attempts, tried sets) in sparse dicts, replacing
the scalar tier's per-request ``_Entry`` + ``_outstanding`` dict.  The
servers (``KVServer``), NetRS selectors, accelerators and the fault driver
are the scalar engine's own, and so is every send path: responses reach
this engine's flat-array client endpoint through the ``_on_response``
callback set once at construction.  The scalar engine remains the oracle:
the byte-identity suites in ``tests/mesoscale/test_vector.py`` hold every
sample and counter of this path equal to the scalar tier's.

Fault schedules with *link* events force every send back through the
scalar guarded path (per-hop dead/degrade checks at transmit time), so the
delivery-time tables are only consulted on fault-free links -- identical
results either way, just less batching.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from math import exp, log1p
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.kvstore.fluctuation import StableService
from repro.kvstore.server import KVServer
from repro.mesoscale.flow import _BACKOFF_CAP, _FLUSH_EVERY, FlowEngine
from repro.selection.c3 import C3Selector

_INF = float("inf")


# ---------------------------------------------------------------------------
# SoA kernels
# ---------------------------------------------------------------------------
def path_chain(times: np.ndarray, hops: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Chained per-hop delay accumulation over a block of start times.

    ``out[i] = times[i] + hops[0] + hops[1] + ...`` with one element-wise
    addition per hop -- the same float-addition order the scalar
    ``FlowEngine._send_along`` fast path performs per request, so delivery
    timestamps are bit-equal to the scalar chain.
    """
    out[:] = times
    for delay in hops:
        out += delay
    return out


def hop_class_batch(
    client_rack: np.ndarray,
    client_pod: np.ndarray,
    replica_rack: np.ndarray,
    replica_pod: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Locality class (0=same rack, 1=same pod, 2=cross-pod) per (request, replica).

    Integer compares only, so the result is trivially exact.  Class c
    maps to hop count 2c+2 and indexes the ``path_chain`` delivery tables.
    """
    same_rack = replica_rack == client_rack[:, None]
    same_pod = replica_pod == client_pod[:, None]
    out[...] = np.where(same_rack, 0, np.where(same_pod, 1, 2))
    return out


class _VFlowServer(KVServer):
    """A :class:`KVServer` carrying the fast drain's per-server caches.

    Swapped in (state-copied) only when the engine runs unguarded clirs
    with plain C3 selectors.  The fast drain serves these servers' jobs
    inline with the same arithmetic as ``handle_arrival``,
    ``_begin_service`` and ``_complete``, delivering each response through
    a memoized per-(server, client) hop plan -- the identical chained float
    additions ``_send_along`` performs.  Everything else (crashes, jobs
    sent by retries) runs the inherited methods unchanged.
    """

    __slots__ = ("_resp_plan", "_fastdraw", "_mean_const")

    def __init__(self, base: KVServer) -> None:
        for name in KVServer.__slots__:
            setattr(self, name, getattr(base, name))
        # client name -> (hop delays, hop count, bytes, overhead bytes)
        self._resp_plan: Dict[str, tuple] = {}
        # Stable-service means never change; folding the constant out lets
        # the drain loop skip the mean_at call (fluctuating servers keep a
        # None here and read the model's current interval).
        model = self.service_model
        self._mean_const = (
            model.mean_service_time if type(model) is StableService else None
        )
        # Service draws are the stream's only family, so the family lock the
        # first scalar draw would take is taken up front and the drain reads
        # the pre-drawn block directly (same values, same refill points).
        self._fastdraw = self._draws.block_size > 0
        if self._fastdraw:
            self._draws._lock("exponential")


class VectorFlowEngine(FlowEngine):
    """Flow engine draining precomputed struct-of-arrays request blocks.

    Construction is inherited wholesale -- the stream creation order, role
    placement, ring, servers, clients, operators and fault driver are the
    scalar engine's own.  Only the request lifecycle is replaced: arrivals
    come from a block cursor, and the client endpoint logic runs as
    engine-level methods over flat arrays (``_issue_next``,
    ``_v_handle_response``, ``_v_fire_redundant``, ``_v_on_timeout``).
    """

    def __init__(
        self,
        config,
        *,
        service_time_scale: float = 1.0,
        vector_batch: Optional[int] = None,
    ) -> None:
        super().__init__(config, service_time_scale=service_time_scale)
        self._on_response = self._v_handle_response
        if vector_batch is None:
            vector_batch = config.vector_batch
        self._chunk = max(1, vector_batch)
        self._rate_inv = 1.0 / self._rate
        self._timeout = config.request_timeout
        self._redundancy = self.clients[0].redundancy if self.clients else None
        self._req_size, self._req_overhead = self._sizes["request"]
        # hop class -> response-delivery plan (filled lazily): plans depend
        # only on the locality class of the pair, not on its identity.
        self._resp_by_class: Dict[int, tuple] = {}
        self._cls_hops = (2, 4, 6)  # hop count per locality class
        # Per-hop delay vectors per class, in scalar chain order (these pick
        # up the bandwidth-model widening automatically).
        self._hop_arrays = tuple(
            np.asarray(self._full_path[count], dtype=np.float64)
            for count in (2, 4, 6)
        )
        geometry = self.geometry
        racks_per_pod = geometry.racks_per_pod
        self._client_rack_arr = np.asarray(
            [geometry.rack_index(name) for name in self.client_hosts], dtype=np.int64
        )
        self._client_pod_arr = self._client_rack_arr // racks_per_pod
        self._rg_codes: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        # Fast mode: unguarded clirs with plain C3 selectors (the common
        # sweep configuration).  The server objects are swapped for their
        # state-copied _VFlowServer twins and the C3 feedback loops run
        # inlined in _issue_next/_v_fast_response; anything else (netrs,
        # link-fault guards, other selector families, rate control) stays
        # on the scalar endpoints.
        selector0 = self.clients[0].selector if self.clients else None
        self._fast = (
            not self._is_netrs
            and not self._guarded
            and isinstance(selector0, C3Selector)
            and selector0._rate_limiter_factory is None
            # The drain loop hoists the scoring constants once, so every
            # client's selector must share them (always true for selectors
            # built from one config; anything exotic stays on the scalar
            # endpoints).
            and all(
                c.selector.prior_service_rate == selector0.prior_service_rate
                and c.selector.concurrency_weight == selector0.concurrency_weight
                and c.selector.cubic_exponent == selector0.cubic_exponent
                and c.selector.ewma_alpha == selector0.ewma_alpha
                for c in self.clients
            )
        )
        if self._fast:
            self._sel_prior = selector0.prior_service_rate
            self._sel_weight = selector0.concurrency_weight
            self._sel_exponent = selector0.cubic_exponent
            self._sel_alpha = selector0.ewma_alpha
            self.servers = {
                name: _VFlowServer(server) for name, server in self.servers.items()
            }
        # (client, rgid) -> ((server, track), ...) for the inlined select
        # loop: replica groups are frozen with the ring and C3 tracks are
        # created once and never dropped, so the pairing is stable.  Tracks
        # are created on the first select touching them, exactly when the
        # scalar scoring loop would.
        self._track_cache: List[Dict[int, tuple]] = [
            {} for _ in self.clients
        ]
        # The key stream only ever draws uniforms, so the family lock its
        # first scalar draw would take is taken up front and _load_chunk
        # reads the pre-drawn block directly (same values, same refills).
        zipf_draws = self._sampler._draws
        self._zipf_fast = getattr(zipf_draws, "block_size", 0) > 0
        if self._zipf_fast:
            zipf_draws._lock("uniform")
        self._arrival_of = {
            name: server.handle_arrival for name, server in self.servers.items()
        }
        # -- dense per-request state (rid-indexed; rids are 1..total) -------
        total = self._total
        self._issued_at: List[float] = [0.0] * (total + 1)
        self._primary: List[str] = [""] * (total + 1)
        self._replicas_of: List[Tuple[str, ...]] = [()] * (total + 1)
        self._rgid_of: List[int] = [0] * (total + 1) if self._is_netrs else []
        self._done = bytearray(total + 1)
        self._alive = bytearray(total + 1)
        # -- sparse per-request state (zero for the vast majority) ----------
        self._dup_sent: Dict[int, int] = {}
        self._attempts: Dict[int, int] = {}
        self._late_seen: Dict[int, int] = {}
        self._tried: Dict[int, Tuple[str, ...]] = {}
        # -- redundancy-policy constants (inlined _redundancy_threshold) ----
        policy = self._redundancy
        if policy is not None:
            self._red_min = policy.min_samples
            self._red_pct = policy.percentile
            self._red_mult = policy.fallback_multiplier
            # Same single multiplication _redundancy_threshold performs on
            # its no-history branch, done once.
            self._red_default = policy.fallback_multiplier * 10e-3
        # -- bound handler caches (one bound method per push otherwise) -----
        self._issue_next_cb = self._issue_next
        self._fire_redundant_cb = self._v_fire_redundant
        self._timeout_cb = self._v_on_timeout
        self._fast_response_cb = self._v_fast_response
        self._deliver_cb = self._v_deliver
        self._v_complete_cb = self._v_complete
        self._server_by_name = dict(self.servers)
        # -- arrival cursor + current SoA block -----------------------------
        self._cursor = 0
        self._b_lo = 0
        self._b_hi = 0
        self._pending_time = 0.0
        self._b_times: List[float] = []
        self._b_clients: List[int] = []
        self._b_replicas: List[Tuple[str, ...]] = []
        self._b_rgids: List[int] = []
        self._b_cls: Optional[List[List[int]]] = None
        self._b_path: List[List[float]] = []

    # ------------------------------------------------------------------
    # SoA prologue: roll the workload forward one block
    # ------------------------------------------------------------------
    def _load_chunk(self) -> None:
        """Precompute the next ``vector_batch`` requests as parallel arrays.

        Draw order per request mirrors ``FlowEngine._arrival`` exactly:
        a uniform client pick then (unless last) an exponential gap on the
        shared arrival stream, with the key on its own batched stream --
        deferring whole blocks never reorders draws *within* a stream, and
        the streams are independent by construction (docs/SIMULATOR.md).
        """
        lo = self._b_hi
        hi = min(lo + self._chunk, self._total)
        n = hi - lo
        rng = self._arrival_rng
        sample = self.weights.sample
        sampler = self._sampler
        sample_key = sampler.sample
        ring = self.ring
        key_cache = ring._key_cache
        group_for_key = ring.group_for_key
        rate_inv = self._rate_inv
        last = self._total - 1
        t = self._pending_time
        times: List[float] = [0.0] * n
        clients: List[int] = [0] * n
        rgids: List[int] = [0] * n
        replicas_list: List[Tuple[str, ...]] = [()] * n
        # The rejection-inversion constants of ZipfSampler.sample, folded
        # out of the per-draw loop (same floats: _h_x1 - _h_n is the exact
        # subtraction the scalar sampler performs per call).
        zipf_fast = self._zipf_fast
        if zipf_fast:
            zdraws = sampler._draws
            z_n = sampler.n
            z_hn = sampler._h_n
            z_span = sampler._h_x1 - z_hn
            z_threshold = sampler._threshold
            z_one_minus_s = 1.0 - sampler.s
        for j in range(n):
            times[j] = t
            # Mixed-family arrival stream: same uniform draw as the scalar
            # _arrival (CON002 pins the per-request draw order).
            clients[j] = sample(rng)  # repro: noqa(PERF001) - mixed-family arrival stream, mirrors FlowEngine._arrival
            if zipf_fast:
                # Inlined ZipfSampler.sample + BatchedStream.random +
                # _h_integral_inverse/_helper1 (draw-for-draw identical;
                # the rare rejection check keeps calling the sampler's own
                # _h_integral/_h).
                while True:
                    pos = zdraws._pos
                    block = zdraws._block
                    if pos >= len(block):
                        zdraws._refill()
                        block = zdraws._block
                        pos = 0
                    zdraws._pos = pos + 1
                    u = z_hn + block[pos] * z_span
                    tt = u * z_one_minus_s
                    if tt < -1.0:
                        tt = -1.0
                    if abs(tt) > 1e-8:
                        x = exp((log1p(tt) / tt) * u)
                    else:
                        x = exp(
                            (1.0 - tt * (0.5 - tt * (1.0 / 3.0 - 0.25 * tt))) * u
                        )
                    key = int(x + 0.5)
                    if key < 1:
                        key = 1
                    elif key > z_n:
                        key = z_n
                    if (
                        key - x <= z_threshold
                        or u >= sampler._h_integral(key + 0.5) - sampler._h(key)
                    ):
                        break
            else:
                key = sample_key()
            # Inlined ConsistentHashRing.group_for_key cache probe (Zipf
            # workloads hit it almost always; misses hash + memoize there).
            hit = key_cache.get(key)
            if hit is None:
                hit = group_for_key(key)
            rgids[j], replicas_list[j] = hit
            if lo + j < last:
                t = t + rng.exponential(rate_inv)  # repro: noqa(PERF001) - mixed-family arrival stream, mirrors FlowEngine._arrival
        self._pending_time = t
        # Dense state for the whole block in one splice.
        self._issued_at[lo + 1 : hi + 1] = times
        self._replicas_of[lo + 1 : hi + 1] = replicas_list
        self._alive[lo + 1 : hi + 1] = b"\x01" * n
        if self._is_netrs:
            self._rgid_of[lo + 1 : hi + 1] = rgids
        elif not self._guarded:
            # Locality classes + per-class delivery-time tables (fast sends
            # bypass _send_along entirely; guarded runs keep the scalar
            # per-hop checks, netrs routes through the operator instead).
            rg_codes = self._rg_codes
            rack_index = self.geometry.rack_index
            racks_per_pod = self.geometry.racks_per_pod
            replica_racks: List[Tuple[int, ...]] = [()] * n
            replica_pods: List[Tuple[int, ...]] = [()] * n
            for j in range(n):
                rgid = rgids[j]
                codes = rg_codes.get(rgid)
                if codes is None:
                    racks = tuple(rack_index(name) for name in replicas_list[j])
                    codes = (racks, tuple(r // racks_per_pod for r in racks))
                    rg_codes[rgid] = codes
                replica_racks[j] = codes[0]
                replica_pods[j] = codes[1]
            times_arr = np.asarray(times, dtype=np.float64)
            crack = self._client_rack_arr[clients]
            cpod = self._client_pod_arr[clients]
            srack = np.asarray(replica_racks, dtype=np.int64)
            spod = np.asarray(replica_pods, dtype=np.int64)
            cls = np.empty((n, srack.shape[1]), dtype=np.int64)
            hop_class_batch(crack, cpod, srack, spod, cls)
            path = np.empty((3, n), dtype=np.float64)
            for index, hops in enumerate(self._hop_arrays):
                path_chain(times_arr, hops, path[index])
            self._b_cls = cls.tolist()
            self._b_path = path.tolist()
        else:
            self._b_cls = None
        self._b_lo = lo
        self._b_hi = hi
        self._b_times = times
        self._b_clients = clients
        self._b_replicas = replicas_list
        self._b_rgids = rgids

    # ------------------------------------------------------------------
    # Drain loop: block cursor merged with the micro-heap on (time, seq)
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Drive the experiment until completion (or the safety horizon)."""
        # Mirrors the scalar run()'s opening arrival post: same draw, same
        # seq consumed -- the arrival event carries no payload because the
        # request under the cursor is already rolled forward in the block.
        self._seq += 1
        first_seq = self._seq
        self._pending_time = self._arrival_rng.exponential(self._rate_inv)  # repro: noqa(PERF001) - mixed-family arrival stream, mirrors FlowEngine.run
        self._load_chunk()
        if self._fast:
            # Arrivals never touch the heap in fast mode: the drain merges
            # a (time, seq) cursor over the block against the heap head,
            # which is exactly the order heap events would pop in.
            self._drain_fast(until, first_seq)
        else:
            if self._b_times:
                heappush(
                    self._heap,
                    (self._b_times[0], first_seq, self._issue_next_cb, ()),
                )
            self._drain(until)
        env = self.env
        if self._now > env.now:
            env.run(until=self._now)

    def _drain(self, until: Optional[float]) -> None:
        """Generic micro-event drain: one dispatch per heap event."""
        heap = self._heap
        env = self.env
        env_times = self._env_times
        bounded = until is not None
        fire_cb = self._fire_redundant_cb
        timeout_cb = self._timeout_cb
        alive = self._alive
        done = self._done
        micro = 0
        while not self._stopped:
            if not heap:
                break
            head = heap[0]
            when = head[0]
            if bounded and when > until:
                self._now = until
                break
            if env_times and env_times[0] <= when:
                # Fault transitions fire on the macro clock, strictly before
                # any micro-event at or after their timestamp (same ordering
                # as the scalar tier).
                while env_times and env_times[0] <= when:
                    env.run(until=env_times.pop(0))
            heappop(heap)
            self._now = when
            micro += 1
            cb = head[2]
            if cb is fire_cb or cb is timeout_cb:
                # Dead client timers (request already done or reclaimed) are
                # the common case; their handlers' first guard is inlined
                # here so the pop alone pays for them.  Scalar parity: the
                # event still executes (micro counted), its handler is just
                # the same no-op early return.
                rid = head[3][1]
                if done[rid] or not alive[rid]:
                    continue
            cb(*head[3])
        self.micro_events += micro

    def _drain_fast(self, until: Optional[float], first_seq: int) -> None:
        """Fast-mode drain: the five hot handlers inlined into one frame.

        Event-for-event this executes exactly what :meth:`_drain` would --
        same event order, same arithmetic, same RNG draws -- but the issue /
        deliver / complete / response / dead-timer branches run inside this
        loop's frame, keyed on the callback identity of the popped event, so
        the common path pays no Python calls and no repeated attribute
        loads.  The standalone methods (``_issue_next``, ``_v_deliver``,
        ``_v_complete``, ``_v_fast_response``, ``_v_fire_redundant``,
        ``_v_on_timeout``) remain the readable line-for-line mirrors of
        these branches.  Events that reach the heap through a scalar-path
        send (retries) carry the shared endpoints' own callbacks
        (``KVServer.handle_arrival``, ``KVServer._complete``,
        ``_v_handle_response``) and fall through to the generic dispatch
        below.

        Four bookkeeping devices keep the loop allocation-free without
        changing observable state:

        * **Pending-arrival merge** -- arrival times are monotone and only
          one arrival is outstanding at a time, so the arrival "event" is a
          ``(pa_time, pa_seq)`` local compared lexicographically against the
          heap head instead of a pushed-and-popped heap entry.  ``pa_seq``
          is the exact sequence number the heap event would have carried, so
          the merged order is the heap's own.
        * **Lazy clock** -- ``self._now`` is written only where code outside
          this frame can observe it (generic dispatch, tracker callbacks,
          heartbeat flushes, loop exit); every inlined branch uses the
          popped ``when`` directly.  Fault transitions read the macro
          ``env.now``, never ``_now``, so the fault drain needs no write.
          ``self.issued`` (always equal to the cursor here) is synced at the
          same points.
        * **Local accounting** -- transmissions / bytes / overhead accumulate
          in frame locals, flushed to the engine counters before any escape
          to code that could read or write them.
        * **Flat events** -- the inlined branches push
          ``(time, seq, sentinel, *args)`` without the inner args tuple
          (one allocation per event instead of two).  Heap ordering never
          compares past the unique ``seq``, so flat events coexist with the
          ``(time, seq, callback, args)`` events of scalar-path sends, which
          still route through the generic ``cb(*args)`` dispatch.  The stop
          flag is re-checked exactly where the handlers that can set it run
          (tracker callbacks, live timeouts, generic dispatch), preserving
          the scalar drain's exit points.
        """
        heap = self._heap
        env = self.env
        env_times = self._env_times
        bounded = until is not None
        issue_cb = self._issue_next_cb
        deliver_cb = self._deliver_cb
        complete_cb = self._v_complete_cb
        response_cb = self._fast_response_cb
        fire_cb = self._fire_redundant_cb
        timeout_cb = self._timeout_cb
        alive = self._alive
        done = self._done
        issued_at = self._issued_at
        primary = self._primary
        clients = self.clients
        per_client_counts = self.per_client_counts
        track_cache = self._track_cache
        server_by_name = self._server_by_name
        cls_hops = self._cls_hops
        req_size = self._req_size
        req_overhead = self._req_overhead
        replicas_of = self._replicas_of
        full_path = self._full_path
        hop_count = self.geometry.hop_count
        prior = self._sel_prior
        weight = self._sel_weight
        exponent = self._sel_exponent
        t_alpha = self._sel_alpha
        policy = self._redundancy
        has_red = policy is not None
        red_min = self._red_min if has_red else 0
        red_pct = self._red_pct if has_red else 0.0
        red_mult = self._red_mult if has_red else 0.0
        red_default = self._red_default if has_red else 0.0
        timeout = self._timeout
        warmup = self._warmup
        recorder = self.recorder
        tracker = self.tracker
        dup_sent = self._dup_sent
        attempts = self._attempts
        late_seen = self._late_seen
        total = self._total
        cursor = self._cursor
        b_lo = self._b_lo
        b_hi = self._b_hi
        b_times = self._b_times
        b_clients = self._b_clients
        b_replicas = self._b_replicas
        b_rgids = self._b_rgids
        b_cls = self._b_cls
        b_path = self._b_path
        seq = self._seq
        micro = 0
        acc_tx = 0
        acc_bytes = 0
        acc_overhead = 0
        when = self._now
        if cursor < total:
            pa_time = b_times[cursor - b_lo]
            pa_seq = first_seq
        else:
            pa_time = _INF
            pa_seq = 0
        while True:
            if heap:
                head = heap[0]
                when = head[0]
                if pa_time < when or (pa_time == when and pa_seq < head[1]):
                    head = None
                    when = pa_time
            elif pa_time < _INF:
                head = None
                when = pa_time
            else:
                break
            if bounded and when > until:
                when = until
                break
            if env_times and env_times[0] <= when:
                # Fault transitions fire on the macro clock, strictly before
                # any micro-event at or after their timestamp.
                self._seq = seq
                self.issued = cursor
                while env_times and env_times[0] <= when:
                    env.run(until=env_times.pop(0))
                seq = self._seq
            micro += 1
            if head is None:
                # ---- issue the request under the cursor (mirror: _issue_next)
                j = cursor - b_lo
                cidx = b_clients[j]
                per_client_counts[cidx] += 1
                client = clients[cidx]
                rid = cursor + 1
                replicas = b_replicas[j]
                selector = client.selector
                # Inlined C3Selector.select + note_sent (no rate limiter in
                # fast mode): the exact single-pass scoring loop, tie-breaks
                # delegated back to the selector so the RNG stream position
                # matches.
                selector.selections += 1
                cache = track_cache[cidx]
                pairs = cache.get(b_rgids[j])
                if pairs is None:
                    tracks = selector._tracks
                    built = []
                    for server_name in replicas:
                        track = tracks.get(server_name)
                        if track is None:
                            track = selector._track(server_name)
                        built.append((server_name, track))
                    pairs = tuple(built)
                    cache[b_rgids[j]] = pairs
                best = None
                best_track = None
                best_score = _INF
                winners = None
                target_index = 0
                index = 0
                for server_name, track in pairs:
                    rate = track.service_rate
                    if not rate > 0:
                        rate = prior
                    expected_service = 1.0 / rate
                    q_hat = 1.0 + track.outstanding * weight + track.queue_size
                    score = (
                        track.response_time
                        - expected_service
                        + (q_hat**exponent) * expected_service
                    )
                    if score < best_score:
                        best = server_name
                        best_track = track
                        best_score = score
                        target_index = index
                        winners = None
                    elif score == best_score:
                        if winners is None:
                            winners = [best]
                        winners.append(server_name)
                    index += 1
                if winners is None:
                    target = best
                else:
                    target = selector._tie_break(winners)
                    target_index = replicas.index(target)
                    best_track = selector._tracks[target]
                best_track.outstanding += 1  # note_sent
                primary[rid] = target
                client.requests_sent += 1
                cls = b_cls[j][target_index]
                hops = cls_hops[cls]
                acc_tx += hops
                acc_bytes += req_size * hops
                seq += 1
                heappush(
                    heap,
                    (b_path[cls][j], seq, deliver_cb,
                     server_by_name[target], client, rid),
                )
                if has_red:
                    # Inlined _FlowClient._redundancy_threshold (cached
                    # percentile after min_samples, mean fallback in warmup).
                    history = client._history
                    if len(history._samples) >= red_min:
                        if (
                            client._cached_threshold is None
                            or client._samples_since_refresh >= 25
                        ):
                            client._cached_threshold = history.percentile(red_pct)
                            client._samples_since_refresh = 0
                        threshold = client._cached_threshold
                    else:
                        mean = history.mean()
                        if mean != mean:  # NaN: no history yet
                            threshold = red_default
                        else:
                            threshold = red_mult * mean
                    seq += 1
                    heappush(
                        heap, (when + threshold, seq, fire_cb, client, rid)
                    )
                if timeout is not None:
                    seq += 1
                    heappush(
                        heap, (when + timeout, seq, timeout_cb, client, rid)
                    )
                cursor += 1
                if cursor < total:
                    if cursor >= b_hi:
                        self._load_chunk()
                        b_lo = self._b_lo
                        b_hi = self._b_hi
                        b_times = self._b_times
                        b_clients = self._b_clients
                        b_replicas = self._b_replicas
                        b_rgids = self._b_rgids
                        b_cls = self._b_cls
                        b_path = self._b_path
                    seq += 1
                    pa_time = b_times[cursor - b_lo]
                    pa_seq = seq
                else:
                    pa_time = _INF
                continue
            heappop(heap)
            cb = head[2]
            if cb is deliver_cb:
                # ---- delivery at the server (mirror: KVServer.handle_arrival)
                server = head[3]
                if server.down:
                    server.dropped_requests += 1
                    continue
                server.arrivals += 1
                waiting = server._waiting
                queued = len(waiting) + server._in_service
                if queued + 1 > server.max_queue_seen:
                    server.max_queue_seen = queued + 1
                if server._in_service < server.parallelism:
                    server._in_service += 1
                    mean = server._mean_const
                    if mean is None:
                        # Fluctuating mean: read the current interval
                        # directly, fall back to the redrawing method at
                        # boundaries (mirror: BimodalFluctuation.mean_at).
                        flux = server.service_model
                        if when < flux._next:
                            mean = flux._current
                        else:
                            mean = flux.mean_at(when)
                    if server._fastdraw:
                        draws = server._draws
                        pos = draws._pos
                        block = draws._block
                        if pos >= len(block):
                            draws._refill()
                            block = draws._block
                            pos = 0
                        draws._pos = pos + 1
                        duration = block[pos] * mean
                    else:
                        duration = server._draws.exponential(mean)
                    seq += 1
                    heappush(
                        heap,
                        (when + duration, seq, complete_cb,
                         server, head[4], head[5], duration, server._epoch),
                    )
                else:
                    waiting.append(((head[4], head[5], None), when))
                continue
            if cb is complete_cb:
                # ---- service completion (mirror: KVServer._complete)
                server = head[3]
                if head[7] != server._epoch:
                    continue  # scheduled before a crash: died with the server
                server._in_service -= 1
                server.completions += 1
                alpha = server._alpha
                duration = head[6]
                server._ewma_service_time = (
                    alpha * server._ewma_service_time + (1 - alpha) * duration
                )
                waiting = server._waiting
                queue_size = len(waiting) + server._in_service
                service_rate = server.parallelism / server._ewma_service_time
                client = head[4]
                plan = server._resp_plan.get(client.name)
                if plan is None:
                    plan = self._response_plan(server.name, client.name)
                    server._resp_plan[client.name] = plan
                hops_t, count, nbytes, noverhead = plan
                t = when
                for delay in hops_t:
                    t += delay
                acc_tx += count
                acc_bytes += nbytes
                acc_overhead += noverhead
                seq += 1
                heappush(
                    heap,
                    (t, seq, response_cb,
                     client, head[5], server.name, queue_size, service_rate),
                )
                if waiting:
                    (next_client, next_rid, _rv), _arrived = waiting.popleft()
                    server._in_service += 1
                    mean = server._mean_const
                    if mean is None:
                        flux = server.service_model
                        if when < flux._next:
                            mean = flux._current
                        else:
                            mean = flux.mean_at(when)
                    if server._fastdraw:
                        draws = server._draws
                        pos = draws._pos
                        block = draws._block
                        if pos >= len(block):
                            draws._refill()
                            block = draws._block
                            pos = 0
                        draws._pos = pos + 1
                        duration = block[pos] * mean
                    else:
                        duration = server._draws.exponential(mean)
                    seq += 1
                    heappush(
                        heap,
                        (when + duration, seq, complete_cb,
                         server, next_client, next_rid, duration, server._epoch),
                    )
                continue
            if cb is response_cb:
                # ---- response at the client (mirror: _v_fast_response)
                client = head[3]
                rid = head[4]
                client.responses_received += 1
                rid_alive = alive[rid]
                if rid_alive:
                    selector = client.selector
                    track = selector._tracks.get(head[5])
                    if track is None:
                        track = selector._track(head[5])
                    if track.outstanding > 0:
                        track.outstanding -= 1
                    latency = when - issued_at[rid]
                    if track.feedback_count == 0:
                        track.response_time = latency
                        track.queue_size = float(head[6])
                        track.service_rate = head[7]
                    else:
                        track.response_time = (
                            t_alpha * track.response_time + (1 - t_alpha) * latency
                        )
                        track.queue_size = (
                            t_alpha * track.queue_size + (1 - t_alpha) * head[6]
                        )
                        track.service_rate = (
                            t_alpha * track.service_rate + (1 - t_alpha) * head[7]
                        )
                    track.feedback_count += 1
                    track.last_feedback_at = when
                    selector.feedback_updates += 1
                    if not done[rid]:
                        done[rid] = 1
                        # Inlined LatencyRecorder.add: latency is a
                        # response-minus-issue difference, so the negative
                        # guard cannot fire; the sorted mirror (built by the
                        # R95 percentile queries) stays consistent.
                        history = client._history
                        history._samples.append(latency)
                        mirror = history._sorted
                        if mirror is not None:
                            insort(mirror, latency)
                        client._samples_since_refresh += 1
                        if rid > warmup:
                            recorder._samples.append(latency)
                            mirror = recorder._sorted
                            if mirror is not None:
                                insort(mirror, latency)
                        if not dup_sent.get(rid, 0) and not attempts.get(rid, 0):
                            alive[rid] = 0
                        # Inlined _complete_request (tracker tick + flush).
                        completed = tracker.completed + 1
                        tracker.completed = completed
                        stopping = False
                        if completed == tracker.expected:
                            self._now = when
                            self.issued = cursor
                            for callback in tracker._callbacks:
                                callback()
                            stopping = self._stopped
                        flush = self._since_flush + 1
                        if flush >= _FLUSH_EVERY:
                            self._since_flush = 0
                            self._seq = seq
                            self._now = when
                            self.issued = cursor
                            env.post_at(when, self._heartbeat)
                            env.run(until=when)
                            seq = self._seq
                        else:
                            self._since_flush = flush
                        if stopping:
                            break
                        continue
                client.late_responses += 1
                if rid_alive:
                    if attempts.get(rid, 0):
                        client.duplicates_suppressed += 1
                    seen = late_seen.get(rid, 0) + 1
                    late_seen[rid] = seen
                    if seen >= dup_sent.get(rid, 0) + attempts.get(rid, 0):
                        alive[rid] = 0
                continue
            if cb is fire_cb:
                rid = head[4]
                if done[rid] or not alive[rid]:
                    # Dead timer: same no-op early return as the handler,
                    # micro already counted.
                    continue
                # ---- live redundant duplicate (mirror: _v_fire_redundant
                # plus the unguarded _send_request/_send_along fast path;
                # note_sent has no mirror or limiter in fast mode).
                client = head[3]
                primary_target = primary[rid]
                others = [r for r in replicas_of[rid] if r != primary_target]
                if not others:
                    continue
                cdraws = client._draws
                if cdraws is not None and len(others) > 1:
                    target = others[int(cdraws.integers(len(others)))]
                else:
                    target = others[0]
                selector = client.selector
                track = selector._tracks.get(target)
                if track is None:
                    track = selector._track(target)
                track.outstanding += 1  # note_sent
                dup_sent[rid] = dup_sent.get(rid, 0) + 1
                client.redundant_sent += 1
                hops_t = full_path[hop_count(client.name, target)]
                t = when
                for delay in hops_t:
                    t += delay
                n_hops = len(hops_t)
                acc_tx += n_hops
                acc_bytes += req_size * n_hops
                acc_overhead += req_overhead * n_hops
                seq += 1
                heappush(
                    heap,
                    (t, seq, deliver_cb, server_by_name[target], client, rid),
                )
                continue
            if cb is timeout_cb:
                rid = head[4]
                if done[rid] or not alive[rid]:
                    continue
                # Live timeout: runs the standalone handler (retry logic is
                # cold); sync observable state around it like the generic
                # dispatch below.  It can lose the request and stop the run.
                self._seq = seq
                self._cursor = cursor
                self._now = when
                self.issued = cursor
                self.transmissions += acc_tx
                self.bytes_transferred += acc_bytes
                self.netrs_overhead_bytes += acc_overhead
                acc_tx = 0
                acc_bytes = 0
                acc_overhead = 0
                timeout_cb(head[3], rid)
                seq = self._seq
                cursor = self._cursor
                if self._stopped:
                    break
                continue
            # Rare events (retry timers, scalar-path sends under faults):
            # sync everything a handler could observe, then resume locals.
            self._seq = seq
            self._cursor = cursor
            self._now = when
            self.issued = cursor
            self.transmissions += acc_tx
            self.bytes_transferred += acc_bytes
            self.netrs_overhead_bytes += acc_overhead
            acc_tx = 0
            acc_bytes = 0
            acc_overhead = 0
            cb(*head[3])
            seq = self._seq
            cursor = self._cursor
            if self._stopped:
                break
        if pa_time < _INF:
            # Early exit (bounded horizon or stop) with an arrival still
            # pending: restore it as the heap event it stands for.
            heappush(heap, (pa_time, pa_seq, issue_cb, ()))
        self._seq = seq
        self._cursor = cursor
        self._now = when
        self.issued = cursor
        self.transmissions += acc_tx
        self.bytes_transferred += acc_bytes
        self.netrs_overhead_bytes += acc_overhead
        self.micro_events += micro

    def _v_deliver(self, server, client, rid: int) -> None:
        """Dispatch mirror of the fast drain's delivery branch."""
        server.handle_arrival((client, rid, None))

    def _v_complete(self, server, client, rid, duration, epoch) -> None:
        """Dispatch mirror of the fast drain's completion branch."""
        server._complete((client, rid, None), duration, epoch)

    def _issue_next(self) -> None:
        """Issue the request under the cursor (mirror of _arrival + issue)."""
        i = self._cursor
        j = i - self._b_lo
        cidx = self._b_clients[j]
        self.per_client_counts[cidx] += 1
        self.issued = i + 1
        client = self.clients[cidx]
        rid = i + 1  # the scalar tier's next(self._ids): one id per issue
        now = self._now
        replicas = self._b_replicas[j]
        heap = self._heap
        if self._is_netrs:
            # Backup draw kept for RNG parity, exactly as the scalar client.
            client.selector.select(replicas, now)
            client.requests_sent += 1
            self._send_via_operator(client, rid, self._b_rgids[j])
        else:
            # Fast mode never reaches this method (the megaloop's issue
            # branch inlines the C3 scoring loop); here the selector runs
            # through its public byte-equivalent entry points.
            selector = client.selector
            target = selector.select(replicas, now)
            selector.note_sent(target, now)
            target_index = replicas.index(target)
            self._primary[rid] = target
            client.requests_sent += 1
            block_cls = self._b_cls
            if block_cls is None:  # guarded: per-hop fault checks
                self._send_request(client, rid, None, target)
            else:
                cls = block_cls[j][target_index]
                hops = self._cls_hops[cls]
                self.transmissions += hops
                self.bytes_transferred += self._req_size * hops
                self._seq += 1
                heappush(
                    heap,
                    (
                        self._b_path[cls][j],
                        self._seq,
                        self._arrival_of[target],
                        ((client, rid, None),),
                    ),
                )
        if self._redundancy is not None:
            # Inlined _FlowClient._redundancy_threshold: cached percentile
            # after min_samples, mean-based fallback during warmup (the
            # constants were folded once in __init__, same arithmetic).
            history = client._history
            if len(history._samples) >= self._red_min:
                if (
                    client._cached_threshold is None
                    or client._samples_since_refresh >= 25
                ):
                    client._cached_threshold = history.percentile(self._red_pct)
                    client._samples_since_refresh = 0
                threshold = client._cached_threshold
            else:
                mean = history.mean()
                if mean != mean:  # NaN: no history yet
                    threshold = self._red_default
                else:
                    threshold = self._red_mult * mean
            self._seq += 1
            heappush(
                heap,
                (now + threshold, self._seq, self._fire_redundant_cb, (client, rid)),
            )
        if self._timeout is not None:
            self._seq += 1
            heappush(
                heap,
                (now + self._timeout, self._seq, self._timeout_cb, (client, rid)),
            )
        i += 1
        self._cursor = i
        if i < self._total:
            if i >= self._b_hi:
                self._load_chunk()
            self._seq += 1
            heappush(
                heap,
                (self._b_times[i - self._b_lo], self._seq, self._issue_next_cb, ()),
            )

    # ------------------------------------------------------------------
    # Client endpoints over flat arrays (mirrors of _FlowClient methods)
    # ------------------------------------------------------------------
    def _v_fire_redundant(self, client, rid: int) -> None:
        if not self._alive[rid] or self._done[rid]:
            return
        primary_target = self._primary[rid]
        others = [r for r in self._replicas_of[rid] if r != primary_target]
        if not others:
            return
        if client._draws is not None and len(others) > 1:
            target = others[int(client._draws.integers(len(others)))]
        else:
            target = others[0]
        client.selector.note_sent(target, self._now)
        self._dup_sent[rid] = self._dup_sent.get(rid, 0) + 1
        client.redundant_sent += 1
        self._send_request(client, rid, None, target)

    def _v_on_timeout(self, client, rid: int) -> None:
        if not self._alive[rid] or self._done[rid]:
            return
        client.timeouts += 1
        attempts = self._attempts.get(rid, 0)
        if attempts >= client.max_retries:
            self._done[rid] = 1
            client.requests_lost += 1
            self._alive[rid] = 0
            self._complete_request()
            return
        attempts += 1
        self._attempts[rid] = attempts
        client.retries += 1
        now = self._now
        if self._is_netrs:
            client.selector.select(self._replicas_of[rid], now)  # fresh backup draw
            client.requests_sent += 1
            self._send_via_operator(client, rid, self._rgid_of[rid])
        else:
            replicas = self._replicas_of[rid]
            tried = self._tried.get(rid)
            if tried is None:
                tried = (self._primary[rid],)
            untried = tuple(r for r in replicas if r not in tried)
            candidates = untried or replicas
            if len(candidates) > 1:
                target = client.selector.select(candidates, now)
            else:
                target = candidates[0]
            self._tried[rid] = tried + (target,)
            self._primary[rid] = target
            client.selector.note_sent(target, now)
            client.requests_sent += 1
            self._send_request(client, rid, None, target)
        delay = client.request_timeout * min(2.0**attempts, _BACKOFF_CAP)
        self.post_in(delay, self._v_on_timeout, (client, rid))

    def _response_plan(self, server_name: str, client_name: str) -> tuple:
        """Memoizable response-delivery plan for one (server, client) pair.

        Plans are shared per locality class: the hop-delay chain and the
        byte accounting depend only on the hop count, so the per-pair memo
        in ``_VFlowServer._resp_plan`` resolves misses with one dict probe
        here instead of rebuilding the tuple per pair.
        """
        hop_key = self.geometry.hop_count(server_name, client_name)
        plan = self._resp_by_class.get(hop_key)
        if plan is None:
            hops = self._response_path[hop_key]
            size, overhead = self._sizes["response"]
            count = len(hops)
            plan = (hops, count, size * count, overhead * count)
            self._resp_by_class[hop_key] = plan
        return plan

    def _v_fast_response(
        self, client, rid: int, server: str, queue_size: int, service_rate: float
    ) -> None:
        """Dispatch mirror of the fast drain's response branch:
        ``_v_handle_response`` with the C3 ``note_response`` EWMA fold
        inlined (scalar ``ServerStatus`` fields arrive as the
        ``queue_size``/``service_rate`` scalars the drain's completion
        branch computed -- same expressions, same float operations, no
        allocation)."""
        client.responses_received += 1
        now = self._now
        alive = self._alive[rid]
        if alive:
            selector = client.selector
            track = selector._tracks.get(server)
            if track is None:
                track = selector._track(server)
            if track.outstanding > 0:
                track.outstanding -= 1
            latency = now - self._issued_at[rid]
            alpha = selector.ewma_alpha
            if track.feedback_count == 0:
                track.response_time = latency
                track.queue_size = float(queue_size)
                track.service_rate = service_rate
            else:
                track.response_time = (
                    alpha * track.response_time + (1 - alpha) * latency
                )
                track.queue_size = (
                    alpha * track.queue_size + (1 - alpha) * queue_size
                )
                track.service_rate = (
                    alpha * track.service_rate + (1 - alpha) * service_rate
                )
            track.feedback_count += 1
            track.last_feedback_at = now
            selector.feedback_updates += 1
            if not self._done[rid]:
                self._done[rid] = 1
                client._history.add(latency)
                client._samples_since_refresh += 1
                if rid > self._warmup:
                    self.recorder.add(latency)
                if not self._dup_sent.get(rid, 0) and not self._attempts.get(rid, 0):
                    self._alive[rid] = 0
                # Inlined _complete_request (tracker tick + heartbeat flush).
                tracker = self.tracker
                completed = tracker.completed + 1
                tracker.completed = completed
                if completed == tracker.expected:
                    for callback in tracker._callbacks:
                        callback()
                flush = self._since_flush + 1
                if flush >= _FLUSH_EVERY:
                    self._since_flush = 0
                    env = self.env
                    env.post_at(self._now, self._heartbeat)
                    env.run(until=self._now)
                else:
                    self._since_flush = flush
                return
        client.late_responses += 1
        if alive:
            if self._attempts.get(rid, 0):
                client.duplicates_suppressed += 1
            seen = self._late_seen.get(rid, 0) + 1
            self._late_seen[rid] = seen
            if seen >= self._dup_sent.get(rid, 0) + self._attempts.get(rid, 0):
                self._alive[rid] = 0

    def _v_handle_response(self, client, rid: int, server: str, status) -> None:
        client.responses_received += 1
        now = self._now
        alive = self._alive[rid]
        if alive:
            client.selector.note_response(
                server, now - self._issued_at[rid], status, now
            )
        if not alive or self._done[rid]:
            client.late_responses += 1
            if alive:
                if self._attempts.get(rid, 0):
                    client.duplicates_suppressed += 1
                seen = self._late_seen.get(rid, 0) + 1
                self._late_seen[rid] = seen
                if seen >= self._dup_sent.get(rid, 0) + self._attempts.get(rid, 0):
                    self._alive[rid] = 0
            return
        self._done[rid] = 1
        latency = now - self._issued_at[rid]
        client._history.add(latency)
        client._samples_since_refresh += 1
        if rid > self._warmup:
            self.recorder.add(latency)
        if not self._dup_sent.get(rid, 0) and not self._attempts.get(rid, 0):
            self._alive[rid] = 0
        self._complete_request()
