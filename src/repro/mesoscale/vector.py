"""Struct-of-arrays request blocks for the flow tier.

:class:`VectorFlowEngine` re-runs the exact experiment of
:class:`~repro.mesoscale.flow.FlowEngine` -- same named RNG streams in the
same order, same float-addition order, same tie-breaking -- but rolls the
open-loop workload forward in *blocks* instead of posting one arrival heap
event per request:

* the arrival process (gap chain, per-request client index, key) is rolled
  forward ``vector_batch`` requests at a time into parallel arrays, with
  the draws of ``OpenLoopWorkload._arrival`` in the same order;
* arrivals never touch the heap: a cursor over the block merges with the
  micro-heap on the scalar engine's exact ``(time, seq)`` order, with the
  sequence numbers the scalar tier *would* have assigned simulated at the
  same points, and hands each request to ``KVClient.issue``.

Fast mode (unguarded CliRS with plain C3 selectors, the common sweep
configuration) goes further.  The block prologue also resolves each
request's replica group, its per-replica locality class
(``hop_class_batch``) and its delivery time per class (``path_chain``: the
same IEEE additions the scalar ``_send_along`` performs hop by hop, so the
timestamps are bit-equal), and :meth:`VectorFlowEngine._drain_fast`
inlines the issue, server delivery, service completion and response
branches into one frame.  Per-request state stays in the clients' own
``_outstanding`` entries, and redundant fires, timeouts and retries run
``KVClient``'s own methods.

The clients, servers, NetRS selectors, accelerators and the fault driver
are the scalar engine's own.  The scalar engine remains the oracle: the
byte-identity suites in ``tests/mesoscale/test_vector.py`` hold every
sample and counter of this path, ``micro_events`` included, equal to the
scalar tier's.  Fault schedules with *link* events force every send back
through the scalar guarded path (per-hop dead/degrade checks at transmit
time), so they leave fast mode: identical results, less inlining.
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from math import exp, log1p
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.kvstore.client import KVClient, _Outstanding
from repro.kvstore.fluctuation import StableService
from repro.kvstore.server import KVServer
from repro.mesoscale.flow import _FLUSH_EVERY, FlowEngine
from repro.selection.c3 import C3Selector

_INF = float("inf")

#: Hop count per locality class (0 = same rack, 1 = same pod, 2 = cross-pod).
_CLASS_HOPS = (2, 4, 6)

# Tags of the fast drain's flat events, ``(time, seq, tag, *args)``; the
# drain dispatches on their identity and never calls them.
_DELIVER = object()  # (server, client, request_id)
_COMPLETE = object()  # (server, client, request_id, duration, epoch)
_RESPOND = object()  # (client, request_id, server name, queue size, rate)
_TIMER = object()  # (KVClient method, client, request_id)


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
    additions ``_send_along`` performs.  Everything else (crash and
    recovery) runs the inherited methods unchanged.
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
    placement, ring, servers, clients, workload, operators and fault driver
    are the scalar engine's own.  Only the arrival loop is replaced by the
    block cursor, plus the inlined fast-mode drain.
    """

    def __init__(
        self,
        config,
        *,
        service_time_scale: float = 1.0,
        vector_batch: Optional[int] = None,
    ) -> None:
        super().__init__(config, service_time_scale=service_time_scale)
        if vector_batch is None:
            vector_batch = config.vector_batch
        self._chunk = max(1, vector_batch)
        self._rate_inv = 1.0 / self.workload.rate
        # Fast mode: unguarded clirs with plain C3 selectors (the common
        # sweep configuration).  The server objects are swapped for their
        # state-copied _VFlowServer twins and the C3 feedback loops run
        # inlined in _drain_fast; anything else (netrs, link-fault guards,
        # other selector families, rate control) runs the shared endpoints
        # through the generic drain.
        selector0 = self.clients[0].selector if self.clients else None
        self._fast = (
            not self._is_netrs
            and not self._guarded
            and isinstance(selector0, C3Selector)
            and selector0._rate_limiter_factory is None
            # The drain loop hoists the scoring constants once, so every
            # client's selector must share them (always true for selectors
            # built from one config; anything exotic stays on the generic
            # drain).
            and all(
                c.selector.prior_service_rate == selector0.prior_service_rate
                and c.selector.concurrency_weight == selector0.concurrency_weight
                and c.selector.cubic_exponent == selector0.cubic_exponent
                and c.selector.ewma_alpha == selector0.ewma_alpha
                for c in self.clients
            )
        )
        if self._fast:
            self.servers = {
                name: _VFlowServer(server) for name, server in self.servers.items()
            }
            # hop class -> response-delivery plan (filled lazily): plans
            # depend only on the locality class of the pair.
            self._resp_by_class: Dict[int, tuple] = {}
            # Per-hop delay vectors per class, in scalar chain order (these
            # pick up the bandwidth-model widening automatically).
            self._hop_arrays = tuple(
                np.asarray(self._full_path[count], dtype=np.float64)
                for count in _CLASS_HOPS
            )
            geometry = self.geometry
            self._client_rack_arr = np.asarray(
                [geometry.rack_index(name) for name in self.client_hosts],
                dtype=np.int64,
            )
            self._client_pod_arr = self._client_rack_arr // geometry.racks_per_pod
            self._rg_codes: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
            # (client, rgid) -> ((server, track), ...) for the inlined
            # select loop: replica groups are frozen with the ring and C3
            # tracks are created once and never dropped, so the pairing is
            # stable.  Tracks are created on the first select touching
            # them, exactly when the scalar scoring loop would.
            self._track_cache: List[Dict[int, tuple]] = [{} for _ in self.clients]
        # The key stream only ever draws uniforms, so the family lock its
        # first scalar draw would take is taken up front and _load_chunk
        # reads the pre-drawn block directly (same values, same refills).
        zipf_draws = self.workload.key_sampler._draws
        self._zipf_fast = getattr(zipf_draws, "block_size", 0) > 0
        if self._zipf_fast:
            zipf_draws._lock("uniform")
        # -- the current block ----------------------------------------------
        self._b_lo = 0
        self._b_hi = 0
        self._pending_time = 0.0
        self._b_times: List[float] = []
        self._b_clients: List[int] = []
        self._b_keys: List[int] = []
        # Fast mode only: replica groups, locality classes, delivery times.
        self._b_rgids: List[int] = []
        self._b_replicas: List[Tuple[str, ...]] = []
        self._b_cls: List[List[int]] = []
        self._b_path: List[List[float]] = []

    # ------------------------------------------------------------------
    # SoA prologue: roll the workload forward one block
    # ------------------------------------------------------------------
    def _load_chunk(self) -> None:
        """Precompute the next ``vector_batch`` requests as parallel arrays.

        Draw order per request is ``OpenLoopWorkload._arrival``'s: a
        uniform client pick then (unless last) an exponential gap on the
        shared arrival stream, with the key on its own batched stream --
        deferring whole blocks never reorders draws *within* a stream, and
        the streams are independent by construction (docs/SIMULATOR.md).
        The flow tier is read-only, so the write-fraction draw never
        happens on either engine.
        """
        workload = self.workload
        total = workload.total_requests
        lo = self._b_hi
        hi = min(lo + self._chunk, total)
        n = hi - lo
        rng = workload._rng
        sample = workload.weights.sample
        sampler = workload.key_sampler
        sample_key = sampler.sample
        rate_inv = self._rate_inv
        last = total - 1
        t = self._pending_time
        times: List[float] = [0.0] * n
        clients: List[int] = [0] * n
        keys: List[int] = [0] * n
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
            # Mixed-family arrival stream: same uniform draw as
            # OpenLoopWorkload._arrival (CON002 pins the draw order).
            clients[j] = sample(rng)  # repro: noqa(PERF001) - mixed-family arrival stream, as in OpenLoopWorkload._arrival
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
            keys[j] = key
            if lo + j < last:
                t = t + rng.exponential(rate_inv)  # repro: noqa(PERF001) - mixed-family arrival stream, as in OpenLoopWorkload._arrival
        self._pending_time = t
        self._b_lo = lo
        self._b_hi = hi
        self._b_times = times
        self._b_clients = clients
        self._b_keys = keys
        if self._fast:
            self._plan_block(times, clients, keys)

    def _plan_block(
        self, times: List[float], clients: List[int], keys: List[int]
    ) -> None:
        """Fast mode: replica groups, locality classes and the per-class
        delivery-time tables of one block (fast sends bypass
        ``_send_along`` entirely)."""
        n = len(keys)
        ring = self.ring
        key_cache = ring._key_cache
        group_for_key = ring.group_for_key
        rgids: List[int] = [0] * n
        replicas_list: List[Tuple[str, ...]] = [()] * n
        for j in range(n):
            # Inlined ConsistentHashRing.group_for_key cache probe (Zipf
            # workloads hit it almost always; misses hash + memoize there).
            hit = key_cache.get(keys[j])
            if hit is None:
                hit = group_for_key(keys[j])
            rgids[j], replicas_list[j] = hit
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
        self._b_rgids = rgids
        self._b_replicas = replicas_list
        self._b_cls = cls.tolist()
        self._b_path = path.tolist()

    def _send_request(
        self, client: KVClient, rid: int, entry, target: str, redundant: bool
    ) -> None:
        """In fast mode, the CliRS ``send`` posts a flat delivery event.

        Duplicates and retries then take the fast drain's inlined branches
        too: the same unguarded ``_send_along`` additions and accounting,
        delivered under the ``_DELIVER`` tag instead of a bound
        ``handle_arrival``.
        """
        if not self._fast:
            super()._send_request(client, rid, entry, target, redundant)
            return
        hops = self._full_path[self.geometry.hop_count(client.name, target)]
        size, overhead = self._sizes["request"]
        t = self.now
        for d in hops:
            t += d
        self._account(len(hops), size, overhead)
        self._seq += 1
        heappush(
            self._heap, (t, self._seq, _DELIVER, self.servers[target], client, rid)
        )

    # ------------------------------------------------------------------
    # Drain loops: block cursor merged with the micro-heap on (time, seq)
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Drive the experiment until completion (or the safety horizon)."""
        # OpenLoopWorkload.start's opening draw, and the seq its call_in
        # would consume: the request itself waits under the cursor.
        self._seq += 1
        first_seq = self._seq
        self._pending_time = self.workload._rng.exponential(self._rate_inv)  # repro: noqa(PERF001) - mixed-family arrival stream, as in OpenLoopWorkload.start
        self._load_chunk()
        if self._fast:
            self._drain_fast(until, first_seq)
        else:
            self._drain(until, first_seq)
        env = self.env
        if self.now > env.now:
            env.run(until=self.now)

    def _drain(self, until: Optional[float], first_seq: int) -> None:
        """Generic drain: the cursor hands each request to ``KVClient.issue``
        (as ``OpenLoopWorkload._arrival`` does), every heap event runs its
        own callback."""
        heap = self._heap
        env = self.env
        env_times = self._env_times
        workload = self.workload
        clients = self.clients
        per_client_counts = workload.per_client_counts
        warmup = workload.warmup_requests
        total = workload.total_requests
        cursor = 0
        pa_time = self._b_times[0]
        pa_seq = first_seq
        micro = 0
        while not self._stopped:
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
            if until is not None and when > until:
                self.now = until
                break
            if env_times and env_times[0] <= when:
                # Fault transitions fire on the macro clock, strictly before
                # any micro-event at or after their timestamp (same ordering
                # as the scalar tier).
                while env_times and env_times[0] <= when:
                    env.run(until=env_times.pop(0))
            self.now = when
            micro += 1
            if head is not None:
                heappop(heap)
                head[2](*head[3])
                continue
            j = cursor - self._b_lo
            index = self._b_clients[j]
            per_client_counts[index] += 1
            record = cursor >= warmup
            cursor += 1
            workload.issued = cursor
            clients[index].issue(self._b_keys[j], record=record)
            if cursor < total:
                if cursor >= self._b_hi:
                    self._load_chunk()
                self._seq += 1
                pa_time = self._b_times[cursor - self._b_lo]
                pa_seq = self._seq
            else:
                pa_time = _INF
        self.micro_events += micro

    def _drain_fast(self, until: Optional[float], first_seq: int) -> None:
        """Fast-mode drain: the four hot branches inlined into one frame.

        Event-for-event this executes exactly what :meth:`_drain` would --
        same event order, same arithmetic, same RNG draws -- but the issue
        (``KVClient.issue`` with ``C3Selector.select``/``note_sent``),
        delivery (``KVServer.handle_arrival``), completion
        (``KVServer._complete`` plus the unguarded ``_send_along``) and
        response (``KVClient.handle_response`` with
        ``C3Selector.note_response``) branches run inside this loop's
        frame, keyed on the tag of the popped event, so the common path
        pays few Python calls and no repeated attribute loads.  Timer
        events run ``KVClient._fire_redundant``/``_on_timeout`` when their
        request is still live; the duplicates and retries they send come
        back as flat delivery events (:meth:`_send_request`).  Only the
        retry timeouts ``KVClient._on_timeout`` re-arms through
        ``call_in`` carry a callback of their own, and take the generic
        dispatch at the bottom.

        Three bookkeeping devices keep the loop lean without changing
        observable state:

        * **Lazy clock** -- ``self.now`` and ``self._seq`` are written
          only where code outside this frame can observe them (generic
          dispatch, the completion tracker, loop exit); every inlined
          branch uses the popped ``when`` and the local ``seq``.  Fault
          transitions read the macro ``env.now``, never this engine's.
        * **Local accounting** -- transmissions / bytes / overhead
          accumulate in frame locals, flushed to the engine counters
          before any escape to code that could read or write them.
        * **Flat events** -- the inlined branches push
          ``(time, seq, tag, *args)`` without the inner args tuple (one
          allocation per event instead of two).  Heap ordering never
          compares past the unique ``seq``, so flat events coexist with
          the ``(time, seq, callback, args)`` events ``call_in`` posts.
          The stop flag is re-checked exactly where the handlers that can
          set it run (the tracker, generic dispatch), preserving the
          scalar drain's exit points.
        """
        heap = self._heap
        env = self.env
        env_times = self._env_times
        bounded = until is not None
        workload = self.workload
        clients = self.clients
        per_client_counts = workload.per_client_counts
        warmup = workload.warmup_requests
        total = workload.total_requests
        ids = self._ids
        track_cache = self._track_cache
        servers = self.servers
        req_size = self._sizes["request"][0]
        selector0 = clients[0].selector
        prior = selector0.prior_service_rate
        weight = selector0.concurrency_weight
        exponent = selector0.cubic_exponent
        t_alpha = selector0.ewma_alpha
        policy = clients[0].redundancy
        has_red = policy is not None
        if has_red:
            red_min = policy.min_samples
            red_pct = policy.percentile
            red_mult = policy.fallback_multiplier
        timeout = self.config.request_timeout
        fire_redundant = KVClient._fire_redundant
        on_timeout = KVClient._on_timeout
        recorder = self.recorder
        tracker = self.tracker
        cursor = 0
        b_lo = self._b_lo
        b_hi = self._b_hi
        b_times = self._b_times
        b_clients = self._b_clients
        b_keys = self._b_keys
        b_rgids = self._b_rgids
        b_replicas = self._b_replicas
        b_cls = self._b_cls
        b_path = self._b_path
        seq = self._seq
        micro = 0
        acc_tx = 0
        acc_bytes = 0
        acc_overhead = 0
        when = self.now
        pa_time = b_times[0]
        pa_seq = first_seq
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
                while env_times and env_times[0] <= when:
                    env.run(until=env_times.pop(0))
                seq = self._seq
            micro += 1
            if head is None:
                # ---- issue the request under the cursor (KVClient.issue)
                j = cursor - b_lo
                cidx = b_clients[j]
                per_client_counts[cidx] += 1
                client = clients[cidx]
                rid = next(ids)
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
                entry = _Outstanding(
                    b_keys[j], b_rgids[j], replicas, when, cursor >= warmup, target
                )
                client._outstanding[rid] = entry
                client.requests_sent += 1
                cls = b_cls[j][target_index]
                hops = _CLASS_HOPS[cls]
                acc_tx += hops
                acc_bytes += req_size * hops
                seq += 1
                heappush(
                    heap, (b_path[cls][j], seq, _DELIVER, servers[target], client, rid)
                )
                if has_red:
                    # Inlined KVClient._redundancy_threshold (cached
                    # percentile after min_samples, mean fallback before).
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
                            threshold = red_mult * 10e-3
                        else:
                            threshold = red_mult * mean
                    seq += 1
                    heappush(
                        heap,
                        (when + threshold, seq, _TIMER, fire_redundant, client, rid),
                    )
                if timeout is not None:
                    seq += 1
                    heappush(
                        heap, (when + timeout, seq, _TIMER, on_timeout, client, rid)
                    )
                cursor += 1
                if cursor < total:
                    if cursor >= b_hi:
                        self._load_chunk()
                        b_lo = self._b_lo
                        b_hi = self._b_hi
                        b_times = self._b_times
                        b_clients = self._b_clients
                        b_keys = self._b_keys
                        b_rgids = self._b_rgids
                        b_replicas = self._b_replicas
                        b_cls = self._b_cls
                        b_path = self._b_path
                    seq += 1
                    pa_time = b_times[cursor - b_lo]
                    pa_seq = seq
                else:
                    pa_time = _INF
                continue
            heappop(heap)
            tag = head[2]
            if tag is _DELIVER:
                # ---- delivery at the server (KVServer.handle_arrival)
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
                        # boundaries (BimodalFluctuation.mean_at).
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
                        (when + duration, seq, _COMPLETE,
                         server, head[4], head[5], duration, server._epoch),
                    )
                else:
                    waiting.append(((head[4], head[5], None), when))
                continue
            if tag is _COMPLETE:
                # ---- service completion (KVServer._complete)
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
                    (t, seq, _RESPOND,
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
                        (when + duration, seq, _COMPLETE,
                         server, next_client, next_rid, duration, server._epoch),
                    )
                continue
            if tag is _RESPOND:
                # ---- response at the client (KVClient.handle_response)
                client = head[3]
                rid = head[4]
                client.responses_received += 1
                outstanding = client._outstanding
                entry = outstanding.get(rid)
                if entry is not None:
                    # Inlined C3Selector.note_response: the status fields
                    # arrive as the scalars the completion branch computed.
                    selector = client.selector
                    track = selector._tracks.get(head[5])
                    if track is None:
                        track = selector._track(head[5])
                    if track.outstanding > 0:
                        track.outstanding -= 1
                    latency = when - entry.issued_at
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
                    if not entry.done:
                        entry.done = True
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
                        if entry.record:
                            recorder._samples.append(latency)
                            mirror = recorder._sorted
                            if mirror is not None:
                                insort(mirror, latency)
                        if entry.duplicates_sent == 0 and entry.attempts == 0:
                            del outstanding[rid]
                        # Inlined _FlowTracker.complete (tick + heartbeat).
                        completed = tracker.completed + 1
                        tracker.completed = completed
                        if completed == tracker.expected:
                            self.now = when
                            for callback in tracker._callbacks:
                                callback()
                        flush = self._since_flush + 1
                        if flush >= _FLUSH_EVERY:
                            self._since_flush = 0
                            self._seq = seq
                            self.now = when
                            env.post_at(when, self._heartbeat)
                            env.run(until=when)
                            seq = self._seq
                        else:
                            self._since_flush = flush
                        if self._stopped:
                            break
                        continue
                client.late_responses += 1
                if entry is not None:
                    if entry.attempts:
                        client.duplicates_suppressed += 1
                    entry.late_seen += 1
                    if entry.late_seen >= entry.duplicates_sent + entry.attempts:
                        outstanding.pop(rid, None)
                continue
            if tag is _TIMER:
                entry = head[4]._outstanding.get(head[5])
                if entry is None or entry.done:
                    # Dead timer: the handler's own early return, with the
                    # micro-event already counted.
                    continue
                handler = head[3]
                args = head[4:]
            else:
                # A retry timeout re-armed through call_in.
                handler = tag
                args = head[3]
            # Sync everything a handler could observe, then resume locals.
            self._seq = seq
            self.now = when
            self.transmissions += acc_tx
            self.bytes_transferred += acc_bytes
            self.netrs_overhead_bytes += acc_overhead
            acc_tx = 0
            acc_bytes = 0
            acc_overhead = 0
            handler(*args)
            seq = self._seq
            if self._stopped:
                break
        self._seq = seq
        self.now = when
        workload.issued = cursor
        self.transmissions += acc_tx
        self.bytes_transferred += acc_bytes
        self.netrs_overhead_bytes += acc_overhead
        self.micro_events += micro

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
