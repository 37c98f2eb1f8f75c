"""Drive a :class:`FlowEngine` run and collect an :class:`ExperimentResult`.

This is the flow-tier twin of :func:`repro.experiments.runner.run_experiment`:
same safety horizon, same stall/NaN guards, same result schema -- so sweeps,
ledgers and figures consume flow results with zero changes.  The only
additions are ``micro_events`` (the flow tier's internal event count, kept
separate from ``events_executed`` so the macro-event savings stay honest)
and the ``service_time_scale`` calibration knob used by the validation
harness to prove its gate can fail.
"""

from __future__ import annotations

import math
import os
import time

from repro.errors import ConfigurationError, ReproError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult
from repro.mesoscale.flow import FlowEngine


def run_flow_experiment(
    config: ExperimentConfig,
    *,
    service_time_scale: float = 1.0,
    keep_engine: bool = False,
) -> ExperimentResult:
    """Run ``config`` on the flow tier; returns the standard result schema.

    ``service_time_scale`` multiplies every server's mean service time
    (1.0 in normal runs); the validation harness uses it to build deliberately
    mis-calibrated fixtures.  With ``keep_engine`` the live engine is
    attached as ``result.engine`` for inspection.

    Dispatch: ``config.shards > 1`` fans the run out as independent
    ``repro.exec`` jobs and merges them (repro.mesoscale.shard);
    ``config.vector_batch > 0`` selects the struct-of-arrays fast path
    (repro.mesoscale.vector), bit-identical to the scalar engine.  The
    ``REPRO_VECTOR_FORCE`` environment variable (a block length) routes
    scalar-configured runs through the vector engine too -- safe because
    the two are bit-identical; the CI vector leg uses it to run the whole
    fast suite on the SoA path.
    """
    if config.shards > 1:
        # Imported lazily: shard fan-out builds on this function.
        from repro.mesoscale.shard import run_sharded_flow_experiment

        return run_sharded_flow_experiment(
            config, service_time_scale=service_time_scale
        )
    vector_batch = config.vector_batch
    if vector_batch == 0:
        forced = os.environ.get("REPRO_VECTOR_FORCE", "")
        if forced:
            if not forced.isdecimal():
                raise ConfigurationError(
                    "REPRO_VECTOR_FORCE must be a non-negative integer "
                    f"block length, got {forced!r}"
                )
            vector_batch = int(forced)
    if vector_batch > 0:
        # Imported lazily so scalar runs never pay the numpy-kernels import.
        from repro.mesoscale.vector import VectorFlowEngine

        engine: FlowEngine = VectorFlowEngine(
            config,
            service_time_scale=service_time_scale,
            vector_batch=vector_batch,
        )
    else:
        engine = FlowEngine(config, service_time_scale=service_time_scale)
    expected_duration = config.total_requests / config.arrival_rate()
    safety_horizon = engine.env.now + expected_duration * 5 + 10.0

    started_wall = time.perf_counter()  # repro: noqa(DET002) - real wall time, reported only
    engine.run(until=safety_horizon)
    wall_time = time.perf_counter() - started_wall  # repro: noqa(DET002) - reported only

    tracker = engine.tracker
    if tracker.completed < tracker.expected:
        raise ReproError(
            f"flow run stalled: {tracker.completed}/{tracker.expected} "
            f"requests completed within the safety horizon "
            f"({safety_horizon:.1f}s sim)"
        )
    if len(engine.recorder) == 0:
        raise ReproError("no latency samples were recorded")
    if math.isnan(engine.recorder.mean()):
        raise ReproError("latency statistics are NaN")

    result = ExperimentResult(
        config=config,
        latency=engine.recorder,
        sim_duration=engine.env.now,
        wall_time=wall_time,
        completed_requests=tracker.completed,
        transmissions=engine.transmissions,
        bytes_transferred=engine.bytes_transferred,
        netrs_overhead_bytes=engine.netrs_overhead_bytes,
        events_executed=engine.env.events_executed,
        micro_events=engine.micro_events,
        redundant_requests=sum(c.redundant_sent for c in engine.clients),
        timeouts=sum(c.timeouts for c in engine.clients),
        retries=sum(c.retries for c in engine.clients),
        requests_lost=sum(c.requests_lost for c in engine.clients),
        duplicates_suppressed=sum(
            c.duplicates_suppressed for c in engine.clients
        ),
        packets_dropped=engine.packets_dropped,
        server_dropped_requests=sum(
            s.dropped_requests for s in engine.servers.values()
        ),
    )
    if engine.faults is not None:
        result.faults_injected = engine.faults.faults_injected
        result.unavailability = engine.faults.unavailability(engine.env.now)
    if engine.operators:
        result.rsnode_count = len(engine.operators)
        result.plan_description = (
            f"FLOW[rsnodes={len(engine.operators)} granularity=rack]"
        )
        result.accelerator_max_utilization = engine.accelerator_max_utilization()
        result.selector_requests_handled = engine.selector_requests_handled()
    if keep_engine:
        result.engine = engine  # type: ignore[attr-defined]
    return result
