"""One sub-run of a workload in a fresh interpreter; prints one JSON record.

Usage (``run.py`` drives this; it is not meant to be run by hand)::

    python3 perfbench/subrun.py WORKLOAD SEED SECONDS TRACED INDEX [SPANS.npz]

The record carries the sub-run's host timings, the calibration loop's
time before and after the sub-run, its exact counts, its raw
latency samples (base64 float64, for pooled percentiles), the output
check's failures and a ``result_digest`` over samples and counts.  With
``TRACED`` 1 the layer wrappers of ``tracing.py`` are installed before
anything is built, and the spans are written to ``SPANS.npz``.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from tracing import SETUP_GROUPS, Tracer, install  # noqa: E402
from workloads import WORKLOADS, subrun_config  # noqa: E402


def calibrate() -> float:
    """Host-seconds of a fixed pure-Python loop (dict stores, int math)."""
    began = time.perf_counter()
    table = {}
    acc = 0
    for i in range(400_000):
        table[i & 1023] = acc
        acc = (acc + i * 7) % 1_000_003
    return time.perf_counter() - began


def _samples(recorder) -> np.ndarray:
    if recorder is None:
        return np.zeros(0, dtype=np.float64)
    return np.asarray(recorder.samples, dtype=np.float64)


def run_packet(config, span):
    from repro.experiments import run_experiment
    from repro.experiments.scenarios import build_scenario

    began = time.perf_counter()
    scenario = build_scenario(config)
    built = time.perf_counter()
    # The workload's public completion hook: stamps the last arrival's
    # simulated time for the backlog check; it draws and schedules nothing.
    last_arrival = []
    scenario.workload.on_finished = lambda: last_arrival.append(scenario.env.now)
    with span("run_experiment", "experiments"):
        result = run_experiment(config, scenario=scenario)
    with span("summary", "experiments.metrics"):
        summaries = _summaries(result)
    done = time.perf_counter()
    servers = list(scenario.servers.values())
    counts = {
        "writes_issued": scenario.workload.writes_issued,
    }
    extra = {"last_arrival": last_arrival[0] if last_arrival else None}
    return result, servers, built - began, done - built, summaries, counts, extra


def run_flow(config, span):
    from repro.mesoscale.runner import run_flow_experiment

    began = time.perf_counter()
    with span("run_flow_experiment", "experiments"):
        result = run_flow_experiment(config, keep_engine=True)
    returned = time.perf_counter()
    with span("summary", "experiments.metrics"):
        summaries = _summaries(result)
    done = time.perf_counter()
    # result.wall_time is the engine's run call alone; the rest of
    # run_flow_experiment is building the engine.
    setup = (returned - began) - result.wall_time
    steady = result.wall_time + (done - returned)
    servers = list(result.engine.servers.values())
    counts = {"writes_issued": 0}
    return result, servers, setup, steady, summaries, counts, {"last_arrival": None}


def _summaries(result):
    """End-of-run aggregation: the paper's summary plus the median."""
    read = result.summary()
    read["p50"] = result.latency.percentile(50.0) * 1e3
    write = result.write_summary()
    if write is not None:
        write["p50"] = result.write_latency.percentile(50.0) * 1e3
    return {"read": read, "write": write}


def check(workload, config, expected, counts, summaries, extra):
    """The output check; returns the list of failed conditions."""
    failures = []
    total = config.total_requests
    measured = total - config.warmup_requests()
    failed = counts["requests_lost"] + counts["write_failures"]
    if counts["completed"] != total:
        failures.append(f"completed {counts['completed']} of {total} requests")
    # Exact when nothing failed: a lost or failed request records no sample.
    recorded = counts["reads_recorded"] + counts["writes_recorded"]
    if not measured - failed <= recorded <= measured:
        failures.append(
            f"{recorded} samples outside [{measured - failed}, {measured}]"
        )
    if counts["writes_completed"] + counts["write_failures"] != counts["writes_issued"]:
        failures.append("writes completed + failed != writes issued")
    for kind, summary in summaries.items():
        if summary is None:
            continue
        for key, value in summary.items():
            if not math.isfinite(value):
                failures.append(f"{kind} {key} is {value}")
    for key, want in expected.items():
        if counts[key] != want:
            failures.append(f"{key} {counts[key]} != scheduled {want}")
    if workload.churn_and_crash and counts["migrated_keys"] <= 0:
        failures.append("churn migrated no keys")
    if workload.max_drain_s is not None and extra["last_arrival"] is not None:
        drain = extra["sim_end"] - extra["last_arrival"]
        if not drain <= workload.max_drain_s:
            failures.append(
                f"backlog: run ended {drain:.4f}s (sim) after the last "
                f"arrival, limit {workload.max_drain_s}s"
            )
    return failures


def run_one(workload, seed, index, seconds, span):
    """Run and check one sub-run; returns its record (without trace data)."""
    calibration_before = calibrate()
    config, expected = subrun_config(workload, seed, index, seconds)
    runner = run_packet if workload.tier == "packet" else run_flow
    result, servers, setup, steady, summaries, counts, extra = runner(config, span)

    reads = _samples(result.latency)
    writes = _samples(result.write_latency)
    counts.update(
        completed=result.completed_requests,
        requests_lost=result.requests_lost,
        write_failures=result.write_failures,
        writes_completed=result.writes_completed,
        reads_recorded=len(reads),
        writes_recorded=len(writes),
        events=result.events_executed,
        micro_events=result.micro_events,
        transmissions=result.transmissions,
        bytes=result.bytes_transferred,
        netrs_overhead_bytes=result.netrs_overhead_bytes,
        redundant=result.redundant_requests,
        timeouts=result.timeouts,
        retries=result.retries,
        stale_reads=result.stale_reads,
        read_repairs=result.read_repairs,
        digest_probes=result.digest_probes_sent,
        migrated_keys=result.migrated_keys,
        migration_bytes=result.migration_bytes,
        churn_events=result.churn_events,
        faults_injected=result.faults_injected,
        packets_dropped=result.packets_dropped,
        selector_requests=result.selector_requests_handled,
        rsnodes=result.rsnode_count,
        server_completions=sum(s.completions for s in servers),
        max_queue=max(s.max_queue_seen for s in servers),
    )
    extra.update(
        sim_end=result.sim_duration,
        unavailability_s=result.unavailability,
        acc_util_max=result.accelerator_max_utilization,
    )
    calibration_after = calibrate()
    failures = check(workload, config, expected, counts, summaries, extra)

    digest = hashlib.sha256()
    digest.update(reads.tobytes())
    digest.update(writes.tobytes())
    digest.update(json.dumps(counts, sort_keys=True).encode())
    digest.update(repr([extra[k] for k in sorted(extra)]).encode())
    return {
        "workload": workload.name,
        "seed": config.seed,
        "requests": config.total_requests,
        "setup_s": setup,
        "steady_s": steady,
        "calibration_s": [calibration_before, calibration_after],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": counts,
        "extra": extra,
        "summaries": summaries,
        "failures": failures,
        "result_digest": digest.hexdigest(),
        "reads_b64": base64.b64encode(reads.tobytes()).decode(),
        "writes_b64": base64.b64encode(writes.tobytes()).decode(),
    }


def main(argv) -> int:
    name, seed, seconds, traced, index = argv[:5]
    spans_path = argv[5] if len(argv) > 5 else None
    traced = traced == "1"
    tracer = Tracer()
    if traced:
        install(tracer)
        span = tracer.span
    else:
        def span(name, group):
            return contextlib.nullcontext()

    record = run_one(WORKLOADS[name], int(seed), int(index), float(seconds), span)
    record["traced"] = traced
    if traced:
        layers = tracer.layer_totals()
        record["layers"] = layers
        record["spans"] = len(tracer.name_id)
        record["steady_self_s"] = sum(
            entry["self_s"] for group, entry in layers.items()
            if group not in SETUP_GROUPS
        )
        if spans_path:
            tracer.write(spans_path)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
