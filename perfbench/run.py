#!/usr/bin/env python3
"""The repository's benchmark: three workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload netrs-ilp-read --seed 1 --seconds 16 --trace 0

``--trace 0`` runs the workload's sub-runs untraced, each in a fresh
interpreter, and reports the end-to-end metrics.  ``--trace 1`` runs
sub-run 0 untraced and then traced, reports the per-layer metrics of the
traced run and fails the output check unless both runs' ``result_digest``
agree.  Every run checks the simulator's outputs (see ``subrun.check``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit and sample count, then a ``record:`` line
with the seeds, host timings and calibration, digests and exact counts.  See
README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: Every run ends within this many host seconds or fails.
DEADLINE_S = 170.0

#: Calibration-loop time (s) of the reference host: a 2-vCPU Intel Xeon
#: VM shared with other tenants, CPython 3.11.  Host times are scaled to it.
REFERENCE_CALIBRATION_S = 0.085


def run_subrun(workload, seed, index, seconds, traced, deadline, spans_path=None):
    """One sub-run in its own fresh interpreter; returns its record."""
    argv = [
        sys.executable,
        os.path.join(HERE, "subrun.py"),
        workload.name,
        str(seed),
        str(seconds),
        "1" if traced else "0",
        str(index),
    ]
    if spans_path:
        argv.append(spans_path)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed before a sub-run started")
    # subprocess.run kills and reaps the child when the timeout expires.
    done = subprocess.run(
        argv, stdout=subprocess.PIPE, timeout=remaining, check=True, text=True
    )
    return json.loads(done.stdout)


def samples(records, key):
    """The records' latency samples (seconds), pooled."""
    return np.concatenate(
        [np.frombuffer(base64.b64decode(r[key]), dtype=np.float64) for r in records]
    )


def percentile_ms(values, q):
    return float(np.percentile(values, q)) * 1e3


def host_scale(record):
    """How much slower than the reference host this sub-run's host ran.

    The mean of the calibration loop timed just before and just after the
    sub-run, over the reference host's: the load other tenants put on a
    shared host moves this loop and the simulator alike, by up to ~1.6x
    over minutes on the reference host.
    """
    return statistics.fmean(record["calibration_s"]) / REFERENCE_CALIBRATION_S


def failed_requests(record):
    """Requests lost or failed; all of them when the output check failed."""
    if record["failures"]:
        return record["requests"]
    counts = record["counts"]
    return counts["requests_lost"] + counts["write_failures"]


def end_to_end(records):
    """The untraced metrics, as ``{name: (value, unit, sample note)}``."""
    reads = samples(records, "reads_b64")
    writes = samples(records, "writes_b64")
    attempted = sum(r["requests"] for r in records)
    failed = sum(failed_requests(r) for r in records)
    n = len(records)
    metrics = {
        "setup_s": (
            statistics.median(r["setup_s"] / host_scale(r) for r in records),
            "s", f"median of {n} set-ups, reference host",
        ),
        "req_per_s": (
            statistics.median(
                r["requests"] / r["steady_s"] * host_scale(r) for r in records
            ),
            "1/s", f"median of {n} sub-runs, reference host",
        ),
        "peak_rss_mib": (
            statistics.median(r["peak_rss_mib"] for r in records), "MiB",
            f"median of {n} interpreters",
        ),
    }
    for q, name in ((50, "read_p50_ms"), (99, "read_p99_ms"), (99.9, "read_p999_ms")):
        metrics[name] = (
            percentile_ms(reads, q), "ms", f"n={len(reads)} post-warm-up reads"
        )
    metrics["ok_frac"] = (
        1.0 - failed / attempted, "ratio", f"{failed} failed of {attempted}"
    )
    # Printed, not gated: the raw host times, and write latency (only the
    # R95 workload writes; README.md).
    extra = {
        "setup_s_raw": (
            statistics.median(r["setup_s"] for r in records), "s",
            f"median of {n} set-ups, this host",
        ),
        "req_per_s_raw": (
            statistics.median(r["requests"] / r["steady_s"] for r in records),
            "1/s", f"median of {n} sub-runs, this host",
        ),
    }
    if len(writes):
        for q, name in ((50, "write_p50_ms"), (99, "write_p99_ms")):
            extra[name] = (
                percentile_ms(writes, q), "ms",
                f"n={len(writes)} post-warm-up writes",
            )
    return metrics, extra


def per_layer(traced, untraced):
    """The traced run's metrics, as ``{name: (value, unit, note)}``."""
    layers = traced["layers"]
    counts = traced["counts"]
    extra = traced["extra"]
    reads_issued = max(1, traced["requests"] - counts["writes_issued"])

    def self_s(group):
        return layers[group]["self_s"]

    def calls(group, name):
        return layers[group]["by_name"].get(name, 0)

    def per_unit_ns(seconds, units):
        return seconds / units * 1e9 if units else 0.0

    write = traced["summaries"]["write"] or {"p50": 0.0, "p99": 0.0}
    metrics = {
        "sim.events": (counts["events"], "count"),
        "sim.self_s": (self_s("sim"), "s"),
        "sim.ns_per_event": (per_unit_ns(self_s("sim"), counts["events"]), "ns"),
        "network.transmissions": (counts["transmissions"], "count"),
        "network.bytes": (counts["bytes"], "B"),
        "network.route_calls": (calls("network", "Router.path"), "count"),
        "network.switch_calls": (
            calls("network", "ProgrammableSwitch.receive"), "count"
        ),
        "network.self_s": (self_s("network"), "s"),
        "network.netrs_overhead_frac": (
            counts["netrs_overhead_bytes"] / max(1, counts["bytes"]), "ratio"
        ),
        "core.placement_s": (self_s("core.placement"), "s"),
        "core.selector_requests": (counts["selector_requests"], "count"),
        "core.self_s": (self_s("core"), "s"),
        "core.rsnodes": (counts["rsnodes"], "count"),
        "core.acc_util_max": (extra["acc_util_max"], "ratio"),
        "selection.calls": (layers["selection"]["calls"], "count"),
        "selection.self_s": (self_s("selection"), "s"),
        "kvstore.client_self_s": (self_s("kvstore.client"), "s"),
        "kvstore.server_self_s": (self_s("kvstore.server"), "s"),
        "kvstore.membership_self_s": (self_s("kvstore.membership"), "s"),
        "kvstore.workload_self_s": (self_s("kvstore.workload"), "s"),
        "kvstore.server_completions": (counts["server_completions"], "count"),
        "kvstore.max_queue": (counts["max_queue"], "count"),
        "kvstore.redundant_frac": (counts["redundant"] / reads_issued, "ratio"),
        "kvstore.timeouts": (counts["timeouts"], "count"),
        "kvstore.retries": (counts["retries"], "count"),
        "kvstore.digest_probes": (counts["digest_probes"], "count"),
        "kvstore.read_repairs": (counts["read_repairs"], "count"),
        "kvstore.stale_read_frac": (counts["stale_reads"] / reads_issued, "ratio"),
        "kvstore.migrated_keys": (counts["migrated_keys"], "count"),
        "kvstore.migration_bytes": (counts["migration_bytes"], "B"),
        "kvstore.write_p50_ms": (write["p50"], "ms"),
        "kvstore.write_p99_ms": (write["p99"], "ms"),
        "faults.injected": (counts["faults_injected"], "count"),
        "faults.packets_dropped": (counts["packets_dropped"], "count"),
        "faults.unavailability_ms": (extra["unavailability_s"] * 1e3, "ms"),
        "faults.self_s": (self_s("faults"), "s"),
        "mesoscale.micro_events": (counts["micro_events"], "count"),
        "mesoscale.ns_per_micro_event": (
            per_unit_ns(self_s("mesoscale"), counts["micro_events"]), "ns"
        ),
        "mesoscale.self_s": (self_s("mesoscale"), "s"),
        "mesoscale.setup_s": (self_s("mesoscale.setup"), "s"),
        "experiments.self_s": (self_s("experiments"), "s"),
        "experiments.metrics_s": (self_s("experiments.metrics"), "s"),
        "trace.overhead_frac": (traced["steady_s"] / untraced["steady_s"] - 1.0, "ratio"),
        "trace.coverage_frac": (traced["steady_self_s"] / traced["steady_s"], "ratio"),
        "trace.spans": (traced["spans"], "count"),
    }
    note = f"traced sub-run 0, {traced['requests']} requests"
    return {name: (value, unit, note) for name, (value, unit) in metrics.items()}


def report(metrics, extra=None):
    for name, (value, unit, note) in {**metrics, **(extra or {})}.items():
        print(f"  {name:30s} {value:>16.6g} {unit:6s} ({note})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no simulator sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    print(
        f"workload {workload.name}: {workload.subruns} sub-runs x "
        f"{workload.requests_per_subrun(args.seconds)} requests, seed {args.seed}, "
        f"trace {args.trace}"
    )

    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{workload.name}.npz")
        untraced = run_subrun(workload, args.seed, 0, args.seconds, False, deadline)
        traced = run_subrun(
            workload, args.seed, 0, args.seconds, True, deadline, spans_path
        )
        records = [untraced, traced]
        metrics = per_layer(traced, untraced)
        extra = None
        if traced["result_digest"] != untraced["result_digest"]:
            traced["failures"].append("traced result_digest != untraced")
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    else:
        records = [
            run_subrun(workload, args.seed, i, args.seconds, False, deadline)
            for i in range(workload.subruns)
        ]
        metrics, extra = end_to_end(records)

    report(metrics, extra)
    failures = [f for r in records for f in r["failures"]]
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "host_scale": statistics.median(host_scale(r) for r in records),
        "subruns": [
            {
                "seed": r["seed"],
                "traced": r["traced"],
                "requests": r["requests"],
                "result_digest": r["result_digest"],
                "setup_s": r["setup_s"],
                "steady_s": r["steady_s"],
                "calibration_s": r["calibration_s"],
                "counts": r["counts"],
            }
            for r in records
        ],
    }
    digest = hashlib.sha256(
        "".join(r["result_digest"] for r in records if not r["traced"]).encode()
    ).hexdigest()
    record["result_digest"] = digest
    print(f"result_digest: {digest}")
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": sum(r["requests"] for r in records),
        "failed": sum(failed_requests(r) for r in records),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
