"""Hot-path benchmark harness: engine, fabric, routing, rng, metrics, fig4.

Measures the simulator's own throughput on the same workloads as
``benchmarks/test_bench_engine.py`` and writes a machine-readable JSON
report (``BENCH_<n>.json`` at the repo root by convention) so successive
PRs can track regressions without the pytest-benchmark machinery:

* ``event_scheduling``  -- schedule-and-drain of raw callbacks (events/s),
* ``timer_cancellation`` -- timers cancelled before firing, the CliRS-R95
  fast path (timers/s),
* ``packet_forwarding`` -- fabric transmissions over a host-to-host pipe
  (hops/s),
* ``routing``           -- ECMP path computations on a paper-scale
  16-ary fat-tree (paths/s),
* ``rng_draws``         -- scalar draws through a BatchedStream, the
  service-time/jitter hot path (draws/s),
* ``metrics_aggregation`` -- LatencyRecorder summaries plus cross-trial
  aggregation, the end-of-run path (samples/s),
* ``backend_dispatch``  -- C3 selections with EWMA feedback
  (selections/s); the replica-selection hot loop,
* ``fig4_slice``        -- wall time of one small Figure-4 cell end to end,
* ``mesoscale_slice``   -- the same cell on the flow tier's SoA fast path
  (requests/s), the mesoscale speedup canary (see docs/MESOSCALE.md),
* ``flow_request_batch`` -- the vectorized whole-request fast path on a
  fault-free cell (requests/s); the block prologue + flat-drain canary,
* ``shard_merge``       -- a 4-shard flow run fanned out and merged in
  process (requests/s); the shard split/remap/merge overhead canary.

Usage::

    PYTHONPATH=src python -m repro.sim.bench --out BENCH_4.json
    PYTHONPATH=src python -m repro.sim.bench rng_draws routing
    PYTHONPATH=src python -m repro.sim.bench --profile fig4.pstats fig4_slice
    PYTHONPATH=src python -m repro.sim.bench --compare BENCH_4.json

Each microbenchmark reports the best of ``--repeats`` runs (minimum wall
time is the standard low-noise estimator for this kind of measurement).
Reports are stamped with a ``schema_version``, the git commit, and the
numpy/python versions so archived JSONs stay comparable across PRs.

``--compare`` re-runs the suite and checks measured rates against an
archived report; a benchmark falling below its tolerance band **fails the
run** (exit 1) so CI can gate on it.  Thresholds are per benchmark
(:data:`THRESHOLDS`): deliberately generous, because archived numbers come
from other machines and shared runners jitter by tens of percent.
``--compare-warn`` is the escape hatch that restores the old warn-only
behaviour (exit 0 regardless).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import platform
import pstats
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.sim.core import Environment
from repro.sim.rng import batched_from_seed, stream_from_seed

#: Bump when the report layout changes shape (not when numbers move).
#: v2: the ``backend_dispatch`` benchmark and the ``flow_tier`` knobs.
#: v3: the compiled-backend stamps (``engine_backend``/``numba``/
#: ``cython``) are gone with the backends themselves.
SCHEMA_VERSION = 3


def _best_of(fn: Callable[[], int], repeats: int) -> Dict[str, float]:
    """Run ``fn`` ``repeats`` times; report best wall time and its rate."""
    best = float("inf")
    units = 0
    for _ in range(repeats):
        started = time.perf_counter()
        units = fn()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return {
        "units": units,
        "wall_s": best,
        "rate_per_s": units / best if best > 0 else float("inf"),
    }


def bench_event_scheduling(n: int = 10_000) -> int:
    """Schedule-and-drain cost of ``n`` raw callbacks (mirrors
    ``test_event_scheduling_throughput``)."""
    env = Environment()
    for i in range(n):
        env.call_in(i * 1e-6, lambda: None)
    env.run()
    assert env.events_executed == n
    return n


def bench_timer_cancellation(n: int = 10_000) -> int:
    """Timers that never fire (mirrors ``test_timer_cancellation_throughput``)."""
    env = Environment()
    handles = [env.call_in(1.0, lambda: None) for _ in range(n)]
    for handle in handles:
        handle.cancel()
    env.run()
    assert env.events_executed == 0
    return n


def bench_packet_forwarding(n: int = 5_000) -> int:
    """Fabric transmissions over a host-to-host pipe (mirrors
    ``test_packet_hop_throughput``); returns total hops delivered."""
    from repro.network.fabric import Network
    from repro.network.fattree import build_fat_tree
    from repro.network.packet import make_request

    env = Environment()
    topo = build_fat_tree(8)
    network = Network(env, topo)

    class Sink:
        count = 0

        def receive(self, packet, from_name):
            Sink.count += 1

    network.attach("tor0.0", Sink())
    for i in range(n):
        packet = make_request(
            client="host0.0.0",
            request_id=i,
            key=i,
            rgid=1,
            backup_replica="host0.0.1",
            issued_at=0.0,
            netrs=False,
            dst="host0.0.1",
        )
        network.transmit("host0.0.0", "tor0.0", packet)
    env.run()
    return network.transmissions


def bench_routing(n: int = 2_000) -> int:
    """ECMP path computations across a paper-scale 16-ary fat-tree (mirrors
    ``test_routing_throughput``)."""
    from repro.network.fattree import build_fat_tree
    from repro.network.routing import Router

    topo = build_fat_tree(16)
    router = Router(topo)
    hosts = [h.name for h in topo.hosts]
    for i in range(n):
        router.path(hosts[i % 512], hosts[-1 - (i % 511)], i)
    return n


def bench_rng_draws(n: int = 200_000) -> int:
    """Scalar draws served from a BatchedStream's prefetched blocks.

    This is the shape of the simulator's hottest stochastic path: servers
    and fluctuation timers pull one exponential at a time, and the batched
    layer amortizes numpy's per-call dispatch across 1024-draw blocks.
    """
    draws = batched_from_seed(1, "bench.rng", block_size=1024)
    total = 0.0
    for _ in range(n):
        total += draws.exponential(1e-4)
    assert total > 0
    return n


def bench_metrics_aggregation(n: int = 200_000, trials: int = 20) -> int:
    """End-of-run metrics: one big latency summary plus cross-trial means.

    Mirrors what ``run_experiment`` does after the event loop drains: the
    vectorized ``LatencyRecorder.summary`` over the full sample vector,
    then ``mean_of_summaries`` across per-trial summaries.
    """
    from repro.experiments.metrics import mean_of_summaries
    from repro.sim.probes import LatencyRecorder

    rng = stream_from_seed(2, "bench.metrics")
    samples = rng.exponential(1e-3, size=n)
    recorder = LatencyRecorder()
    recorder.extend(samples.tolist())
    summary = recorder.summary()
    assert summary["mean"] > 0
    per_trial = []
    step = max(1, n // trials)
    for i in range(trials):
        trial = LatencyRecorder()
        trial.extend(samples[i * step : (i + 1) * step].tolist())
        if len(trial):
            per_trial.append(trial.summary())
    merged = mean_of_summaries(per_trial)
    assert merged["mean"] > 0
    return n


def bench_backend_dispatch(n: int = 20_000, servers: int = 16) -> int:
    """C3 selections with EWMA feedback over a 16-server pool.

    Drives the pure-Python scoring loop in :meth:`C3Selector.select` plus
    ``note_sent``/``note_response`` bookkeeping -- the per-request work of
    every RSNode.  The name predates the removal of the compiled backends;
    it is kept because archived reports (``BENCH_8.json``) key on it.
    """
    from repro.network.packet import ServerStatus
    from repro.selection.c3 import C3Selector

    selector = C3Selector(
        prior_service_rate=1000.0, rng=stream_from_seed(3, "bench.backend")
    )
    pool = [f"server{i}" for i in range(servers)]
    status = ServerStatus(queue_size=4, service_rate=900.0, timestamp=0.0)
    for i in range(n):
        server = selector.select(pool, now=i * 1e-4)
        selector.note_sent(server, now=i * 1e-4)
        if i % 4 == 0:
            selector.note_response(server, 1e-3, status, now=i * 1e-4)
    assert selector.selections == n
    return n


def bench_fig4_slice(requests: int = 2_000) -> int:
    """One small Figure-4 cell (clirs-r95, 32 clients) end to end; returns
    the number of completed requests."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    config = ExperimentConfig.small(
        scheme="clirs-r95", seed=1, n_clients=32, total_requests=requests
    )
    result = run_experiment(config)
    return result.completed_requests


#: Flow-tier knobs the slices below run under, stamped into the report
#: metadata: rates measured with different knobs are different benchmarks.
MESOSCALE_VECTOR_BATCH = 4_096
SHARD_BENCH_SHARDS = 4


def bench_mesoscale_slice(requests: int = 2_000) -> int:
    """The fig4 cell on the flow tier's SoA fast path (``fidelity="flow"``,
    ``vector_batch > 0``); returns the number of completed requests.
    Divide the two slices' rates for the mesoscale speedup on this
    machine.  Byte-identity with the scalar flow engine is asserted by the
    test suite, so the vector knob changes only the rate."""
    from repro.experiments.config import ExperimentConfig
    from repro.mesoscale.runner import run_flow_experiment

    config = ExperimentConfig.small(
        scheme="clirs-r95", seed=1, n_clients=32, total_requests=requests
    ).replace(fidelity="flow", vector_batch=MESOSCALE_VECTOR_BATCH)
    result = run_flow_experiment(config)
    return result.completed_requests


def bench_flow_request_batch(requests: int = 4_000) -> int:
    """The vectorized whole-request fast path, isolated: a fault-free
    single-send cell (clirs) where every request takes the dense SoA route
    -- block prologue, kernel-built delivery tables, flat drain."""
    from repro.experiments.config import ExperimentConfig
    from repro.mesoscale.runner import run_flow_experiment

    config = ExperimentConfig.small(
        scheme="clirs", seed=1, n_clients=32, total_requests=requests
    ).replace(fidelity="flow", vector_batch=1_024)
    result = run_flow_experiment(config)
    return result.completed_requests


def bench_shard_merge(requests: int = 2_000) -> int:
    """A sharded flow run, fanned out serially in process and merged.

    Measures what sharding adds around the sub-runs: config splitting,
    per-shard job spool, and the key-ordered merge (worker processes are
    deliberately not spawned -- process startup would swamp the signal and
    CI boxes disagree on core counts)."""
    from repro.experiments.config import ExperimentConfig
    from repro.mesoscale.shard import run_sharded_flow_experiment

    config = ExperimentConfig.small(
        scheme="clirs-r95", seed=1, n_clients=32, n_servers=64,
        total_requests=requests,
    ).replace(
        fidelity="flow",
        shards=SHARD_BENCH_SHARDS,
        vector_batch=MESOSCALE_VECTOR_BATCH,
    )
    result = run_sharded_flow_experiment(config, workers=1)
    return result.completed_requests


#: Registry of benchmark name -> callable, in report order.  The CLI's
#: positional arguments select from these names and reject anything else.
BENCHMARKS: Dict[str, Callable[[], int]] = {
    "event_scheduling": bench_event_scheduling,
    "timer_cancellation": bench_timer_cancellation,
    "packet_forwarding": bench_packet_forwarding,
    "routing": bench_routing,
    "rng_draws": bench_rng_draws,
    "metrics_aggregation": bench_metrics_aggregation,
    "backend_dispatch": bench_backend_dispatch,
    "fig4_slice": bench_fig4_slice,
    "mesoscale_slice": bench_mesoscale_slice,
    "flow_request_batch": bench_flow_request_batch,
    "shard_merge": bench_shard_merge,
}

#: Per-benchmark allowed fractional rate drop before --compare fails.
#: Microbenchmarks are stable enough for the 50 % default; the end-to-end
#: slices see compounded jitter (allocator, GC, cache state) and get more
#: headroom.  Names absent here fall back to the CLI ``--tolerance``.
THRESHOLDS: Dict[str, float] = {
    "event_scheduling": 0.5,
    "timer_cancellation": 0.5,
    "packet_forwarding": 0.5,
    "routing": 0.5,
    "rng_draws": 0.5,
    "metrics_aggregation": 0.5,
    "backend_dispatch": 0.5,
    "fig4_slice": 0.6,
    "mesoscale_slice": 0.6,
    "flow_request_batch": 0.6,
    "shard_merge": 0.6,
}


def _git_commit() -> str:
    """Current commit hash, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return "unknown"
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else "unknown"


def run_benchmarks(
    repeats: int = 5,
    only: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Run the suite (or the ``only`` subset) and return the report payload."""
    report: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        # Flow-tier knobs the mesoscale slices ran under (additive v2
        # metadata): a rate measured with different knobs is a different
        # benchmark, so archived reports record them.
        "flow_tier": {
            "vector_batch": MESOSCALE_VECTOR_BATCH,
            "shards": SHARD_BENCH_SHARDS,
        },
        "platform": platform.platform(),
        "repeats": repeats,
        "benchmarks": {},
    }
    benches = report["benchmarks"]
    for name, fn in BENCHMARKS.items():
        if only is not None and name not in only:
            continue
        benches[name] = _best_of(fn, repeats)
    return report


def compare_reports(
    baseline: Dict[str, object],
    current: Dict[str, object],
    tolerance: float = 0.5,
    thresholds: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """Regression check of ``current`` rates against ``baseline``.

    A benchmark *regresses* when its measured ``rate_per_s`` drops below
    ``(1 - tolerance)`` of the archived rate, where the per-benchmark
    tolerance comes from ``thresholds`` (falling back to ``tolerance``).
    Tolerances are deliberately generous: archived numbers come from a
    different machine, and shared CI runners jitter by tens of percent.
    Whether regressions fail the run is the *caller's* policy (the CLI
    gates by default; ``--compare-warn`` downgrades to warnings).
    """
    base_benches = baseline.get("benchmarks", {})
    cur_benches = current.get("benchmarks", {})
    comparison: Dict[str, object] = {
        "baseline_commit": baseline.get("git_commit", "unknown"),
        "current_commit": current.get("git_commit", "unknown"),
        "tolerance": tolerance,
        "benchmarks": {},
        "regressions": [],
    }
    for name, cur in sorted(cur_benches.items()):
        base = base_benches.get(name)
        if base is None:
            continue
        allowed = (thresholds or {}).get(name, tolerance)
        base_rate = base["rate_per_s"]
        cur_rate = cur["rate_per_s"]
        ratio = cur_rate / base_rate if base_rate > 0 else float("inf")
        regressed = ratio < (1.0 - allowed)
        comparison["benchmarks"][name] = {
            "baseline_rate_per_s": base_rate,
            "current_rate_per_s": cur_rate,
            "ratio": ratio,
            "tolerance": allowed,
            "regressed": regressed,
        }
        if regressed:
            comparison["regressions"].append(name)
    return comparison


def _print_profile(profile: cProfile.Profile, out_path: Optional[str]) -> None:
    """Dump pstats data (if requested) and print the top-25 cumulative table."""
    stats = pstats.Stats(profile, stream=sys.stderr)
    if out_path:
        stats.dump_stats(out_path)
        sys.stderr.write(f"profile data written to {out_path}\n")
    stats.sort_stats("cumulative").print_stats(25)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names",
        nargs="*",
        metavar="BENCHMARK",
        help=(
            "benchmarks to run (default: all); one of: "
            + ", ".join(BENCHMARKS)
        ),
    )
    parser.add_argument("--out", default=None, help="write JSON report here")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--profile",
        nargs="?",
        const="",
        default=None,
        metavar="PSTATS_FILE",
        help=(
            "profile the run under cProfile; prints the top-25 functions by "
            "cumulative time and, given a path, dumps raw pstats data there"
        ),
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE_JSON",
        help=(
            "regression gate: compare measured rates against an archived "
            "report; exits 1 when any benchmark drops below its threshold "
            "(see --compare-warn)"
        ),
    )
    parser.add_argument(
        "--compare-warn",
        action="store_true",
        help=(
            "escape hatch: report --compare regressions as warnings only, "
            "never failing the run (the pre-gate behaviour)"
        ),
    )
    parser.add_argument(
        "--compare-out",
        default=None,
        metavar="COMPARISON_JSON",
        help="write the --compare result here (for CI artifacts)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help=(
            "fallback fractional rate drop allowed before --compare flags a "
            "benchmark without its own THRESHOLDS entry (default 0.5)"
        ),
    )
    args = parser.parse_args(argv)

    unknown = [name for name in args.names if name not in BENCHMARKS]
    if unknown:
        parser.error(
            f"unknown benchmark(s): {', '.join(unknown)} "
            f"(choose from: {', '.join(BENCHMARKS)})"
        )
    only = args.names or None

    profile: Optional[cProfile.Profile] = None
    if args.profile is not None:
        profile = cProfile.Profile()
        profile.enable()
    try:
        report = run_benchmarks(repeats=args.repeats, only=only)
    finally:
        if profile is not None:
            profile.disable()
            _print_profile(profile, args.profile or None)

    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(payload)
    sys.stdout.write(payload)

    if args.compare:
        with open(args.compare, "r", encoding="ascii") as fh:
            baseline = json.load(fh)
        comparison = compare_reports(
            baseline, report, tolerance=args.tolerance, thresholds=THRESHOLDS
        )
        comparison_payload = json.dumps(comparison, indent=2, sort_keys=True) + "\n"
        if args.compare_out:
            with open(args.compare_out, "w", encoding="ascii") as fh:
                fh.write(comparison_payload)
        sys.stderr.write(comparison_payload)
        severity = "WARNING" if args.compare_warn else "FAIL"
        for name in comparison["regressions"]:
            entry = comparison["benchmarks"][name]
            sys.stderr.write(
                f"{severity}: {name} regressed: "
                f"{entry['current_rate_per_s']:.0f}/s vs baseline "
                f"{entry['baseline_rate_per_s']:.0f}/s "
                f"(ratio {entry['ratio']:.2f} < {1.0 - entry['tolerance']:.2f})\n"
            )
        if not comparison["regressions"]:
            sys.stderr.write("bench comparison: no regressions beyond tolerance\n")
        elif not args.compare_warn:
            sys.stderr.write(
                f"bench comparison: {len(comparison['regressions'])} "
                "regression(s) -- failing (use --compare-warn to downgrade)\n"
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
