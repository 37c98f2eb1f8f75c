"""The benchmark's workloads: experiment configs, sizes and fault timelines.

A run of one workload is ``subruns`` independent experiments.  Sub-run
``i`` of seed ``s`` uses ``ExperimentConfig.seed = s + i * SEED_STRIDE``,
so sub-run 0 runs exactly the benchmark seed.  Each sub-run's request
count is ``nominal_rate * seconds / subruns``, rounded to a thousand: a
fixed function of ``--seconds``, never of the host, so a seed always
names the same inputs.  ``nominal_rate`` is the workload's steady-state
request rate on the reference host (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

SEED_STRIDE = 1_000_000

#: R95 workload fault cadence: one crash and one leave/join per period.
CHURN_PERIOD_S = 0.25
CRASH_DOWN_S = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    tier: str  # "packet" or "flow"
    scheme: str
    nominal_rate: float  # simulated requests per host-second, reference host
    subruns: int
    overrides: Dict[str, object] = field(default_factory=dict)
    churn_and_crash: bool = False
    # Largest simulated time (s) from the last arrival to the end of the
    # run before the backlog check fails; None skips the check.
    max_drain_s: Optional[float] = None

    def requests_per_subrun(self, seconds: float) -> int:
        per_run = self.nominal_rate * seconds / self.subruns
        return max(2_000, int(round(per_run / 1_000.0)) * 1_000)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="netrs-ilp-read",
            tier="packet",
            scheme="netrs-ilp",
            nominal_rate=5_600,
            subruns=5,
            max_drain_s=0.1,
        ),
        Workload(
            name="r95-rw-churn-crash",
            tier="packet",
            scheme="clirs-r95",
            nominal_rate=4_000,
            subruns=5,
            overrides=dict(
                utilization=0.6,
                zipf_exponent=0.7,
                write_fraction=0.3,
                write_quorum=2,
                read_quorum=2,
                request_timeout=0.1,
                max_retries=3,
            ),
            churn_and_crash=True,
            max_drain_s=0.1,
        ),
        Workload(
            name="flow-1m-hosts",
            tier="flow",
            scheme="netrs-tor",
            nominal_rate=8_000,
            subruns=4,
            # The million-host shape of examples/mesoscale_1m.py: a 160-ary
            # fat-tree is 1,024,000 hosts.
            overrides=dict(
                fat_tree_k=160,
                n_servers=1_000,
                n_clients=4_000,
                zipf_exponent=0.6,
                utilization=0.7,
                fidelity="flow",
                vector_batch=4_096,
                shards=1,
            ),
        ),
    )
}


def churn_and_crash_schedules(
    total_requests: int, arrival_rate: float, n_servers: int
) -> Tuple[str, str, int, int]:
    """Fault and churn timelines repeating every :data:`CHURN_PERIOD_S`.

    Each period crashes one server for :data:`CRASH_DOWN_S`, then retires
    a different server from the ring and rejoins it half a period later.
    Cycles are laid only where the whole cycle ends before 97 % of the
    expected arrival span, so every scheduled event fires before the last
    arrival.  Returns
    ``(fault_schedule, churn_schedule, fault_events, churn_events)``.
    """
    span = total_requests / arrival_rate
    period = CHURN_PERIOD_S
    faults, churn = [], []
    cycle = 0
    start = period / 2
    while start + 3 * period / 4 <= 0.97 * span:
        crashed = f"server#{(2 * cycle) % n_servers}"
        leaving = f"server#{(2 * cycle + 1) % n_servers}"
        faults.append(f"server-down@{start:.6f}:{crashed}")
        faults.append(f"server-up@{start + CRASH_DOWN_S:.6f}:{crashed}")
        churn.append(f"node-leave@{start + period / 4:.6f}:{leaving}")
        churn.append(f"node-join@{start + 3 * period / 4:.6f}:{leaving}")
        cycle += 1
        start += period
    return ";".join(faults), ";".join(churn), len(faults), len(churn)


def subrun_config(workload: Workload, seed: int, index: int, seconds: float):
    """The validated ``ExperimentConfig`` of one sub-run, plus its schedule counts."""
    from repro.experiments import ExperimentConfig

    config = ExperimentConfig.small(
        scheme=workload.scheme,
        seed=seed + index * SEED_STRIDE,
        total_requests=workload.requests_per_subrun(seconds),
        **workload.overrides,
    )
    expected = {"faults_injected": 0, "churn_events": 0}
    if workload.churn_and_crash:
        faults, churn, n_faults, n_churn = churn_and_crash_schedules(
            config.total_requests, config.arrival_rate(), config.n_servers
        )
        if n_churn == 0:
            raise ValueError(
                f"{workload.name}: {config.total_requests} requests span less "
                "than one fault period; raise --seconds"
            )
        config = config.replace(fault_schedule=faults, churn_schedule=churn)
        expected = {"faults_injected": n_faults, "churn_events": n_churn}
    return config, expected
