"""The flow tier's analytic ``link_bandwidth`` model against the packet tier.

With service times negligible and links lightly loaded, a request's latency
is almost all serialization and propagation, so the flow tier's closed-form
paths must land on the packet tier's hop-by-hop store-and-forward latency.
That holds only if every hop serializes the packet that actually crosses
it: responses at the response's size, and NetRS's client access link in
both directions.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.mesoscale.runner import run_flow_experiment


@pytest.mark.parametrize("scheme", ["clirs", "netrs-tor"])
def test_flow_serialization_tracks_the_packet_tier(scheme):
    config = ExperimentConfig.tiny(scheme=scheme, seed=5).replace(
        link_bandwidth=100e6,  # ~90 us to serialize a 1 KiB response
        mean_service_time=1e-6,
        fluctuation_range=1.0,
        utilization=2e-4,  # 4.8k requests/s: access links stay near idle
    )
    packet = run_experiment(config)
    flow = run_flow_experiment(config.replace(fidelity="flow"))
    assert flow.completed_requests == packet.completed_requests
    assert flow.latency.percentile(50.0) == pytest.approx(
        packet.latency.percentile(50.0), rel=0.02
    )
    assert min(flow.latency.samples) == pytest.approx(
        min(packet.latency.samples), rel=0.02
    )
