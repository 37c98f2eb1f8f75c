"""Declared flow-vs-packet RNG contracts (checked by ``netrs contracts``).

Both tiers run the same client, server, accelerator, NetRS selector,
service fluctuation and open-loop workload classes, so no endpoint code is
written twice.  What the flow tier still writes on its own is RNG surface,
and the CON002 contracts below bind it: the stream *families* both tiers
create (a renamed family is a silently different seed), and the ordered
draws on the shared mixed-family arrival stream, which the vectorized flow
tier (:mod:`repro.mesoscale.vector`) rolls forward a block at a time
instead of one ``OpenLoopWorkload._arrival`` call per request.  The
vectorized tier's inlined endpoint branches are covered by the runtime
byte-identity suites (``tests/mesoscale/test_vector.py``), with the scalar
engine as oracle.
"""

from __future__ import annotations

from repro.lint.contracts import (
    ContractRegistry,
    DrawSequencePair,
    Site,
    StreamFamilyContract,
)

_FLOW = "src/repro/mesoscale/flow.py"
_VECTOR = "src/repro/mesoscale/vector.py"
_WORKLOAD = "src/repro/kvstore/workload.py"
_SCENARIOS = "src/repro/experiments/scenarios.py"

#: Both tiers must create the same named stream families.  ``background``
#: is packet-only: the flow tier rejects background traffic outright
#: (``ensure_flow_supported``), so no stream is ever created for it.
STREAM_FAMILIES = (
    StreamFamilyContract(
        name="packet-vs-flow stream families",
        reference_paths=(_SCENARIOS,),
        mirror_paths=(_FLOW,),
        reference_only=("background",),
    ),
)

#: The arrival stream is the one *mixed-family* stream: demand-weight
#: sampling, the write-fraction check and the inter-arrival exponential
#: all draw from it, so their relative order is load-bearing.  The
#: write-fraction draw is reference-only: the flow tier is read-only and
#: ``ensure_flow_supported`` rejects ``write_fraction > 0``, so the draw
#: is never made on either side of a flow run.
DRAW_SEQUENCES = (
    # The vector tier rolls the workload forward a block at a time, but the
    # per-request draws on the shared arrival stream keep the workload's
    # order: client pick, then the inter-arrival gap.  The key draw lives
    # on its own batched stream (not an arrival-stream draw on either side).
    DrawSequencePair(
        name="vector arrival-stream draw order",
        reference=Site(_WORKLOAD, "OpenLoopWorkload._arrival"),
        mirror=Site(_VECTOR, "VectorFlowEngine._load_chunk"),
        reference_rng="_rng",
        mirror_rng="rng",
        reference_only_draws=("<rng>.random",),
    ),
    # Both engines open with one exponential on the arrival stream (the
    # scalar engine starts the workload; the vector engine seeds the block
    # cursor with the same value).
    DrawSequencePair(
        name="vector opening arrival draw",
        reference=Site(_WORKLOAD, "OpenLoopWorkload.start"),
        mirror=Site(_VECTOR, "VectorFlowEngine.run"),
        reference_rng="_rng",
        mirror_rng="_rng",
    ),
)

CONTRACTS = ContractRegistry(
    stream_families=list(STREAM_FAMILIES),
    draw_sequences=list(DRAW_SEQUENCES),
)
