"""Golden E4 fingerprint: the n=100 large-N cold start, pinned.

The values were captured before the routing rows became plain int
tuples (the columnar plane was then the default), so any change to the
hello path, the codec or the merge rules that moves the simulated
outcome fails here.  Both routing planes must reproduce them.
"""

import pytest

from benchmarks.bench_e4_scalability import LARGE_N_CONFIG, connected_placement_large
from repro.net.api import MeshNetwork
from repro.sim.shard import network_fingerprint

GOLDEN_DIGEST = "1a078d6f1c87d483303336fcf1e5c508084b4602b282d6908bc44b92dd324a34"
GOLDEN_FRAMES = 1155
GOLDEN_BYTES = 199318
GOLDEN_CONVERGENCE_S = 840.0


@pytest.mark.parametrize("impl", ["auto", "columnar"])
def test_e4_n100_fingerprint(impl, monkeypatch):
    monkeypatch.delenv("REPRO_ROUTING_IMPL", raising=False)
    positions, _stats = connected_placement_large(100, seed=5)
    config = LARGE_N_CONFIG.replace(routing_impl=impl)
    net = MeshNetwork.from_positions(positions, config=config, seed=5, trace_enabled=False)
    convergence = net.run_until_converged(timeout_s=86400.0, check_period_s=120.0)
    fingerprint = network_fingerprint(net, convergence)
    assert fingerprint["digest"] == GOLDEN_DIGEST
    assert fingerprint["frames"] == GOLDEN_FRAMES
    assert fingerprint["bytes"] == GOLDEN_BYTES
    assert fingerprint["convergence_s"] == GOLDEN_CONVERGENCE_S
