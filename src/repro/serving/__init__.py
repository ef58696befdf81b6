"""Dynamic query batching: the SLO-aware serving tier (Sec. 5.3).

The paper defers query batching to "the DNN-serving literature"; this
package implements what that literature converged on — *continuous
batching*.  Concurrent queries arriving over (simulated) time are
coalesced by a :class:`DynamicBatcher` into fused multi-query sweeps
under a :class:`BatchPolicy` of ``max_batch`` size and ``max_wait_us``
timeout: a group launches when either bound trips, and late arrivals
join the next group.  A deterministic event loop
(:func:`simulate_serving`) drives the batcher against a
:class:`GroupExecutor` — the single engine
(:meth:`~repro.core.engine.TextureSearchEngine.search_group`), the
sharded cluster
(:meth:`~repro.distributed.cluster.DistributedSearchSystem.search_group`),
or the full REST/load-balancer tier — and produces per-request latency
records (queue wait + execution) with p50/p95/p99 accounting
(:class:`ServingReport`).

Everything is deterministic: the same arrival trace and seed replay
byte-identical groups and percentiles, which is what lets the serving
bench experiment (``python -m repro.bench.run serving``) quantify the
throughput-vs-latency trade-off the paper hand-waves.
"""

from .batcher import (
    BatchPolicy,
    DynamicBatcher,
    GroupRecord,
    RequestRecord,
    ServingRequest,
    build_trace,
    simulate_serving,
)
from .executors import (
    ClusterGroupExecutor,
    FusedEngineExecutor,
    GroupExecutor,
    MixedClusterExecutor,
    SerialEngineExecutor,
    WebTierBatchExecutor,
)
from .metrics import Rejected, ServingReport, percentile
from .workload import (
    burst_arrivals,
    diurnal_arrivals,
    flash_crowd_arrivals,
    poisson_arrivals,
)

__all__ = [
    "BatchPolicy",
    "ClusterGroupExecutor",
    "DynamicBatcher",
    "FusedEngineExecutor",
    "GroupExecutor",
    "GroupRecord",
    "MixedClusterExecutor",
    "Rejected",
    "RequestRecord",
    "SerialEngineExecutor",
    "ServingReport",
    "ServingRequest",
    "WebTierBatchExecutor",
    "build_trace",
    "burst_arrivals",
    "diurnal_arrivals",
    "flash_crowd_arrivals",
    "percentile",
    "poisson_arrivals",
    "simulate_serving",
]
