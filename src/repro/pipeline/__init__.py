"""Multi-stream scheduling substrate: the Table-6 overlap model and its
event-driven upper bound."""

from .event_sim import EventSimResult, simulate_stream_pipeline
from .scheduler import (
    FIXED_OVERHEAD_BYTES,
    StreamPlan,
    overlap_us,
    plan_streams,
    stream_extra_gpu_bytes,
)

__all__ = [
    "EventSimResult",
    "FIXED_OVERHEAD_BYTES",
    "StreamPlan",
    "simulate_stream_pipeline",
    "overlap_us",
    "plan_streams",
    "stream_extra_gpu_bytes",
]
