"""Hybrid memory cache substrate: FIFO caches and the two-level GPU+host
feature cache (Fig. 5), which also answers the paper's capacity metric."""

from .fifo import Entry, FifoCache
from .hybrid import CachedBatch, CacheLocation, HybridFeatureCache

__all__ = [
    "CacheLocation",
    "CachedBatch",
    "Entry",
    "FifoCache",
    "HybridFeatureCache",
]
