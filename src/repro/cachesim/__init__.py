"""Simulated A64FX memory hierarchy: the reproduction's measurement testbed."""

from .events import CacheEvents, combine, per_array_counts
from .hierarchy import SimConfig, SpMVCacheSim
from .prefetch import STREAMED_ARRAYS, inject_prefetches
from .setassoc import SetAssocRD, set_index, simulate

__all__ = [
    "CacheEvents",
    "STREAMED_ARRAYS",
    "SetAssocRD",
    "SimConfig",
    "SpMVCacheSim",
    "combine",
    "inject_prefetches",
    "per_array_counts",
    "set_index",
    "simulate",
]
