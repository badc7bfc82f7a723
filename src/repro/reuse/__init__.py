"""Reuse-distance engine: exact and sampled stack processing."""

from .cdq import COLD, hit_mask, miss_count, reuse_distances
from .fenwick import compute_prev
from .histogram import ReuseProfile, partition_profiles, scale_distances, window_floor
from .periodic import steady_state_reuse_distances
from .sampling import SpatialSampledProfile, spatial_sample_mask, spatial_sample_profile

__all__ = [
    "COLD",
    "ReuseProfile",
    "SpatialSampledProfile",
    "compute_prev",
    "hit_mask",
    "miss_count",
    "reuse_distances",
    "spatial_sample_mask",
    "spatial_sample_profile",
    "partition_profiles",
    "scale_distances",
    "steady_state_reuse_distances",
    "window_floor",
]
