"""Architecture models: device specs, peaks, coalescing, caches, occupancy."""
from .banks import bank_conflicts, bank_replays
from .caches import CacheStats, LRUCache, null_cache
from .coalesce import (
    coalesce,
    row_distinct,
    row_lines,
    row_segments,
    segments_gt200,
    segments_lines,
)
from .occupancy import Occupancy, occupancy
from .peak import theoretical_bandwidth_gbs, theoretical_flops_gfs
from .specs import (
    ALL_DEVICES,
    CELLBE,
    DeviceSpec,
    GTX280,
    GTX480,
    HD5870,
    INTEL920,
    TimingParams,
    device_by_name,
)

__all__ = [
    "bank_conflicts",
    "bank_replays",
    "CacheStats",
    "LRUCache",
    "null_cache",
    "coalesce",
    "row_distinct",
    "row_lines",
    "row_segments",
    "segments_gt200",
    "segments_lines",
    "Occupancy",
    "occupancy",
    "theoretical_bandwidth_gbs",
    "theoretical_flops_gfs",
    "ALL_DEVICES",
    "DeviceSpec",
    "TimingParams",
    "GTX480",
    "GTX280",
    "HD5870",
    "INTEL920",
    "CELLBE",
    "device_by_name",
]
