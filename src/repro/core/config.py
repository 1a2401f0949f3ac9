"""Simulation configurations (Table 1) and scaled-down variants.

``paper_config()`` mirrors Vulkan-Sim's Table 1 numbers.  Because our
procedural scenes are hundreds of times smaller than LumiBench's (see
DESIGN.md), running them against a 64 KB L1 / 3 MB L2 would make every
tree cache-resident and hide the paper's memory-latency story.  The
``default_config()`` therefore scales cache capacities down with the
scenes while keeping every *latency* and structural parameter from
Table 1 — magnitude changes, mechanism does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheConfig:
    """One cache level.

    ``associativity=0`` means fully associative (the paper's L1 data
    cache).  ``latency`` is the hit latency in core cycles.
    """

    size_bytes: int
    line_bytes: int = 128
    associativity: int = 0
    latency: int = 20
    mshr_entries: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ValueError("cache sizes must be positive")
        if self.size_bytes % self.line_bytes != 0:
            raise ValueError("cache size must be a multiple of the line size")
        n_lines = self.size_bytes // self.line_bytes
        if self.associativity < 0:
            raise ValueError("associativity must be >= 0 (0 = fully assoc)")
        if self.associativity > 0 and n_lines % self.associativity != 0:
            raise ValueError("line count must be a multiple of associativity")

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        if self.associativity == 0:
            return 1
        return self.n_lines // self.associativity


@dataclass(frozen=True)
class DramConfig:
    """DRAM timing: partitioned chips with a fixed access latency.

    ``partition_stride`` is the address interleaving granularity across
    chips (256 B in the paper's GPU — the quantity Section 6.4.1's
    load-balancing stride plays against).  ``burst_cycles`` is how long
    one line transfer occupies a partition's data bus.
    """

    latency: int = 100
    partitions: int = 4
    partition_stride: int = 256
    burst_cycles: int = 4

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise ValueError("need at least one DRAM partition")
        if self.partition_stride <= 0 or self.burst_cycles <= 0:
            raise ValueError("stride and burst must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")

    def partition_of(self, address: int) -> int:
        return (address // self.partition_stride) % self.partitions


@dataclass(frozen=True)
class GpuConfig:
    """Whole-GPU configuration (Table 1 shape)."""

    n_sms: int = 8
    warp_size: int = 32
    warp_buffer_size: int = 16
    mem_ports: int = 4  # L1 requests the RT unit may issue per cycle
    box_test_latency: int = 4
    primitive_test_latency: int = 16
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=64 * 1024, latency=20)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=3 * 1024 * 1024, associativity=16, latency=160
        )
    )
    dram: DramConfig = field(default_factory=DramConfig)
    #: Where prefetched lines land: directly in the L1 (the paper's
    #: design) or in a small per-SM stream buffer probed alongside it
    #: (the classic Jouppi alternative from Section 2.3; lines migrate
    #: to L1 on first demand hit, avoiding L1 pollution).
    prefetch_destination: str = "l1"
    stream_buffer: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=4 * 1024, latency=20
        )
    )
    max_cycles: int = 20_000_000

    def __post_init__(self) -> None:
        if self.n_sms < 1 or self.warp_size < 1 or self.warp_buffer_size < 1:
            raise ValueError("SM/warp parameters must be positive")
        if self.mem_ports < 1:
            raise ValueError("need at least one memory port")
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ValueError("L1 and L2 must share a line size")
        if self.prefetch_destination not in ("l1", "stream"):
            raise ValueError(
                f"unknown prefetch destination {self.prefetch_destination!r}"
            )
        if self.stream_buffer.line_bytes != self.l1.line_bytes:
            raise ValueError("stream buffer must share the L1 line size")


def paper_config() -> GpuConfig:
    """The Table 1 configuration verbatim."""
    return GpuConfig()


def default_config() -> GpuConfig:
    """Cache-scaled configuration for the procedural (small) scenes.

    Latencies, warp structure, DRAM partitioning, and the RT unit are
    unchanged from Table 1; only cache capacities and SM count shrink to
    keep tree-size:cache-size ratios in the paper's regime.
    """
    return replace(
        paper_config(),
        n_sms=4,
        l1=CacheConfig(size_bytes=8 * 1024, latency=20),
        l2=CacheConfig(size_bytes=64 * 1024, associativity=16, latency=160),
    )


def smoke_config() -> GpuConfig:
    """Tiny configuration for unit tests."""
    return replace(
        paper_config(),
        n_sms=2,
        warp_buffer_size=4,
        l1=CacheConfig(size_bytes=1024, latency=20),
        l2=CacheConfig(size_bytes=8 * 1024, associativity=8, latency=160),
        max_cycles=2_000_000,
    )
