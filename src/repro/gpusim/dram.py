"""Partitioned DRAM timing model.

Addresses interleave across ``partitions`` chips at ``partition_stride``
granularity (256 B in the paper's GPU).  Each partition serves one line
transfer at a time: a request waits for the partition's data bus, then
takes the access latency.  Per-partition busy cycles give the DRAM
utilization statistic of Figure 1a, and per-partition request counts
expose the load imbalance Section 6.4.1 fixes with the repack stride.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..core.config import DramConfig


@dataclass
class DramStats:
    accesses: int = 0
    per_partition_accesses: List[int] = field(default_factory=list)
    per_partition_busy: List[int] = field(default_factory=list)
    total_wait_cycles: int = 0

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of partition-cycles the data buses were busy."""
        if elapsed_cycles <= 0 or not self.per_partition_busy:
            return 0.0
        busy = sum(self.per_partition_busy)
        return busy / (elapsed_cycles * len(self.per_partition_busy))

    def imbalance(self) -> float:
        """Max/mean per-partition access ratio (1.0 = perfectly balanced)."""
        counts = self.per_partition_accesses
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean > 0 else 1.0


class Dram:
    """The memory controller + chips, as a bus-occupancy model."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self.stats = DramStats(
            per_partition_accesses=[0] * config.partitions,
            per_partition_busy=[0] * config.partitions,
        )
        self._bus_free = [0] * config.partitions
        #: optional trace bus (repro.obs); None = tracing disabled.
        self.obs = None

    def service(self, address: int, cycle: int) -> int:
        """Accept a line request at ``cycle``; returns its completion cycle.

        The request occupies its partition's bus for ``burst_cycles``
        starting when the bus frees up, then data arrives ``latency``
        cycles later.
        """
        if cycle < 0:
            raise ValueError("cycle must be non-negative")
        partition = self.config.partition_of(address)
        start = max(cycle, self._bus_free[partition])
        self._bus_free[partition] = start + self.config.burst_cycles
        self.stats.accesses += 1
        self.stats.per_partition_accesses[partition] += 1
        self.stats.per_partition_busy[partition] += self.config.burst_cycles
        self.stats.total_wait_cycles += start - cycle
        if self.obs is not None:
            self._trace(partition, address, start, cycle)
        return start + self.config.burst_cycles + self.config.latency

    def _trace(self, partition: int, address: int, start: int,
               cycle: int) -> None:
        """Publish one request's bus occupancy as a ``dram.service``."""
        self.obs.emit(
            "dram.service",
            start,
            f"DRAM[{partition}]",
            dur=self.config.burst_cycles,
            args={"partition": partition, "address": address,
                  "wait": start - cycle},
        )

    def service_many(
        self, addresses: Sequence[int], cycle: int
    ) -> List[int]:
        """Accept a batch of same-cycle line requests; returns each
        request's completion cycle, in input order.

        The batched memory system calls this for all DRAM misses a
        flush discovers at one request cycle: partition routing is one
        vectorized pass over the address batch, while bus occupancy
        within each partition still serializes in input order — the
        per-request completion cycles are exactly what an in-order
        sequence of :meth:`service` calls would return, and an attached
        trace bus receives the same ``dram.service`` events.
        """
        config = self.config
        partitions = (
            np.asarray(addresses, dtype=np.int64) // config.partition_stride
            % config.partitions
        ).tolist()
        burst = config.burst_cycles
        tail = burst + config.latency
        bus = self._bus_free
        stats = self.stats
        accesses = stats.per_partition_accesses
        busy = stats.per_partition_busy
        obs = self.obs
        waited = 0
        dones = []
        for index, partition in enumerate(partitions):
            free = bus[partition]
            start = free if free > cycle else cycle
            bus[partition] = start + burst
            accesses[partition] += 1
            busy[partition] += burst
            waited += start - cycle
            dones.append(start + tail)
            if obs is not None:
                self._trace(partition, addresses[index], start, cycle)
        stats.accesses += len(partitions)
        stats.total_wait_cycles += waited
        return dones
