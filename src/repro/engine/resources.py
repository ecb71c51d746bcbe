"""Hardware resource models and queueing helpers.

The server is modelled after the paper's Microsoft Azure A3 instances:
4 cores at 2.1 GHz, 7 GB RAM, network-attached storage, and a ~100 Mbit
virtual NIC.  Service times inflate with utilisation through an M/M/1-style
``1/(1-ρ)`` factor, capped so the closed-loop fixed point stays stable.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServerConfig", "mm1_latency_factor"]

#: Utilisation cap applied before the queueing factor, keeping the
#: latency finite when demand exceeds capacity.
RHO_CAP = 0.97


def mm1_latency_factor(utilisation: float, cap: float = RHO_CAP) -> float:
    """Queueing inflation factor ``1 / (1 − ρ)`` with ρ capped.

    A resource at 50 % utilisation doubles its service time; near
    saturation the factor approaches ``1/(1-cap)`` ≈ 33×.
    """
    rho = min(max(utilisation, 0.0), cap)
    return 1.0 / (1.0 - rho)


@dataclass(frozen=True)
class ServerConfig:
    """Capacities of the simulated database host.

    Attributes
    ----------
    n_cores:
        Physical CPU cores (Azure A3: 4).
    disk_iops:
        Sustainable random I/O operations per second.
    disk_io_ms:
        Unloaded service time of one random I/O, in milliseconds.
    disk_bandwidth_mb:
        Sequential bandwidth in MB/s (used by backup/restore streams).
    net_bandwidth_mb:
        NIC bandwidth in MB/s.
    ram_mb:
        Physical memory (Azure A3: 7 GB).
    buffer_pool_pages:
        InnoDB buffer pool size in 16 KB pages.
    page_size_kb:
        Database page size.
    rows_per_page:
        Average rows per data page (sizes dirty-page generation).
    flush_capacity_pages:
        Pages per second the background flusher can write before
        competing with foreground I/O.
    base_overhead_ms:
        Fixed per-transaction overhead (parse, optimizer, commit path).
    """

    n_cores: int = 4
    disk_iops: float = 2500.0
    disk_io_ms: float = 0.35
    disk_bandwidth_mb: float = 120.0
    net_bandwidth_mb: float = 40.0
    ram_mb: float = 7000.0
    buffer_pool_pages: int = 48_000
    page_size_kb: float = 16.0
    rows_per_page: float = 20.0
    flush_capacity_pages: float = 2400.0
    base_overhead_ms: float = 0.30

    @property
    def buffer_pool_mb(self) -> float:
        """Buffer pool size in megabytes."""
        return self.buffer_pool_pages * self.page_size_kb / 1024.0

    def working_set_pages(self, scale_factor: float) -> float:
        """Hot working-set size for a workload scale.

        Calibrated so scale 500 (the paper's 50 GB TPC-C) slightly
        overflows the pool, giving a realistic ~1-2 % miss rate.
        """
        return scale_factor * 110.0

    def base_miss_rate(self, scale_factor: float) -> float:
        """Buffer-pool miss probability for the steady-state working set."""
        pressure = self.working_set_pages(scale_factor) / self.buffer_pool_pages
        if pressure <= 1.0:
            return 0.002
        return min(0.002 + 0.015 * (pressure - 1.0), 0.25)
