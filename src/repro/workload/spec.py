"""Transaction-type and workload-mix specifications.

Each :class:`TransactionType` carries the per-execution resource demands
the engine's resource models consume.  A :class:`WorkloadSpec` is a
weighted mix of types plus scale parameters (warehouses/customers,
terminals, target rate) mirroring the paper's OLTPBenchmark settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["TransactionType", "WorkloadSpec"]


@dataclass(frozen=True)
class TransactionType:
    """Resource demands of one transaction class.

    Attributes
    ----------
    name:
        Transaction name (e.g. ``"NewOrder"``).
    weight:
        Relative frequency in the mix.
    cpu_ms:
        CPU service demand per execution, in milliseconds.
    logical_reads:
        Rows touched per execution (drives ``handler_read`` counters).
    write_rows:
        Rows inserted/updated/deleted per execution (drives dirty pages,
        redo log traffic).
    lock_rows:
        Rows locked per execution (drives the contention model).
    net_in_bytes / net_out_bytes:
        Request/response payload per execution.
    read_only:
        True for transactions issuing no writes.
    insert_fraction / update_fraction / delete_fraction:
        How ``write_rows`` splits across DML verbs (must sum to ≤ 1; the
        remainder counts as updates).
    """

    name: str
    weight: float
    cpu_ms: float
    logical_reads: float
    write_rows: float = 0.0
    lock_rows: float = 0.0
    net_in_bytes: float = 256.0
    net_out_bytes: float = 1024.0
    read_only: bool = False
    insert_fraction: float = 0.0
    update_fraction: float = 1.0
    delete_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"{self.name}: weight must be non-negative")
        fractions = self.insert_fraction + self.update_fraction + self.delete_fraction
        if fractions > 1.0 + 1e-9:
            raise ValueError(f"{self.name}: DML fractions exceed 1")


@dataclass
class WorkloadSpec:
    """A weighted transaction mix with scale parameters.

    Attributes
    ----------
    name:
        Workload label (``"tpcc"``, ``"tpce"``).
    types:
        The transaction classes of the mix.
    scale_factor:
        Warehouses (TPC-C) or customers/1000 (TPC-E); sizes the working
        set relative to the buffer pool.
    n_terminals:
        Closed-loop client count (the paper's default: 128).
    base_tps:
        Open-arrival target rate before closed-loop limiting.
    think_time_s:
        Per-terminal think time between transactions.
    hot_fraction:
        Fraction of the lock-key space that is hot (1.0 = uniform access;
        smaller = more contention).  The Lock Contention anomaly shrinks it.
    """

    name: str
    types: List[TransactionType]
    scale_factor: float = 500.0
    n_terminals: int = 128
    base_tps: float = 900.0
    think_time_s: float = 0.05
    hot_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not self.types:
            raise ValueError("workload needs at least one transaction type")
        total = sum(t.weight for t in self.types)
        if total <= 0:
            raise ValueError("total transaction weight must be positive")

    @property
    def weights(self) -> np.ndarray:
        """Normalized mix weights, aligned with :attr:`types`."""
        w = np.asarray([t.weight for t in self.types], dtype=np.float64)
        return w / w.sum()

    @property
    def type_names(self) -> List[str]:
        """Transaction names, in mix order."""
        return [t.name for t in self.types]

    def mix_average(self, attribute: str) -> float:
        """Mix-weighted mean of a per-type numeric attribute."""
        weights = self.weights
        values = np.asarray(
            [float(getattr(t, attribute)) for t in self.types], dtype=np.float64
        )
        return float((weights * values).sum())
