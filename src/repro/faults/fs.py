"""Fault-injecting filesystem shim: the storage layer as a failure domain.

Every durable artifact in the reproduction — the write-ahead tick log,
checkpoint generations, the tenant health journal, the alias table, the
causal-model store — routes its ``write``/``fsync``/``rename``/``read``
primitives through one :class:`StorageShim`.  With no faults installed
the shim is a direct passthrough to the ``os`` primitives (bit-for-bit
the pre-shim behavior, asserted by ``bench_storage_chaos.py``); with
faults installed the *filesystem itself* misbehaves the way LogDB
(PAPERS.md) documents real storage layers do:

* :class:`FullDisk` — ``ENOSPC`` on write and fsync until healed;
* :class:`FlakyIO` — seeded transient ``EIO`` at a per-op rate;
* :class:`TornRename` — the nth atomic replace writes a truncated
  destination and raises, simulating a crash mid-``rename``;
* :class:`ReadCorruption` — bit flips or truncation on read-back.

Faults are deterministic (seeded counters/generators, no wall clock),
no-ops when inactive, and targetable via ``path_filter`` substrings so a
chaos run can fill one tenant's disk while its neighbours stay clean.

Consumers observe failures through two process-wide counters —
``repro_storage_write_errors_total`` and
``repro_storage_read_errors_total`` — incremented via
:func:`count_write_error` / :func:`count_read_error` wherever a
persistence path catches an ``OSError`` or a corrupt payload.
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.obs import metrics

__all__ = [
    "FSFault",
    "FlakyIO",
    "FullDisk",
    "ReadCorruption",
    "StorageShim",
    "TornRename",
    "count_read_error",
    "count_write_error",
    "get_fs",
    "scoped_fs",
    "set_fs",
]

_WRITE_ERRORS = metrics.REGISTRY.counter(
    "repro_storage_write_errors_total",
    "Storage write/fsync/rename failures observed by persistence paths",
)
_READ_ERRORS = metrics.REGISTRY.counter(
    "repro_storage_read_errors_total",
    "Corrupt or unreadable payloads observed by persistence read paths",
)
_FAULTS_FIRED = metrics.REGISTRY.counter(
    "repro_storage_faults_injected_total",
    "Filesystem faults fired by the storage shim, by fault kind",
    labelnames=("kind",),
)


def count_write_error(n: int = 1) -> None:
    """Record *n* observed storage write/fsync/rename failures."""
    _WRITE_ERRORS.inc(n)


def count_read_error(n: int = 1) -> None:
    """Record *n* observed corrupt/unreadable storage payloads."""
    _READ_ERRORS.inc(n)


PathFilter = Optional[Union[str, Sequence[str]]]


class FSFault:
    """Base storage fault: matches paths, no-ops every hook.

    Parameters
    ----------
    path_filter:
        ``None`` matches every path; a string matches paths containing
        it as a substring; a sequence of strings matches any of them.
        Filters compare against the *string* form of the path, so an
        absolute tenant-directory prefix targets one tenant's files.
    """

    kind = "fs"

    def __init__(self, path_filter: PathFilter = None) -> None:
        if path_filter is None:
            self._filters: Optional[List[str]] = None
        elif isinstance(path_filter, str):
            self._filters = [path_filter]
        else:
            self._filters = [str(p) for p in path_filter]
        #: clear to disable the fault (disk "heals") without removing it.
        self.active = True
        #: times this fault actually fired.
        self.fired = 0

    def matches(self, path: object) -> bool:
        if not self.active:
            return False
        if self._filters is None:
            return True
        text = str(path)
        return any(f in text for f in self._filters)

    def _fire(self) -> None:
        self.fired += 1
        _FAULTS_FIRED.labels(kind=self.kind).inc()

    # -- hooks (raise OSError to fail the op) ---------------------------
    def on_write(self, path: str, data: str) -> None:
        """Called before a matching buffered write."""

    def on_fsync(self, path: str) -> None:
        """Called before a matching flush+fsync."""

    def on_replace(self, src: str, dst: str) -> None:
        """Called before a matching atomic replace."""

    def on_read(self, path: str, data: bytes) -> bytes:
        """Transform (or corrupt) a matching read's payload."""
        return data

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(path_filter={self._filters!r}, "
            f"active={self.active}, fired={self.fired})"
        )


class FullDisk(FSFault):
    """``ENOSPC`` on every matching write and fsync until healed.

    ``after_writes`` delays onset: that many matching writes succeed
    first, so a run can lay down good state before the disk fills.
    Clear :attr:`active` (or call :meth:`heal`) to let writes flow again
    — the durability manager's probe then re-promotes the tenant.
    """

    kind = "full_disk"

    def __init__(
        self, path_filter: PathFilter = None, after_writes: int = 0
    ) -> None:
        super().__init__(path_filter)
        self.after_writes = int(after_writes)
        self._seen = 0

    def heal(self) -> None:
        self.active = False

    def _raise(self, path: str) -> None:
        self._fire()
        raise OSError(errno.ENOSPC, "injected: no space left on device", path)

    def on_write(self, path: str, data: str) -> None:
        self._seen += 1
        if self._seen > self.after_writes:
            self._raise(path)

    def on_fsync(self, path: str) -> None:
        if self._seen >= self.after_writes:
            self._raise(path)


class FlakyIO(FSFault):
    """Transient, seeded ``EIO``: each matching op fails with ``rate``.

    The draw sequence is owned by the fault instance, so a given
    ``(seed, op sequence)`` fails at identical points on every run.
    """

    kind = "flaky_io"

    def __init__(
        self,
        rate: float,
        seed: int = 0,
        path_filter: PathFilter = None,
        ops: Sequence[str] = ("write", "fsync"),
        error_errno: int = errno.EIO,
    ) -> None:
        super().__init__(path_filter)
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {rate}")
        self.rate = rate
        self.ops = frozenset(ops)
        self.error_errno = int(error_errno)
        self._rng = np.random.default_rng(seed)

    def _maybe_raise(self, op: str, path: str) -> None:
        if op not in self.ops or self.rate == 0.0:
            return
        if self._rng.random() < self.rate:
            self._fire()
            raise OSError(
                self.error_errno, f"injected: flaky {op} failed", path
            )

    def on_write(self, path: str, data: str) -> None:
        self._maybe_raise("write", path)

    def on_fsync(self, path: str) -> None:
        self._maybe_raise("fsync", path)

    def on_replace(self, src: str, dst: str) -> None:
        self._maybe_raise("replace", dst)


class TornRename(FSFault):
    """The ``nth`` matching replace tears: a truncated destination lands
    on disk and the op raises ``EIO`` — the on-disk signature of a crash
    mid-``os.replace`` on a filesystem without atomic rename semantics.
    ``keep_fraction`` controls how much of the source survives.
    """

    kind = "torn_rename"

    def __init__(
        self,
        path_filter: PathFilter = None,
        nth: int = 1,
        keep_fraction: float = 0.5,
    ) -> None:
        super().__init__(path_filter)
        if nth < 1:
            raise ValueError("nth must be at least 1")
        if not 0.0 <= keep_fraction <= 1.0:
            raise ValueError("keep_fraction must lie in [0, 1]")
        self.nth = int(nth)
        self.keep_fraction = float(keep_fraction)
        self._seen = 0

    def on_replace(self, src: str, dst: str) -> None:
        self._seen += 1
        if self._seen != self.nth:
            return
        self._fire()
        try:
            data = Path(src).read_bytes()
        except OSError:
            data = b""
        cut = int(len(data) * self.keep_fraction)
        Path(dst).write_bytes(data[:cut])
        raise OSError(errno.EIO, f"injected: torn rename onto {dst}", dst)


class ReadCorruption(FSFault):
    """Rot matching reads: seeded bit flips or truncation of the payload.

    ``mode="bitflip"`` flips ``max(1, len // 64)`` bits at seeded
    positions; ``mode="truncate"`` keeps a seeded 20–80 % prefix —
    the classic torn-JSON read.  ``rate`` is the per-read probability.
    """

    kind = "read_corruption"
    MODES = ("bitflip", "truncate")

    def __init__(
        self,
        mode: str = "bitflip",
        rate: float = 1.0,
        seed: int = 0,
        path_filter: PathFilter = None,
    ) -> None:
        super().__init__(path_filter)
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {rate}")
        self.mode = mode
        self.rate = rate
        self._rng = np.random.default_rng(seed)

    def on_read(self, path: str, data: bytes) -> bytes:
        if self.rate == 0.0 or not data:
            return data
        if self._rng.random() >= self.rate:
            return data
        self._fire()
        if self.mode == "truncate":
            keep = 0.2 + 0.6 * self._rng.random()
            return data[: max(1, int(len(data) * keep))]
        flipped = bytearray(data)
        n_bits = max(1, len(data) // 64)
        for _ in range(n_bits):
            pos = int(self._rng.integers(0, len(flipped)))
            bit = int(self._rng.integers(0, 8))
            flipped[pos] ^= 1 << bit
        return bytes(flipped)


class StorageShim:
    """Routes persistence I/O, optionally through injected faults.

    The four primitives every durable path uses:

    * :meth:`write` — buffered write on an open text handle;
    * :meth:`fsync` — flush + ``os.fsync`` of a handle;
    * :meth:`replace` — atomic ``os.replace``;
    * :meth:`read_bytes` / :meth:`read_text` — whole-file read-back.

    With an empty fault list each method reduces to exactly the direct
    call it replaced; installed faults fire in installation order for
    every op whose path they match.
    """

    def __init__(self, faults: Sequence[FSFault] = ()) -> None:
        self.faults: List[FSFault] = list(faults)

    # -- fault management ----------------------------------------------
    def add(self, fault: FSFault) -> FSFault:
        self.faults.append(fault)
        return fault

    def remove(self, fault: FSFault) -> None:
        self.faults.remove(fault)

    def clear(self) -> None:
        self.faults.clear()

    # -- primitives ----------------------------------------------------
    def write(self, fh, data: str) -> None:
        """Buffered write of *data* through *fh* (faults may raise)."""
        if self.faults:
            path = getattr(fh, "name", "")
            for fault in self.faults:
                if fault.matches(path):
                    fault.on_write(path, data)
        fh.write(data)

    def fsync(self, fh) -> None:
        """Flush *fh* and fsync it to disk (faults may raise or stall)."""
        if self.faults:
            path = getattr(fh, "name", "")
            for fault in self.faults:
                if fault.matches(path):
                    fault.on_fsync(path)
        fh.flush()
        os.fsync(fh.fileno())

    def replace(
        self, src: Union[str, Path], dst: Union[str, Path]
    ) -> None:
        """Atomic rename *src* → *dst* (faults may tear it)."""
        if self.faults:
            for fault in self.faults:
                if fault.matches(src) or fault.matches(dst):
                    fault.on_replace(str(src), str(dst))
        os.replace(src, dst)

    def read_bytes(self, path: Union[str, Path]) -> bytes:
        """Whole-file read (faults may corrupt the returned payload)."""
        with open(path, "rb") as fh:
            data = fh.read()
        for fault in self.faults:
            if fault.matches(path):
                data = fault.on_read(str(path), data)
        return data

    def read_text(
        self, path: Union[str, Path], encoding: str = "utf-8"
    ) -> str:
        return self.read_bytes(path).decode(encoding, errors="replace")

    def __repr__(self) -> str:
        return f"StorageShim(faults={self.faults!r})"


#: The process-wide shim every persistence path resolves by default.
_ACTIVE = StorageShim()


def get_fs() -> StorageShim:
    """The currently installed process-wide storage shim."""
    return _ACTIVE


def set_fs(fs: StorageShim) -> StorageShim:
    """Install *fs* as the process-wide shim; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = fs
    return previous


@contextmanager
def scoped_fs(fs: StorageShim):
    """Install *fs* for the scope of a ``with`` block, then restore."""
    previous = set_fs(fs)
    try:
        yield fs
    finally:
        set_fs(previous)
