"""Incident forensics bundles: retained evidence frozen at failure time.

When a tenant's health transitions (breaker opens, durability degrades,
a hard deadline sheds work, WAL replay reports corruption) the metrics
and spans that would explain *why* are normally gone within seconds —
the flight recorder's rings roll over and the registry only exports
point-in-time values.  :class:`IncidentRecorder` freezes that evidence
at the moment of the transition into a self-contained bundle directory::

    incidents/<tenant>/<seq>-<reason>/
        incident.json    # trigger, context, window, kept-tick metadata
        spans.jsonl      # retained span events (trace schema)
        timeline.json    # metric timeline window around the trigger
        health.jsonl     # tail of the tenant's health journal

Bundles are written through the :mod:`repro.faults.fs` storage shim
(tmp dir + atomic rename) so forensics survive the same hostile disks
the WAL does, and a per-tenant rate limiter plus a global disk budget
bound bundle volume under storms — a flapping tenant cannot fill the
disk with its own post-mortems.

:func:`explain_bundle` closes the loop: it replays the bundle's metric
timeline through ``DBSherlock.explain`` (as a ``TimelineRing`` dataset), so the tool
diagnoses its own incidents from the retained evidence alone.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults import fs as _fs
from repro.obs import metrics

__all__ = [
    "BUNDLE_VERSION",
    "IncidentRecorder",
    "explain_bundle",
    "list_bundles",
    "load_bundle",
]

#: Bundle schema version stamped into every ``incident.json``.
BUNDLE_VERSION = 1

_INCIDENT_BUNDLES = metrics.REGISTRY.counter(
    "repro_incident_bundles_total",
    "Incident bundles written, by trigger reason.",
    labelnames=("reason",),
)
_INCIDENT_SKIPPED = metrics.REGISTRY.counter(
    "repro_incident_skipped_total",
    "Incident snapshots suppressed, by limiter.",
    labelnames=("why",),
)
_INCIDENT_BYTES = metrics.REGISTRY.gauge(
    "repro_incident_bytes",
    "Approximate bytes of incident bundles written this process.",
)

_SLUG_RE = re.compile(r"[^a-z0-9_.-]+")


def _slug(text: str, limit: int = 48) -> str:
    """A filesystem-safe slug for a trigger reason."""
    slug = _SLUG_RE.sub("-", text.lower()).strip("-")
    return (slug or "incident")[:limit]


class IncidentRecorder:
    """Writes bounded, atomically-renamed incident bundles.

    Parameters
    ----------
    root_dir:
        Fleet root; bundles land under ``<root_dir>/incidents/``.
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder` supplying
        retained spans and kept-tick metadata.
    timeline:
        Optional timeline ring (``metrics.TimelineRing`` or anything
        with ``window(n) -> [(t, row), ...]`` and ``kinds()``).
    journal_root:
        Directory holding per-tenant health journals (defaults to
        *root_dir*).
    max_bundles_per_tenant:
        Bundle-count cap per tenant; further triggers are counted and
        dropped.
    max_total_bytes:
        Disk budget across every bundle this recorder writes; snapshots
        beyond it are counted and dropped.
    min_rounds_between:
        Per-tenant rate limit in fleet rounds: a tenant that triggered
        at round ``r`` is muted until ``r + min_rounds_between``.
    timeline_window:
        Trailing timeline samples captured into each bundle.
    health_tail:
        Trailing health-journal records captured into each bundle.
    """

    def __init__(
        self,
        root_dir,
        flight=None,
        timeline=None,
        journal_root=None,
        max_bundles_per_tenant: int = 4,
        max_total_bytes: int = 4 * 1024 * 1024,
        min_rounds_between: int = 8,
        timeline_window: int = 64,
        health_tail: int = 32,
    ) -> None:
        self.root_dir = Path(root_dir)
        self.flight = flight
        self.timeline = timeline
        self.journal_root = (
            Path(journal_root) if journal_root is not None else self.root_dir
        )
        self.max_bundles_per_tenant = int(max_bundles_per_tenant)
        self.max_total_bytes = int(max_total_bytes)
        self.min_rounds_between = int(min_rounds_between)
        self.timeline_window = int(timeline_window)
        self.health_tail = int(health_tail)
        self._lock = threading.Lock()
        self._seq = 0
        self._written_bytes = 0
        self._per_tenant: Dict[str, int] = {}
        self._last_round: Dict[str, int] = {}

    @property
    def incidents_dir(self) -> Path:
        return self.root_dir / "incidents"

    def attach(self, flight=None, timeline=None, journal_root=None) -> None:
        """Late-bind evidence sources (the scheduler owns their setup)."""
        if flight is not None:
            self.flight = flight
        if timeline is not None:
            self.timeline = timeline
        if journal_root is not None:
            self.journal_root = Path(journal_root)

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(
        self,
        tenant: str,
        reason: str,
        round_no: int,
        context: Optional[dict] = None,
    ) -> Optional[Path]:
        """Freeze the current evidence for *tenant* into a bundle.

        Returns the bundle directory, or ``None`` when a limiter
        suppressed the snapshot or the disk refused it.  Never raises:
        forensics must not take down the fleet they describe.
        """
        with self._lock:
            last = self._last_round.get(tenant)
            if (
                last is not None
                and round_no - last < self.min_rounds_between
            ):
                _INCIDENT_SKIPPED.labels(why="rate").inc()
                return None
            if self._per_tenant.get(tenant, 0) >= self.max_bundles_per_tenant:
                _INCIDENT_SKIPPED.labels(why="cap").inc()
                return None
            if self._written_bytes >= self.max_total_bytes:
                _INCIDENT_SKIPPED.labels(why="budget").inc()
                return None
            self._seq += 1
            seq = self._seq
            # Reserve the slot before the (slow, unlocked) write so a
            # concurrent trigger for the same tenant rate-limits out.
            self._last_round[tenant] = int(round_no)
            self._per_tenant[tenant] = self._per_tenant.get(tenant, 0) + 1
        try:
            path, nbytes = self._write_bundle(
                tenant, reason, int(round_no), seq, context or {}
            )
        except OSError:
            _fs.count_write_error()
            _INCIDENT_SKIPPED.labels(why="io").inc()
            with self._lock:
                self._per_tenant[tenant] -= 1
            return None
        with self._lock:
            self._written_bytes += nbytes
            total = self._written_bytes
        _INCIDENT_BUNDLES.labels(reason=_slug(reason)).inc()
        _INCIDENT_BYTES.set(total)
        return path

    def _write_bundle(
        self,
        tenant: str,
        reason: str,
        round_no: int,
        seq: int,
        context: dict,
    ) -> Tuple[Path, int]:
        """Write one bundle via tmp dir + atomic rename; returns bytes."""
        fsio = _fs.get_fs()
        slug = _slug(reason)
        tenant_dir = self.incidents_dir / tenant
        tenant_dir.mkdir(parents=True, exist_ok=True)
        final = tenant_dir / f"{seq:04d}-{slug}"
        tmp = tenant_dir / f".tmp-{seq:04d}-{slug}"
        if tmp.exists():
            for stale in tmp.iterdir():
                stale.unlink()
            tmp.rmdir()
        tmp.mkdir()

        events: List[dict] = []
        kept_ticks: List[dict] = []
        if self.flight is not None:
            events = self.flight.bundle_events(tenant)
            kept_ticks = self.flight.retained(tenant)
        samples: List[Tuple[float, Dict[str, float]]] = []
        kinds: Dict[str, str] = {}
        interval = 1.0
        if self.timeline is not None:
            samples = list(self.timeline.window(self.timeline_window))
            kinds = dict(self.timeline.kinds())
            interval = float(getattr(self.timeline, "interval", 1.0))
        health_tail = self._journal_tail(tenant)

        manifest = {
            "version": BUNDLE_VERSION,
            "tenant": tenant,
            "reason": reason,
            "slug": slug,
            "round": round_no,
            "seq": seq,
            "context": context,
            "window": self._window(samples, round_no),
            "kept_ticks": kept_ticks,
            "spans": len(events),
            "timeline_samples": len(samples),
        }

        nbytes = 0
        nbytes += self._write_file(
            fsio, tmp / "incident.json", json.dumps(manifest, indent=2) + "\n"
        )
        nbytes += self._write_file(
            fsio,
            tmp / "spans.jsonl",
            "".join(json.dumps(e, sort_keys=True) + "\n" for e in events),
        )
        nbytes += self._write_file(
            fsio,
            tmp / "timeline.json",
            json.dumps(
                {
                    "interval": interval,
                    "kinds": kinds,
                    "samples": [[t, row] for t, row in samples],
                }
            )
            + "\n",
        )
        nbytes += self._write_file(
            fsio,
            tmp / "health.jsonl",
            "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in health_tail),
        )
        fsio.replace(tmp, final)
        return final, nbytes

    @staticmethod
    def _write_file(fsio, path: Path, payload: str) -> int:
        with path.open("w") as fh:
            fsio.write(fh, payload)
            fsio.fsync(fh)
        return len(payload.encode("utf-8"))

    def _journal_tail(self, tenant: str) -> List[dict]:
        """Last ``health_tail`` records of the tenant's health journal."""
        try:
            from repro.fleet.health import read_health_journal
        except ImportError:  # pragma: no cover - circular-import guard
            return []
        records = read_health_journal(self.journal_root, tenant)
        return records[-self.health_tail :]

    def _window(
        self,
        samples: Sequence[Tuple[float, Dict[str, float]]],
        round_no: int,
    ) -> dict:
        """Abnormal/normal bounds for :func:`explain_bundle`.

        The scheduler stamps timeline samples with the fleet round
        number, so when the trigger round falls inside the captured
        span the abnormal region starts *exactly* at the trigger and
        everything before it is the normal baseline — no pre-failure
        samples dilute the abnormal window.  When the trigger is
        outside the span (detached recorders, custom rings) the
        trailing quarter is marked abnormal instead.
        """
        window: dict = {"trigger_round": round_no, "abnormal": None, "normal": None}
        if len(samples) < 4:
            return window
        times = [t for t, _row in samples]
        split = None
        if times[0] < round_no <= times[-1]:
            anchored = next(
                i for i, t in enumerate(times) if t >= round_no
            )
            # need at least one baseline and one abnormal sample on
            # each side of the anchor
            if 1 <= anchored <= len(times) - 2:
                split = anchored
        if split is None:
            split = max(1, len(times) - max(2, len(times) // 4))
        window["normal"] = [times[0], times[split - 1]]
        window["abnormal"] = [times[split], times[-1]]
        return window

    def stats(self) -> dict:
        """Written/suppressed totals (for ``fleet status``)."""
        with self._lock:
            return {
                "bundles": sum(self._per_tenant.values()),
                "bytes": self._written_bytes,
                "tenants": len(self._per_tenant),
            }


# ----------------------------------------------------------------------
# Bundle reading
# ----------------------------------------------------------------------
def list_bundles(root_dir) -> List[Path]:
    """Every bundle directory under *root_dir*'s ``incidents/`` tree.

    *root_dir* may be the fleet root, the ``incidents/`` directory
    itself, or one tenant's incident directory; ordered by tenant then
    sequence.
    """
    root = Path(root_dir)
    if (root / "incidents").is_dir():
        root = root / "incidents"
    if not root.is_dir():
        return []
    if (root / "incident.json").is_file():
        return [root]
    bundles: List[Path] = []
    for child in sorted(root.iterdir()):
        if not child.is_dir() or child.name.startswith(".tmp-"):
            continue
        if (child / "incident.json").is_file():
            bundles.append(child)
        else:
            bundles.extend(
                sub
                for sub in sorted(child.iterdir())
                if sub.is_dir()
                and not sub.name.startswith(".tmp-")
                and (sub / "incident.json").is_file()
            )
    return bundles


def _read_jsonl(path: Path) -> List[dict]:
    """Parse a jsonl file, tolerating a torn tail."""
    if not path.is_file():
        return []
    records: List[dict] = []
    with path.open("r") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                break
    return records


def load_bundle(path) -> dict:
    """Load one bundle directory into a dict.

    Keys: ``manifest``, ``spans``, ``timeline`` (``None`` if absent or
    unreadable), ``health``.  Tolerates torn span/health tails — a
    bundle interrupted mid-write still yields its intact files.
    """
    bundle = Path(path)
    manifest_path = bundle / "incident.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"not an incident bundle: {bundle}")
    manifest = json.loads(manifest_path.read_text())
    timeline = None
    timeline_path = bundle / "timeline.json"
    if timeline_path.is_file():
        try:
            timeline = json.loads(timeline_path.read_text())
        except json.JSONDecodeError:
            timeline = None
    return {
        "path": bundle,
        "manifest": manifest,
        "spans": _read_jsonl(bundle / "spans.jsonl"),
        "timeline": timeline,
        "health": _read_jsonl(bundle / "health.jsonl"),
    }


def explain_bundle(path, sherlock=None):
    """Diagnose a bundle from its own retained metric timeline.

    Rebuilds the bundle's timeline as a rates dataset
    (:meth:`~repro.obs.metrics.TimelineRing.to_dataset`), regularises it, frames the manifest's abnormal/normal window
    as a :class:`~repro.data.regions.RegionSpec`, and runs
    ``DBSherlock.explain``.  Returns ``(explanation, dataset, spec)``.

    ``sherlock`` defaults to a fresh ``DBSherlock()`` (predicates only,
    no confidence); pass one loaded with causal models to rank causes.
    """
    from repro.core.explain import DBSherlock
    from repro.data.preprocess import regularize_dataset
    from repro.data.regions import RegionSpec
    from repro.obs.metrics import TimelineRing

    bundle = load_bundle(path)
    timeline = bundle["timeline"]
    if not timeline or len(timeline.get("samples", ())) < 2:
        raise ValueError(f"bundle has no usable timeline: {path}")
    window = bundle["manifest"].get("window") or {}
    if not window.get("abnormal"):
        raise ValueError(f"bundle window has no abnormal region: {path}")
    ring = TimelineRing.from_samples(
        [(float(t), dict(row)) for t, row in timeline["samples"]],
        kinds=timeline.get("kinds"),
        interval=float(timeline.get("interval", 1.0)),
    )
    dataset = ring.to_dataset(
        rates=True, name=f"incident:{bundle['manifest']['tenant']}"
    )
    dataset, _report = regularize_dataset(dataset)
    spec = RegionSpec.from_bounds(
        abnormal=[tuple(window["abnormal"])],
        normal=[tuple(window["normal"])] if window.get("normal") else None,
    )
    if sherlock is None:
        sherlock = DBSherlock()
    explanation = sherlock.explain(dataset, spec)
    return explanation, dataset, spec
