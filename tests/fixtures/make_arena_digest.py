"""Write ``arena_digest.json``: a frozen digest of a small fleet run.

A 64-tenant × 8-attribute :class:`~repro.fleet.engine.FleetDetector`
runs 300 ticks of :class:`~repro.fleet.sim.FleetSimSource` telemetry with
absent rows, NaN cells, stale timestamps and a stuck attribute, and is
checkpointed and rebuilt with ``from_checkpoints`` half way through.  The
digest covers every tick's Equation 4 powers, selected-attribute mask
and newly closed regions.  The committed JSON was produced by the
sorted-shift order-statistic bank that the rank-indexed bank replaced;
``tests/test_fleet.py`` recomputes the digest to prove the two banks
drive the engine to bitwise-identical verdicts.

Run from the repository root (it overwrites the fixture)::

    PYTHONPATH=src python tests/fixtures/make_arena_digest.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.fleet import FleetDetector, FleetSimSource

OUT = Path(__file__).with_name("arena_digest.json")

STREAMS = 64
ATTRS = [f"m{j}" for j in range(8)]
TICKS = 300
RESTORE_AT = 150
DETECTOR_KW = dict(
    capacity=60,
    window=10,
    pp_threshold=0.3,
    min_region_s=2.0,
    gap_fill_s=3.0,
    quarantine_after=6,
)


def _source():
    return FleetSimSource(
        STREAMS,
        ATTRS,
        seed=2016,
        anomaly_fraction=0.1,
        anomaly_period=45,
        anomaly_duration=8,
        absent_rate=0.05,
        nan_rate=0.01,
        drop_rate=0.02,
        stuck_streams=[3],
        stuck_attr="m5",
    )


def _tick_digest(tick) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(tick.powers, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(tick.selected, dtype=bool).tobytes())
    for s in sorted(tick.closed):
        for region in tick.closed[s]:
            h.update(repr((s, region.start, region.end)).encode())
    return h.hexdigest()


def run_digest() -> dict:
    """Per-tick digests of the reference run (restore included)."""
    detector = FleetDetector(STREAMS, ATTRS, **DETECTOR_KW)
    ticks = []
    closed = 0
    for t, (times, values, active) in enumerate(_source().take(TICKS)):
        if t == RESTORE_AT:
            states = [detector.stream_checkpoint(s) for s in range(STREAMS)]
            detector = FleetDetector.from_checkpoints(states)
        tick = detector.tick(times, values, active)
        closed += sum(len(r) for r in tick.closed.values())
        ticks.append(_tick_digest(tick))
    total = hashlib.sha256("".join(ticks).encode()).hexdigest()
    return {"digest": total, "closed_regions": closed, "ticks": ticks}


def main():
    digest = run_digest()
    assert digest["closed_regions"] > 0
    OUT.write_text(json.dumps(digest, indent=1) + "\n")


if __name__ == "__main__":
    main()
