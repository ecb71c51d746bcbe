"""Storage chaos bench: fleet durability under a hostile filesystem.

Drives the fleet with the ``thrash`` storage-fault profile
(:data:`repro.eval.chaos.STORAGE_PROFILES`) — full disks, torn renames,
rotting reads — underneath a slice of its durable tenants, and asserts
the durability contract the storage tentpole claims, in four legs:

* **idle shim** — with the fault-injecting storage shim installed but
  carrying zero faults, two clean-disk runs produce *bitwise identical*
  durable artifacts (WAL segments, checkpoint generations, health
  journals), whether the default process shim or a freshly scoped one
  handled the I/O: the shim at rest costs nothing and changes nothing;
* **disk chaos** — a fleet whose disks fill (ENOSPC), whose checkpoint
  renames tear, and whose reads rot is driven to the heal round and
  beyond: zero uncaught exceptions escape ``run_round``, every
  degraded tenant re-promotes after the heal, every degrade/re-promote
  transition lands in the health journal, per-tenant WAL retention
  stays under ``max_wal_bytes_per_tenant`` (including the tenant whose
  *lane* is poisoned and therefore never advances its checkpoint
  mark), and recovery under still-rotting reads skips-and-reports
  instead of raising;
* **crash durability** — the process dies with the page cache: every
  active segment is truncated to its last fsynced offset.  No
  acknowledged-durable tick may be lost, the unacknowledged window
  must be smaller than ``fsync_every``, and replay of the truncated
  logs must report zero corrupt records (fsync offsets are record
  boundaries);
* **generation fallback** — the *current* checkpoint generation of a
  tenant slice is rotted on disk; recovery must fall back to the
  previous generation (counted in
  ``repro_storage_checkpoint_fallbacks_total``), replay the longer WAL
  tail the retention mark kept for exactly this case, and restore the
  victims *bitwise* equal to their pre-crash state.

Results land in ``BENCH_storage_chaos.json`` at the repo root.  Run
standalone (``PERF_BENCH_SCALE=tiny`` is the CI smoke scale):

    python benchmarks/bench_storage_chaos.py

or via ``pytest benchmarks/ --benchmark-only`` (tiny scale, no JSON).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # allow `python benchmarks/bench_storage_chaos.py`
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.eval.chaos import STORAGE_PROFILES  # noqa: E402
from repro.faults import (  # noqa: E402
    CorruptTenantState,
    LaneExceptionFault,
)
from repro.faults import fs as fsmod  # noqa: E402
from repro.faults.fs import StorageShim  # noqa: E402
from repro.fleet import FleetDetector, FleetSimSource  # noqa: E402
from repro.fleet.health import read_health_journal  # noqa: E402
from repro.fleet.scheduler import FleetScheduler  # noqa: E402
from repro.obs import metrics  # noqa: E402
from repro.stream.wal import TickWAL  # noqa: E402

SCALES = {
    # CI smoke: a small fleet, but the same fault profile, heal cycle,
    # and durability assertions as the recorded run.
    "tiny": dict(
        n_tenants=12,
        n_attrs=5,
        rounds=48,
        checkpoint_every=12,
        fsync_every=4,
        segment_bytes=4096,
        max_wal_bytes=64 * 1024,
        heal_round=30,
    ),
    # The recorded run.
    "bench": dict(
        n_tenants=40,
        n_attrs=6,
        rounds=120,
        checkpoint_every=15,
        fsync_every=8,
        segment_bytes=16384,
        max_wal_bytes=256 * 1024,
        heal_round=80,
    ),
}

# The chaos leg uses the hot storm detector configuration from
# bench_fleet_chaos.py so lanes actually fall out (the poisoned-lane
# retention check needs a lane fault to fire mid-fallout).
STORM_KW = dict(
    capacity=40,
    window=8,
    pp_threshold=0.3,
    min_pts=3,
    cluster_fraction=0.2,
    min_region_s=2.0,
    gap_fill_s=3.0,
)


def _counter(name: str, **labels) -> float:
    """Current value of a process-wide counter (0 if never touched)."""
    metric = metrics.REGISTRY.counter(name, labelnames=tuple(labels))
    return (metric.labels(**labels) if labels else metric).value


def _names(params: dict) -> tuple:
    attrs = [f"m{j}" for j in range(params["n_attrs"])]
    tenants = [f"t{i:04d}" for i in range(params["n_tenants"])]
    return attrs, tenants


def _build_fleet(params: dict, root: Path, tenants, attrs, **overrides):
    kw = dict(
        tenants=tenants,
        root_dir=root,
        durable=tenants,
        checkpoint_every=params["checkpoint_every"],
        fsync_every=params["fsync_every"],
        wal_segment_bytes=params["segment_bytes"],
        max_wal_bytes_per_tenant=params["max_wal_bytes"],
        storage_backoff_s=0.0,
        storage_probe_every=4,
        label_metrics=False,
    )
    detector_kw = overrides.pop("detector_kw", {})
    kw.update(overrides)
    return FleetScheduler(
        FleetDetector(len(tenants), attrs, **detector_kw), **kw
    )


def _durable_digest(root: Path) -> dict:
    """SHA-256 of every durable artifact under *root*, by relative path."""
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return out


# ---------------------------------------------------------------------------
# Leg 1: the idle shim is free
# ---------------------------------------------------------------------------
def run_idle_shim(scale: str) -> dict:
    params = SCALES[scale]
    attrs, tenants = _names(params)

    def one_run(fresh_shim: bool) -> dict:
        src = FleetSimSource(
            len(tenants), attrs, seed=2016, anomaly_fraction=0.0
        )
        with tempfile.TemporaryDirectory(prefix="storage-idle-") as tmp:
            root = Path(tmp)
            shim = StorageShim() if fresh_shim else fsmod.get_fs()
            with fsmod.scoped_fs(shim):
                sched = _build_fleet(params, root, tenants, attrs)
                for times, values, active in src.take(params["rounds"]):
                    sched.run_round(times, values, active)
                sched.drain()
                sched.close()
            return _durable_digest(root)

    t0 = time.perf_counter()
    default_run = one_run(fresh_shim=False)
    scoped_run = one_run(fresh_shim=True)
    wall_s = time.perf_counter() - t0
    identical = default_run == scoped_run
    assert identical, (
        "durable artifacts diverge between the default idle shim and a "
        "freshly scoped idle shim: "
        + str(
            {
                k: (default_run.get(k), scoped_run.get(k))
                for k in set(default_run) ^ set(scoped_run)
                | {
                    k
                    for k in set(default_run) & set(scoped_run)
                    if default_run[k] != scoped_run[k]
                }
            }
        )
    )
    return {
        "bitwise_identical": identical,
        "artifacts": len(default_run),
        "wall_s": round(wall_s, 3),
    }


# ---------------------------------------------------------------------------
# Leg 2: disk chaos — degrade, journal, heal, re-promote, stay bounded
# ---------------------------------------------------------------------------
def run_disk_chaos(scale: str) -> dict:
    params = SCALES[scale]
    attrs, tenants = _names(params)
    profile = STORAGE_PROFILES["thrash"]
    roles = profile.assign(tenants, seed=13)
    index_of = {name: i for i, name in enumerate(tenants)}
    # poison one *clean-disk* tenant's detection lane: its checkpoint
    # mark never advances, so only whole-segment compaction bounds it
    lane_tenant = roles["clean"][0]

    marks = {
        name: _counter(name)
        for name in (
            "repro_storage_retries_total",
            "repro_storage_degraded_transitions_total",
            "repro_storage_repromotions_total",
            "repro_storage_write_errors_total",
        )
    }
    src = FleetSimSource(
        len(tenants),
        attrs,
        seed=2016,
        anomaly_fraction=1.0,
        anomaly_period=25,
        anomaly_duration=16,
        anomaly_scale=14.0,
    )
    summary: dict = {"profile": profile.name, "roles": {
        k: len(v) if k in ("flaky", "clean") else v for k, v in roles.items()
    }}
    with tempfile.TemporaryDirectory(prefix="storage-chaos-") as tmp:
        root = Path(tmp)
        faults = profile.build(root, roles, seed=13)
        lane_fault = LaneExceptionFault(
            [index_of[lane_tenant]], after_fallouts=1
        )
        errors = []
        t0 = time.perf_counter()
        with fsmod.scoped_fs(StorageShim(faults)):
            sched = _build_fleet(
                params, root, tenants, attrs, detector_kw=STORM_KW
            )
            sched.detector.install_lane_fault(lane_fault)
            for round_no, (times, values, active) in enumerate(
                src.take(params["rounds"])
            ):
                if round_no == params["heal_round"]:
                    for fault in faults:
                        fault.active = False  # the disks heal
                try:
                    sched.run_round(times, values, active)
                except Exception:
                    errors.append(traceback.format_exc(limit=4))
            sched.drain()
            sched.checkpoint()  # final marks + compaction + gauges
        chaos_s = time.perf_counter() - t0

        assert not errors, (
            f"disk chaos escaped run_round ({len(errors)} raised):\n"
            f"{errors[0]}"
        )
        # every degraded tenant re-promoted once its disk healed
        still_degraded = [
            t for t in tenants if sched.durability_mode(t) == "degraded"
        ]
        assert not still_degraded, f"never re-promoted: {still_degraded}"
        stranded = {
            t: len(managed.buffer)
            for t, managed in sched.durability.items()
            if managed.buffer
        }
        assert not stranded, f"volatile ticks stranded: {stranded}"
        degrade_counts = {
            t: sched.durability[t].degraded_count for t in tenants
        }
        repromote_counts = {
            t: sched.durability[t].repromoted_count for t in tenants
        }
        assert degrade_counts[roles["full_disk"][0]] >= 1, (
            "the full-disk tenant never degraded — the fault never bit"
        )
        assert degrade_counts == repromote_counts

        # WAL retention bounded for every tenant, poisoned lane included
        wal_bytes = sched.wal_bytes()
        over = {
            t: b
            for t, b in wal_bytes.items()
            if b > params["max_wal_bytes"]
        }
        assert not over, f"WAL retention exceeds the cap: {over}"
        assert index_of[lane_tenant] in {
            int(s) for s in np.nonzero(sched.detector.poisoned)[0]
        }, "the lane fault never fired — poisoned retention went untested"
        assert wal_bytes[lane_tenant] > 0
        sched.close()

        # every storage degrade/re-promote transition is in the journal
        journal_pairs = 0
        for t in tenants:
            if t == lane_tenant:
                continue  # quarantined: storage transitions suppressed
            records = read_health_journal(root, t)
            downs = [
                r
                for r in records
                if r["to"] == "degraded"
                and str(r["reason"]).startswith("storage:")
            ]
            ups = [
                r
                for r in records
                if r["to"] == "healthy"
                and str(r["reason"]).startswith("storage:")
            ]
            assert len(downs) == degrade_counts[t], (
                f"{t}: {degrade_counts[t]} degrades, "
                f"{len(downs)} journaled"
            )
            assert len(ups) == repromote_counts[t], (
                f"{t}: {repromote_counts[t]} re-promotions, "
                f"{len(ups)} journaled"
            )
            journal_pairs += len(downs)

        # recovery under still-rotting reads: skip-and-report, no raise
        for fault in faults:
            fault.active = True
        with fsmod.scoped_fs(StorageShim(faults)):
            recovered = FleetScheduler.recover(
                root, tenants, label_metrics=False
            )
        rec_report = recovered.recovery_report
        assert rec_report is not None
        accounted = {o.tenant for o in rec_report.outcomes}
        assert accounted == set(tenants), (
            f"recovery lost track of {set(tenants) - accounted}"
        )
        recovered.close()

    deltas = {
        name.split("repro_storage_")[1].replace("_total", ""): (
            _counter(name) - before
        )
        for name, before in marks.items()
    }
    assert deltas["retries"] > 0, "no transient error was ever retried"
    assert deltas["degraded_transitions"] >= 1
    assert deltas["degraded_transitions"] == deltas["repromotions"]
    summary.update(
        {
            "uncaught_exceptions": len(errors),
            "chaos_wall_s": round(chaos_s, 3),
            "faults_fired": int(sum(f.fired for f in faults)),
            "degraded_transitions": int(deltas["degraded_transitions"]),
            "repromotions": int(deltas["repromotions"]),
            "retries": int(deltas["retries"]),
            "write_errors": int(deltas["write_errors"]),
            "journaled_degrade_pairs": journal_pairs,
            "max_wal_bytes": max(wal_bytes.values()),
            "wal_cap": params["max_wal_bytes"],
            "poisoned_lane_tenant": lane_tenant,
            "poisoned_lane_wal_bytes": wal_bytes[lane_tenant],
            "rotten_recovery_outcomes": {
                "recovered": len(rec_report.recovered),
                "corrupt": len(rec_report.corrupt),
                "missing": len(rec_report.missing),
                "replay_failed": len(rec_report.failed),
            },
        }
    )
    return summary


# ---------------------------------------------------------------------------
# Leg 3: crash durability — lose the page cache, keep every acked tick
# ---------------------------------------------------------------------------
def run_crash_durability(scale: str) -> dict:
    params = SCALES[scale]
    attrs, tenants = _names(params)
    src = FleetSimSource(len(tenants), attrs, seed=7, anomaly_fraction=0.0)
    # a couple of rounds past the last fsync boundary, so the crash
    # actually catches an open (unacknowledged) batch window
    rounds = list(
        src.take(params["rounds"] + max(1, params["fsync_every"] // 2))
    )
    with tempfile.TemporaryDirectory(prefix="storage-crash-") as tmp:
        root = Path(tmp)
        # one mid-run checkpoint; everything after it lives in the WALs
        sched = _build_fleet(
            params,
            root,
            tenants,
            attrs,
            checkpoint_every=params["rounds"] // 2,
        )
        for times, values, active in rounds:
            sched.run_round(times, values, active)
        sched.drain()

        windows, positions = {}, {}
        for t in tenants:
            wal = sched.durability[t].wal
            windows[t] = (wal.appended, wal.durable_appended)
            positions[t] = wal.durable_position()
            assert 0 <= wal.appended - wal.durable_appended < params[
                "fsync_every"
            ], f"{t}: acked-durability window exceeds fsync_every"

        # power loss: no clean close — drop every handle, then truncate
        # each active segment to its last fsynced offset (the page
        # cache dies with the process)
        sched.executor.close()
        sched.health.close()
        for t in tenants:
            sched.durability[t].wal._fh.close()
            active_seg, durable_offset = positions[t]
            os.truncate(active_seg, durable_offset)

        for t in tenants:
            reader = TickWAL(root / t / "ticks.wal")
            _, report = reader.replay_report()
            reader.close()
            # fsync offsets are record boundaries: truncating there can
            # tear nothing, and every record that was ever fsynced — on
            # rotated segments or the active prefix — replays intact
            assert report.corrupt_records == 0, (
                f"{t}: {report.corrupt_records} corrupt records after a "
                "boundary truncation"
            )
            assert not report.torn_tail, f"{t}: torn tail at fsync offset"

        recovered = FleetScheduler.recover(root, tenants, label_metrics=False)
        rec_report = recovered.recovery_report
        assert rec_report.recovered == tenants, (
            f"crash recovery skipped {set(tenants) - set(rec_report.recovered)}"
        )
        # every acknowledged-durable tick reached the recovered detector:
        # its per-stream clock sits exactly on the last fsynced tick
        lost_acked = 0
        for t in tenants:
            s = recovered.tenants.index(t)
            _, durable = windows[t]
            expected = float(rounds[durable - 1][0][s])
            got = float(recovered.detector.last_time[s])
            if got != expected:
                lost_acked += 1
        assert lost_acked == 0, (
            f"{lost_acked} tenants lost acknowledged-durable ticks "
            "across the crash"
        )
        # the recovered fleet keeps ticking
        post_errors = []
        for times, values, active in src.take(5):
            try:
                recovered.run_round(times, values, active)
            except Exception:
                post_errors.append(traceback.format_exc(limit=4))
        assert not post_errors, post_errors[0]
        replay_total = sum(
            o.replayed_ticks for o in rec_report.outcomes
        )
        recovered.close()

    max_window = max(a - d for a, d in windows.values())
    return {
        "tenants": len(tenants),
        "fsync_every": params["fsync_every"],
        "max_unacked_window": int(max_window),
        "acked_durable_ticks_lost": int(lost_acked),
        "corrupt_after_crash": 0,  # asserted per tenant above
        "replayed_ticks": int(replay_total),
    }


# ---------------------------------------------------------------------------
# Leg 4: generation fallback — rot the current checkpoint, recover bitwise
# ---------------------------------------------------------------------------
def run_generation_fallback(scale: str) -> dict:
    params = SCALES[scale]
    attrs, tenants = _names(params)
    victims = tenants[::4]
    src = FleetSimSource(len(tenants), attrs, seed=29, anomaly_fraction=0.0)
    with tempfile.TemporaryDirectory(prefix="storage-gen-") as tmp:
        root = Path(tmp)
        sched = _build_fleet(params, root, tenants, attrs)
        for times, values, active in src.take(params["rounds"]):
            sched.run_round(times, values, active)
        sched.drain()
        assert sched.report.checkpoints >= 2 * len(tenants), (
            "the fallback leg needs at least two checkpoint generations"
        )
        reference = {
            t: sched.detector.stream_checkpoint(sched.tenants.index(t))
            for t in tenants
        }
        sched.close()

        fallbacks_before = _counter(
            "repro_storage_checkpoint_fallbacks_total"
        )
        rotted = CorruptTenantState(victims, mode="generation").apply(root)
        assert rotted == victims
        recovered = FleetScheduler.recover(root, tenants, label_metrics=False)
        rec_report = recovered.recovery_report
        fallbacks = (
            _counter("repro_storage_checkpoint_fallbacks_total")
            - fallbacks_before
        )
        assert fallbacks == len(victims), (
            f"{fallbacks} generation fallbacks for {len(victims)} rotted "
            "current checkpoints"
        )
        # nobody is reported corrupt: the previous generation carried them
        assert rec_report.recovered == tenants, (
            f"fallback recovery skipped "
            f"{set(tenants) - set(rec_report.recovered)}"
        )
        replayed = {
            o.tenant: o.replayed_ticks for o in rec_report.outcomes
        }
        for t in tenants:
            got = recovered.detector.stream_checkpoint(
                recovered.tenants.index(t)
            )
            assert got == reference[t], (
                f"{t}: recovered state diverges from pre-crash state"
                + (" (victim)" if t in victims else "")
            )
            if t in victims:
                # the retention mark kept the previous generation's
                # replay window: victims re-tick the last interval
                assert replayed[t] > 0, f"{t}: no WAL tail replayed"
            else:
                assert replayed[t] == 0, (
                    f"{t}: clean tenant unexpectedly replayed "
                    f"{replayed[t]} ticks"
                )
        recovered.close()

    return {
        "tenants": len(tenants),
        "victims": victims,
        "generation_fallbacks": int(fallbacks),
        "victim_replayed_ticks": {t: int(replayed[t]) for t in victims},
        "bitwise_recovered": True,  # the assertions above would have raised
    }


# ---------------------------------------------------------------------------
def run_storage_bench(scale: str = "bench", write_json: bool = True) -> dict:
    summary = {
        "scale": scale,
        "idle_shim": run_idle_shim(scale),
        "disk_chaos": run_disk_chaos(scale),
        "crash_durability": run_crash_durability(scale),
        "generation_fallback": run_generation_fallback(scale),
    }
    if write_json:
        out = _REPO_ROOT / "BENCH_storage_chaos.json"
        out.write_text(json.dumps(summary, indent=2) + "\n")
        summary["json"] = str(out)
    return summary


def _report(summary: dict) -> None:
    print(f"\n=== storage chaos bench ({summary['scale']} scale) ===")
    idle = summary["idle_shim"]
    print(
        f"idle shim         {idle['artifacts']} durable artifacts "
        f"bitwise-identical across default/scoped idle shims: "
        f"{idle['bitwise_identical']}"
    )
    chaos = summary["disk_chaos"]
    print(
        f"disk chaos        profile '{chaos['profile']}': "
        f"{chaos['faults_fired']} faults fired, "
        f"{chaos['retries']} retries, "
        f"{chaos['degraded_transitions']} degraded / "
        f"{chaos['repromotions']} re-promoted "
        f"({chaos['journaled_degrade_pairs']} journaled), "
        f"uncaught exceptions: {chaos['uncaught_exceptions']}"
    )
    print(
        f"wal retention     max {chaos['max_wal_bytes']} B of "
        f"{chaos['wal_cap']} B cap (poisoned lane "
        f"{chaos['poisoned_lane_tenant']}: "
        f"{chaos['poisoned_lane_wal_bytes']} B)"
    )
    crash = summary["crash_durability"]
    print(
        f"crash durability  {crash['tenants']} tenants, window "
        f"{crash['max_unacked_window']} < fsync_every "
        f"{crash['fsync_every']}, acked-durable ticks lost: "
        f"{crash['acked_durable_ticks_lost']}, "
        f"{crash['replayed_ticks']} ticks replayed"
    )
    gen = summary["generation_fallback"]
    print(
        f"generation fall   {gen['generation_fallbacks']} fallbacks for "
        f"{len(gen['victims'])} rotted tenants, bitwise recovered: "
        f"{gen['bitwise_recovered']}"
    )


def _check(summary: dict) -> None:
    assert summary["idle_shim"]["bitwise_identical"]
    chaos = summary["disk_chaos"]
    assert chaos["uncaught_exceptions"] == 0
    assert chaos["retries"] > 0
    assert chaos["degraded_transitions"] >= 1
    assert chaos["degraded_transitions"] == chaos["repromotions"]
    assert chaos["max_wal_bytes"] <= chaos["wal_cap"]
    crash = summary["crash_durability"]
    assert crash["acked_durable_ticks_lost"] == 0
    assert crash["max_unacked_window"] < crash["fsync_every"]
    assert crash["corrupt_after_crash"] == 0
    gen = summary["generation_fallback"]
    assert gen["generation_fallbacks"] == len(gen["victims"])
    assert gen["bitwise_recovered"]


def test_storage_chaos(benchmark):
    summary = benchmark.pedantic(
        lambda: run_storage_bench("tiny", write_json=False),
        rounds=1,
        iterations=1,
    )
    _report(summary)
    _check(summary)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--scale",
        default=os.environ.get("PERF_BENCH_SCALE", "bench"),
        choices=sorted(SCALES),
    )
    cli = parser.parse_args()
    bench_summary = run_storage_bench(cli.scale)
    _report(bench_summary)
    _check(bench_summary)
    print(f"wrote {bench_summary['json']}")
