"""Fleet flight-recorder bench: overhead, forensics fidelity, bounded storms.

Three legs, one contract per leg:

* **overhead** — the always-on flight recorder (tail-sampled spans,
  metric exemplars, per-round timeline sampling, armed incident
  recorder) must cost **< 3 %** amortized per stream tick against a
  recorder-off twin driven over the *same* materialized rounds, and the
  two fleets must produce identical tick outcomes.  A clean run writes
  **zero** incident bytes: the ``incidents/`` directory must not exist
  at all afterwards.
* **forensics** — two chaos profiles (a full disk degrading a durable
  tenant's WAL, and hanging diagnoses blowing through both deadline
  tiers) each trigger an incident bundle.  The bundles alone — no live
  fleet — train a knowledge base via :func:`repro.obs.incident.
  explain_bundle` + ``DBSherlock.feedback``; a *fresh* storage incident
  (different seed, different victim tenant) must then rank
  ``storage outage`` top-1, both through the library and through
  ``repro-sherlock obs incidents explain --models``.
* **storm** — repeated degrade/heal cycles across several tenants slam
  the incident recorder; bundle count and bytes must respect the
  per-tenant cap and global disk budget (overshoot bounded by one
  bundle), with suppressed snapshots counted, not dropped silently.

Results land in ``BENCH_obs_fleet.json`` at the repo root.  Run
standalone (``PERF_BENCH_SCALE=tiny`` is the CI smoke scale):

    python benchmarks/bench_obs_fleet.py

or via ``pytest benchmarks/ --benchmark-only`` (tiny scale, no JSON).
"""

from __future__ import annotations

import gc
import io
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # allow `python benchmarks/bench_obs_fleet.py`
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.cli import main as cli_main  # noqa: E402
from repro.core.explain import DBSherlock  # noqa: E402
from repro.data.dataset import Dataset  # noqa: E402
from repro.data.regions import Region  # noqa: E402
from repro.faults import DiagnosisHang  # noqa: E402
from repro.faults import fs as fsmod  # noqa: E402
from repro.faults.fs import FullDisk, StorageShim  # noqa: E402
from repro.fleet import FleetDetector, FleetSimSource  # noqa: E402
from repro.fleet.scheduler import FleetScheduler  # noqa: E402
from repro.obs import metrics  # noqa: E402
from repro.obs.flight import FlightRecorder  # noqa: E402
from repro.obs.incident import (  # noqa: E402
    IncidentRecorder,
    explain_bundle,
    list_bundles,
)

SCALES = {
    # CI smoke: a small fleet, the same contracts.
    "tiny": dict(
        overhead_tenants=40,
        overhead_rounds=40,
        trials=3,
        n_attrs=6,
        chaos_tenants=6,
        chaos_rounds=48,
        fault_round=28,
        heal_round=38,
        storm_rounds=60,
    ),
    # The recorded run.  ``overhead_tenants`` matches the chaos bench's
    # fleet scale so the recorder's fixed per-round cost amortizes over
    # the same number of stream ticks CI actually runs.
    "bench": dict(
        overhead_tenants=200,
        overhead_rounds=60,
        trials=6,
        n_attrs=8,
        chaos_tenants=8,
        chaos_rounds=48,
        fault_round=28,
        heal_round=38,
        storm_rounds=60,
    ),
}

#: Acceptance ceiling for the always-on recorder, per stream tick.
MAX_RECORDER_OVERHEAD = 0.03
#: The tiny CI smoke runs on a noisy shared box; gross-regression guard.
TINY_SLACK = 5.0


def _attrs(n: int):
    return [f"m{j:02d}" for j in range(n)]


def _names(n: int):
    return [f"t{i:02d}" for i in range(n)]


def _quiet_detector(n_streams: int, attrs):
    """A detector that never falls out on calm traffic (pp 0.9)."""
    return FleetDetector(
        n_streams, attrs, capacity=40, window=8, pp_threshold=0.9
    )


def _counter_sum(prefix: str) -> float:
    """Sum every flat-sample value whose name starts with *prefix*."""
    row, _kinds = metrics.REGISTRY.flat_sample()
    return sum(v for k, v in row.items() if k.startswith(prefix))


def _tick_signature(sched: FleetScheduler) -> tuple:
    report = sched.report
    return (
        report.rounds,
        report.stream_ticks,
        report.closed_regions,
        report.abnormal_verdicts,
        report.diagnoses,
    )


# ---------------------------------------------------------------------------
# Leg 1: recorder overhead + bitwise-absent incidents on a clean run
# ---------------------------------------------------------------------------
def run_overhead(scale: str) -> dict:
    """Recorder-on vs recorder-off, interleaved round by round.

    Both fleets replay the same materialized batches; within every
    round the two ``run_round`` calls execute back to back, so machine
    drift (thermal, co-tenant load) hits both modes equally.  Per-round
    times take the *minimum* across trials (one-sided noise can only
    inflate a duration) and the overhead is the ratio of the per-round
    minima *sums* — amortized, so the every-Nth-round timeline sample
    is charged to the recorder rather than hidden by a median.
    """
    from repro.obs import trace

    params = SCALES[scale]
    S = params["overhead_tenants"]
    R = params["overhead_rounds"]
    attrs = _attrs(params["n_attrs"])
    src = FleetSimSource(S, attrs, seed=7, anomaly_fraction=0.0)
    batches = [
        (times.copy(), values.copy(), active)
        for times, values, active in src.take(R)
    ]

    def make(recorder_on: bool, root: Path) -> FleetScheduler:
        kwargs = {}
        if recorder_on:
            kwargs = dict(
                flight=FlightRecorder(),
                incidents=IncidentRecorder(root),
                timeline_every=8,
            )
        return FleetScheduler(
            _quiet_detector(S, attrs),
            tenants=_names(S),
            sherlock=None,
            root_dir=root,
            label_metrics=False,
            **kwargs,
        )

    best = {"off": [float("inf")] * R, "on": [float("inf")] * R}
    signatures = []
    stream_ticks = 0
    gc_was_enabled = gc.isenabled()
    with tempfile.TemporaryDirectory(prefix="obs-fleet-oh-") as tmp:
        base = Path(tmp)
        # warm caches / first-touch costs
        warm = make(True, base / "warm")
        for batch in batches:
            warm.run_round(*batch)
        warm.close()
        # collector pauses triggered by one mode's allocations would be
        # charged to whichever round happens to run next — park the GC
        # so each round pays only its own cost
        gc.collect()
        gc.disable()
        try:
            for trial in range(params["trials"]):
                metrics.REGISTRY.reset()
                # alternate construction order: allocation layout
                # (arena placement, dict ordering) is sticky per object,
                # so always building one mode first would hand it a
                # systematic cache-locality edge across every trial
                if trial % 2 == 0:
                    off = make(False, base / f"off-{trial}")
                    on = make(True, base / f"on-{trial}")
                else:
                    on = make(True, base / f"on-{trial}")
                    off = make(False, base / f"off-{trial}")
                flight = on.forensics.flight
                for r, batch in enumerate(batches):
                    # alternate which mode runs first within the round
                    order = ("off", "on") if (trial + r) % 2 == 0 else (
                        "on", "off"
                    )
                    for mode in order:
                        # the flight recorder is a process-global trace
                        # sink: detach it for the recorder-off twin so the
                        # baseline truly runs untraced
                        if mode == "on":
                            if trace.get_recorder() is None:
                                trace.install(flight)
                            sched = on
                        else:
                            if trace.get_recorder() is not None:
                                trace.uninstall()
                            sched = off
                        t0 = time.perf_counter()
                        sched.run_round(*batch)
                        elapsed = time.perf_counter() - t0
                        if elapsed < best[mode][r]:
                            best[mode][r] = elapsed
                trace.install(flight)
                signatures.append(("off", _tick_signature(off)))
                signatures.append(("on", _tick_signature(on)))
                stream_ticks = on.report.stream_ticks
                off.close()
                on.close()
                incidents_dir = base / f"on-{trial}" / "incidents"
                assert not incidents_dir.exists(), (
                    "clean run wrote incident bundles: "
                    f"{list(incidents_dir.rglob('*'))}"
                )
        finally:
            if gc_was_enabled:
                gc.enable()

    first = signatures[0][1]
    for mode, signature in signatures[1:]:
        assert signature == first, (
            f"recorder changed tick outcomes ({mode}): "
            f"{signature} != {first}"
        )

    off_s = sum(best["off"])
    on_s = sum(best["on"])
    overhead = on_s / off_s - 1.0
    return {
        "fleet": {"tenants": S, "rounds": params["overhead_rounds"]},
        "stream_ticks": stream_ticks,
        "recorder_off_s": round(off_s, 4),
        "recorder_on_s": round(on_s, 4),
        "per_tick_off_us": round(off_s / stream_ticks * 1e6, 3),
        "per_tick_on_us": round(on_s / stream_ticks * 1e6, 3),
        "recorder_overhead": round(overhead, 4),
        "ceiling": MAX_RECORDER_OVERHEAD,
        "incidents_dir_absent": True,
    }


# ---------------------------------------------------------------------------
# Chaos drivers: one incident per profile
# ---------------------------------------------------------------------------
def _storage_incident_run(
    root: Path,
    params: dict,
    seed: int,
    victim_idx: int,
    incident_kw: dict = None,
    fault_cycles=None,
):
    """Drive a fleet with a durable tenant into a full-disk degrade.

    ``fault_cycles`` overrides the single fault/heal pair with an
    explicit per-round active mask callable (the storm leg's repeated
    degrade/heal churn).  Returns ``(scheduler, bundles)``.
    """
    metrics.REGISTRY.reset()
    S = params["chaos_tenants"]
    attrs = _attrs(params["n_attrs"])
    names = _names(S)
    victims = (
        [names[victim_idx]]
        if fault_cycles is None
        else [names[i] for i in fault_cycles["victims"]]
    )
    src = FleetSimSource(S, attrs, seed=seed, anomaly_fraction=0.0)
    faults = [
        FullDisk(path_filter=str(Path(root) / v / "ticks.wal"))
        for v in victims
    ]
    for fault in faults:
        fault.active = False
    kw = dict(min_rounds_between=4, timeline_window=48)
    kw.update(incident_kw or {})
    sched = FleetScheduler(
        _quiet_detector(S, attrs),
        tenants=names,
        sherlock=None,
        root_dir=root,
        durable=victims,
        fsync_every=1,
        storage_probe_every=2,
        label_metrics=False,
        flight=FlightRecorder(),
        incidents=IncidentRecorder(root, **kw),
        incident_capture_rounds=(
            6 if fault_cycles is None else fault_cycles["capture_rounds"]
        ),
        timeline_every=1,
    )
    rounds = (
        params["chaos_rounds"]
        if fault_cycles is None
        else params["storm_rounds"]
    )
    with fsmod.scoped_fs(StorageShim(faults)):
        for i, (times, values, active) in enumerate(src.take(rounds)):
            if fault_cycles is None:
                if i == params["fault_round"]:
                    faults[0].active = True
                if i == params["heal_round"]:
                    faults[0].active = False
            else:
                on = fault_cycles["mask"](i)
                for fault in faults:
                    fault.active = on
            sched.run_round(times, values, active)
        sched.drain()
        sched.close()
    return sched, list_bundles(root)


def _stall_incident_run(root: Path, params: dict):
    """Hang every diagnosis past both deadline tiers; shed + degrade."""
    metrics.REGISTRY.reset()
    S = params["chaos_tenants"]
    attrs = _attrs(params["n_attrs"])
    names = _names(S)
    hostile = names[:2]
    hang_s = 0.3
    hang = DiagnosisHang(hostile, hang_s=hang_s)
    sched = FleetScheduler(
        _quiet_detector(S, attrs),
        tenants=names,
        sherlock=hang.wrap(DBSherlock()),
        root_dir=root,
        diagnose_jobs=2,
        soft_deadline_s=0.05,
        hard_deadline_s=0.12,
        breaker_threshold=2,
        label_metrics=False,
        flight=FlightRecorder(),
        incidents=IncidentRecorder(
            root, min_rounds_between=2, timeline_window=48
        ),
        incident_capture_rounds=3,
        timeline_every=1,
    )
    rng = np.random.default_rng(3)

    def quiet_round(k: int) -> None:
        times = np.full(S, float(k + 1))
        values = rng.normal(50.0, 1.0, size=(S, len(attrs)))
        sched.run_round(times, values)

    def job_dataset(tenant: str) -> Dataset:
        rows = 40
        cols = {
            a: rng.normal(50.0 + 3 * i, 2.0, size=rows)
            for i, a in enumerate(attrs)
        }
        return Dataset(
            np.arange(rows, dtype=np.float64),
            numeric=cols,
            name=f"fleet:{tenant}",
        )

    for k in range(24):
        quiet_round(k)
    region = Region(5.0, 15.0)
    for tenant in hostile:
        s = names.index(tenant)
        for _ in range(2):  # 2 == diagnose_jobs: tenant-pure batches
            sched.submit_diagnosis(s, region, dataset=job_dataset(tenant))
    # deadline enforcement runs on the tick thread: keep ticking while
    # the hung batches age through the soft then hard tier
    for k in range(24, 40):
        time.sleep(0.02)
        quiet_round(k)
    sched.drain()
    time.sleep(hang_s * 2 + 0.3)  # let zombie workers self-report
    sched.close()
    return sched, list_bundles(root)


def _pick_bundle(bundles, needle: str) -> Path:
    for bundle in bundles:
        manifest = json.loads((bundle / "incident.json").read_text())
        if needle in manifest.get("reason", ""):
            return bundle
    raise AssertionError(
        f"no bundle with reason containing {needle!r} among "
        f"{[b.name for b in bundles]}"
    )


# ---------------------------------------------------------------------------
# Leg 2: incident forensics close the diagnosis loop
# ---------------------------------------------------------------------------
def run_forensics(scale: str, artifact_dir: Path = None) -> dict:
    params = SCALES[scale]
    with tempfile.TemporaryDirectory(prefix="obs-fleet-fx-") as tmp:
        base = Path(tmp)

        # Stall profile first: its labeled deadline/shed instruments are
        # then registered for every later run, so all timelines share
        # one attribute schema.
        stall_sched, stall_bundles = _stall_incident_run(
            base / "stall", params
        )
        assert stall_sched.report.deadline_misses > 0, (
            "stall profile never missed a deadline"
        )
        stall_bundle = _pick_bundle(stall_bundles, "deadline")

        train_sched, train_bundles = _storage_incident_run(
            base / "train", params, seed=2016, victim_idx=0
        )
        train_bundle = _pick_bundle(train_bundles, "durability degraded")

        # Train a knowledge base from the bundles alone — no live fleet.
        kb = DBSherlock()
        explanation, dataset, _spec = explain_bundle(
            stall_bundle, sherlock=kb
        )
        kb.feedback("diagnosis stall", explanation, dataset)
        explanation, dataset, _spec = explain_bundle(
            train_bundle, sherlock=kb
        )
        kb.feedback("storage outage", explanation, dataset)
        models_path = base / "incident_models.json"
        kb.save_models(models_path)

        # Fresh incident: different seed, different victim tenant.
        _eval_sched, eval_bundles = _storage_incident_run(
            base / "eval", params, seed=97, victim_idx=2
        )
        eval_bundle = _pick_bundle(eval_bundles, "durability degraded")

        eval_kb = DBSherlock()
        eval_kb.load_models(models_path)
        explanation, dataset, _spec = explain_bundle(
            eval_bundle, sherlock=eval_kb
        )
        assert explanation.causes, "eval bundle ranked no causes"
        top_cause, top_confidence = explanation.causes[0]
        assert top_cause == "storage outage", (
            f"injected storage outage not ranked top-1: {explanation.causes}"
        )

        # The same replay through the CLI surface.
        buf = io.StringIO()
        rc = cli_main(
            [
                "obs",
                "incidents",
                "explain",
                str(eval_bundle),
                "--models",
                str(models_path),
            ],
            out=buf,
        )
        cli_text = buf.getvalue()
        assert rc == 0, f"CLI explain failed:\n{cli_text}"
        assert "top cause: storage outage" in cli_text, cli_text

        if artifact_dir is not None:
            dest = Path(artifact_dir) / "incident_bundle" / eval_bundle.name
            if dest.exists():
                shutil.rmtree(dest)
            shutil.copytree(eval_bundle, dest)

        confidences = {cause: conf for cause, conf in explanation.causes}
        return {
            "bundles": {
                "stall": stall_bundle.name,
                "train": train_bundle.name,
                "eval": eval_bundle.name,
            },
            "causes": [
                [cause, round(conf, 2)] for cause, conf in explanation.causes
            ],
            "top_cause": top_cause,
            "top_confidence": round(top_confidence, 2),
            "margin": round(
                top_confidence
                - max(
                    (c for k, c in confidences.items() if k != top_cause),
                    default=0.0,
                ),
                2,
            ),
            "cli_top1": True,
        }


# ---------------------------------------------------------------------------
# Leg 3: bundle volume stays bounded under an incident storm
# ---------------------------------------------------------------------------
def run_storm(scale: str) -> dict:
    params = SCALES[scale]
    caps = dict(
        max_bundles_per_tenant=1,
        max_total_bytes=96 * 1024,
        min_rounds_between=4,
        timeline_window=12,
        health_tail=8,
    )
    cycles = dict(
        victims=[0, 1, 2],
        capture_rounds=2,
        # 12 warm rounds, then 6-on/6-off full-disk churn: every cycle
        # re-degrades (and re-promotes) all three durable victims.
        mask=lambda i: i >= 12 and (i // 6) % 2 == 0,
    )
    with tempfile.TemporaryDirectory(prefix="obs-fleet-storm-") as tmp:
        root = Path(tmp)
        sched, bundles = _storage_incident_run(
            root,
            params,
            seed=11,
            victim_idx=0,
            incident_kw=caps,
            fault_cycles=cycles,
        )
        stats = sched.forensics.incidents.stats()
        skipped = _counter_sum("repro_incident_skipped_total")
        disk_bytes = sum(
            f.stat().st_size
            for bundle in bundles
            for f in bundle.rglob("*")
            if f.is_file()
        )
        largest = max(
            (
                sum(
                    f.stat().st_size
                    for f in bundle.rglob("*")
                    if f.is_file()
                )
                for bundle in bundles
            ),
            default=0,
        )

    n_victims = len(cycles["victims"])
    assert bundles, "storm produced no incident bundles at all"
    assert len(bundles) <= n_victims * caps["max_bundles_per_tenant"], (
        f"{len(bundles)} bundles exceed the per-tenant cap"
    )
    # the budget check is pre-write, so overshoot is at most one bundle
    assert stats["bytes"] <= caps["max_total_bytes"] + largest, (
        f"bundle bytes {stats['bytes']} blew the "
        f"{caps['max_total_bytes']}B budget (+1 bundle slack)"
    )
    assert skipped > 0, "storm never tripped a limiter; caps untested"
    return {
        "degrade_cycles": 4,
        "victim_tenants": n_victims,
        "bundles_written": len(bundles),
        "bundle_bytes": stats["bytes"],
        "disk_bytes": disk_bytes,
        "snapshots_suppressed": int(skipped),
        "caps": {
            "per_tenant": caps["max_bundles_per_tenant"],
            "total_bytes": caps["max_total_bytes"],
            "min_rounds_between": caps["min_rounds_between"],
        },
    }


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------
def run_bench(
    scale: str = "bench", write_json: bool = True, artifact_dir=None
) -> dict:
    t0 = time.perf_counter()
    summary = {
        "scale": scale,
        "overhead": run_overhead(scale),
        "forensics": run_forensics(scale, artifact_dir=artifact_dir),
        "storm": run_storm(scale),
    }
    metrics.REGISTRY.reset()
    summary["wall_s"] = round(time.perf_counter() - t0, 2)
    if write_json:
        out = _REPO_ROOT / "BENCH_obs_fleet.json"
        out.write_text(json.dumps(summary, indent=2) + "\n")
        summary["json"] = str(out)
    return summary


def _report(summary: dict) -> None:
    oh = summary["overhead"]
    fx = summary["forensics"]
    st = summary["storm"]
    print(f"\n=== obs fleet bench ({summary['scale']} scale) ===")
    print(
        f"overhead: {oh['fleet']['tenants']} tenants x "
        f"{oh['fleet']['rounds']} rounds, "
        f"{oh['per_tick_off_us']}us -> {oh['per_tick_on_us']}us per stream "
        f"tick ({oh['recorder_overhead']:+.2%}, ceiling "
        f"{oh['ceiling']:.0%}); clean run wrote no incidents"
    )
    print(
        f"forensics: eval bundle {fx['bundles']['eval']} -> "
        f"top cause {fx['top_cause']!r} "
        f"(confidence {fx['top_confidence']}, margin {fx['margin']}); "
        f"CLI replay agrees"
    )
    print(
        f"storm: {st['bundles_written']} bundles / "
        f"{st['bundle_bytes']}B written, "
        f"{st['snapshots_suppressed']} snapshots suppressed "
        f"(caps: {st['caps']['per_tenant']}/tenant, "
        f"{st['caps']['total_bytes']}B total)"
    )
    print(f"wall: {summary['wall_s']}s")


def _check(summary: dict) -> None:
    slack = 1.0 if summary["scale"] == "bench" else TINY_SLACK
    overhead = summary["overhead"]["recorder_overhead"]
    assert overhead <= MAX_RECORDER_OVERHEAD * slack, (
        f"always-on recorder overhead {overhead:.2%} exceeds the "
        f"{MAX_RECORDER_OVERHEAD * slack:.0%} ceiling"
    )
    assert summary["forensics"]["top_cause"] == "storage outage"
    assert summary["storm"]["snapshots_suppressed"] > 0


def test_obs_fleet(benchmark):
    summary = benchmark.pedantic(
        lambda: run_bench("tiny", write_json=False), rounds=1, iterations=1
    )
    _report(summary)
    _check(summary)


if __name__ == "__main__":
    chosen = os.environ.get("PERF_BENCH_SCALE", "bench")
    artifacts = Path(
        os.environ.get("OBS_ARTIFACT_DIR", _REPO_ROOT / "obs_artifacts")
    )
    bench_summary = run_bench(chosen, artifact_dir=artifacts)
    _report(bench_summary)
    _check(bench_summary)
    print(f"wrote {bench_summary['json']}")
