"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 perfbench/run.py --workload fleet_incident --seed 1 \\
        --seconds 15 --trace 0

Run from the repository root.  The program is imported from ``src/``.
Every input is generated from ``--seed``.  ``--trace 0`` measures the
end-to-end metrics untraced; ``--trace 1`` is a separate run that adds
benchmark-side spans and reports the per-layer metrics.  The metric
names come from ``BENCHMARK.json``.

Output: a table of every metric with its unit and sample count, the
correctness gates, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(host fingerprint, commit, workload shape, phase times, gates, every
metric with its sample count) is written to
``perfbench/out/<workload>-seed<n>-trace<t>.json``; a traced run also
writes its spans to ``perfbench/out/spans-<workload>-seed<n>.jsonl``.
The exit code is 0 only when every gate passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet_steady", "fleet_incident", "dba_explain")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _table(title: str, metrics) -> list:
    lines = [title]
    for name, metric in metrics.items():
        lines.append(
            f"  {name:<42} {metric.value:>14.6g} {metric.unit:<6} "
            f"n={metric.n}"
        )
    return lines


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"program sources not found under {ROOT / 'src'}")
    if not spec_path.is_file():
        return _fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from common import LAYER_UNITS
    from env import provenance

    layer_spec = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layer_spec != LAYER_UNITS:
        return _fail(
            "BENCHMARK.json per_layer differs from common.LAYER_UNITS"
        )

    out_dir = HERE / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    started = time.time()
    try:
        if args.workload == "dba_explain":
            from dba import run_dba

            res = run_dba(args.seed, args.seconds, trace, workdir)
        else:
            from fleet import run_fleet

            res = run_fleet(
                args.workload, args.seed, args.seconds, trace, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    emitted = {}
    missing = []
    source = res.per_layer if trace else res.end_to_end
    for entry in wanted:
        metric = source.get(entry["name"])
        if metric is None or metric.unit != entry["unit"]:
            missing.append(entry["name"])
            continue
        emitted[entry["name"]] = {"value": metric.value, "unit": metric.unit}
    if missing:
        res.gate("metrics_complete", False, f"missing {missing}")
        res.attempted += 1
        res.failed += 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": started,
        **provenance(ROOT),
        "shape": res.shape,
        "phases_s": res.phases_s,
        "gates": [
            {"name": n, "passed": ok, "detail": d} for n, ok, d in res.gates
        ],
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit, "n": m.n}
            for name, m in {
                **res.named,
                **res.end_to_end,
                **(res.per_layer if trace else {}),
            }.items()
        },
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    record_path = (
        out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    record_path.write_text(json.dumps(record, indent=2), encoding="utf-8")

    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"shape={json.dumps(res.shape, sort_keys=True)}"
    ]
    lines += _table("workload metrics:", res.named)
    lines += _table(
        "per-layer metrics:" if trace else "end-to-end metrics:", source
    )
    lines.append("gates:")
    for name, ok, detail in res.gates:
        lines.append(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    lines.append(f"record: {record_path.relative_to(ROOT)}")
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": res.correct,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": emitted,
            }
        )
    )
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())
