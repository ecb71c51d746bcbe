"""Write ``stream_checkpoint_v1.json``: a frozen StreamingDetector trace.

The committed JSON was produced by the per-stream detector that predates
the one-lane-fleet adapter; ``tests/test_stream.py`` replays it to prove
that checkpoints written by that detector restore unchanged and that the
same inputs still produce the same outputs and checkpoint bytes.

Run from the repository root (it overwrites the fixture)::

    PYTHONPATH=src python tests/fixtures/make_stream_checkpoint_v1.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.stream import StreamingDetector

OUT = Path(__file__).with_name("stream_checkpoint_v1.json")


def _rows(n, seed):
    """Two step anomalies, a stuck attribute, a categorical phase column."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        t = float(i + 1)
        step = 20.0 if 30 <= i < 40 else (-15.0 if 70 <= i < 77 else 0.0)
        numeric = {
            f"m{j}": float(10.0 + step + rng.normal(0, 0.3)) for j in range(3)
        }
        numeric["load"] = float(50.0 + rng.normal(0, 5.0))
        # exactly stuck from row 35 to 83, noisy otherwise
        numeric["flat"] = (
            5.0 if 35 <= i < 84 else float(5.0 + rng.normal(0, 1.0))
        )
        categorical = {"phase": "burst" if step else "steady"}
        rows.append([t, numeric, categorical])
    # degraded telemetry after the checkpoint
    rows[64][0] = rows[63][0]  # non-monotone: dropped
    del rows[66][1]["m1"]  # missing numeric cell
    rows[68][1]["load"] = None  # null cell (NaN)
    rows[71][2] = {}  # missing categorical cell
    rows[73][1]["extra"] = 1.0  # attribute outside the schema
    return rows


def _result(update):
    res = update.result
    return {
        "mask": "".join("1" if f else "0" for f in res.mask),
        "regions": [[r.start, r.end] for r in res.regions],
        "selected": list(res.selected_attributes),
        "eps": res.eps,
        "closed": [[r.start, r.end] for r in update.closed_regions],
        "reclustered": update.reclustered,
    }


def _trace(params, prefix, suffix):
    detector = StreamingDetector(**params)
    for t, numeric, categorical in prefix:
        detector.tick(t, numeric, categorical)
    case = {
        "params": params,
        "prefix": prefix,
        "checkpoint": detector.checkpoint(),
        "ticks": suffix,
        "outputs": [],
    }
    for t, numeric, categorical in suffix:
        case["outputs"].append(_result(detector.tick(t, numeric, categorical)))
    case["final_checkpoint"] = detector.checkpoint()
    return case


def main():
    rows = _rows(92, seed=2016)
    main_case = _trace(
        dict(
            capacity=60,
            window=8,
            min_region_s=2.0,
            gap_fill_s=3.0,
            quarantine_after=5,
        ),
        rows[:62],
        rows[62:],
    )
    assert main_case["checkpoint"]["quarantined"] == ["flat"]
    assert main_case["checkpoint"]["emitted_ends"]
    assert any(out["closed"] for out in main_case["outputs"])

    wide = _rows(92, seed=7)[20:50]  # spans the first step anomaly
    wide_case = _trace(dict(capacity=10, window=30), wide[:20], wide[20:])

    cat_rows = [
        [float(i + 1), {}, {"phase": "burst" if i % 4 else "steady"}]
        for i in range(14)
    ]
    cat_rows[9][0] = cat_rows[8][0]  # dropped
    cat_rows[11][2] = {}  # missing categorical cell
    cat_case = _trace(dict(capacity=8), cat_rows[:6], cat_rows[6:])

    OUT.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "main": main_case,
                "window_over_capacity": wide_case,
                "categorical_only": cat_case,
            },
            indent=1,
        )
        + "\n"
    )


if __name__ == "__main__":
    main()
