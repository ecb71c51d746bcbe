"""Figure 7 — margin of confidence and F1 of single causal models.

Paper protocol (Section 8.3): for each of the 110 datasets, build a causal
model with θ=0.2 from that dataset alone and compute its confidence on the
other 109; the correct model must outrank the 9 incorrect-cause models.
Reported: per-cause average margin of confidence (correct minus best
incorrect) and the correct model's average predicate F1.

Paper result: the correct cause ranks first in all 10 test cases with an
average margin of 13.5 %; 'Table Restore' and 'Flush Log/Table' are the
hardest (both stress disk I/O).  Bench scale: 4 datasets/cause.
"""

import numpy as np

from _shared import pct, print_table, suite
from repro.eval.harness import evaluate_single_models

PAPER_AVG_MARGIN = 0.135  # "on average 13.5%"


def run_experiment():
    results = evaluate_single_models(suite("tpcc"))
    rows = [
        (r.cause, pct(r.mean_margin), pct(r.mean_f1), pct(r.top1_accuracy))
        for r in results
    ]
    avg_margin = float(np.mean([r.mean_margin for r in results]))
    avg_top1 = float(np.mean([r.top1_accuracy for r in results]))
    return rows, avg_margin, avg_top1


def test_fig7_single_models(benchmark):
    rows, avg_margin, avg_top1 = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    print_table(
        "Figure 7: single causal models (paper: margin avg 13.5%, "
        "correct model top-1 in all 10 cases)",
        ["cause", "margin of confidence", "F1 of correct model", "top-1"],
        rows,
    )
    print(f"average margin: {pct(avg_margin)} (paper: {pct(PAPER_AVG_MARGIN)})")
    print(f"average top-1: {pct(avg_top1)} (paper: 100%)")
    # shape assertions: correct model dominates on average
    assert avg_margin > 0.0
    assert avg_top1 > 0.8
