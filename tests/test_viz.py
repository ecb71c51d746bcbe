"""Unit tests for ASCII visualisation."""

import numpy as np
import pytest

from repro.core.explain import DBSherlock
from repro.data.dataset import Dataset
from repro.data.regions import Region, RegionSpec
from repro.viz.ascii import (
    incident_report,
    plot_series,
    sparkline,
)


def step_dataset(n=120):
    values = np.asarray([2.0] * 60 + [8.0] * 30 + [2.0] * 30, dtype=float)
    return (
        Dataset(np.arange(n, dtype=float),
                numeric={"txn.avg_latency_ms": values}),
        RegionSpec(abnormal=[Region(60.0, 89.0)]),
    )


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_resampled_width(self):
        assert len(sparkline(list(range(100)), width=20)) == 20

    def test_monotone_series_monotone_glyphs(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line == "▁▂▃▄▅▆▇█"

    def test_constant_series_flat(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""


class TestPlotSeries:
    def test_contains_attribute_name(self):
        ds, spec = step_dataset()
        assert "txn.avg_latency_ms" in plot_series(ds, "txn.avg_latency_ms")

    def test_region_footer(self):
        ds, spec = step_dataset()
        out = plot_series(ds, "txn.avg_latency_ms", spec)
        assert "#" in out and "abnormal" in out

    def test_no_spec_no_footer(self):
        ds, _ = step_dataset()
        assert "abnormal" not in plot_series(ds, "txn.avg_latency_ms")

    def test_height_rows(self):
        ds, _ = step_dataset()
        out = plot_series(ds, "txn.avg_latency_ms", height=6)
        # header + 6 rows + axis
        assert len(out.splitlines()) == 8

    def test_step_visible(self):
        ds, _ = step_dataset()
        lines = plot_series(ds, "txn.avg_latency_ms", height=5).splitlines()
        top_row = lines[1]
        bottom_row = lines[5]
        assert "*" in top_row and "*" in bottom_row


class TestIncidentReport:
    def test_report_sections(self):
        ds, spec = step_dataset()
        explanation = DBSherlock().explain(ds, spec)
        report = incident_report(ds, spec, explanation)
        assert "Incident report" in report
        assert "abnormal region" in report
        assert "explanatory predicates" in report
        assert "likely causes" in report

    def test_predicate_cap(self):
        ds, spec = step_dataset()
        explanation = DBSherlock().explain(ds, spec)
        report = incident_report(ds, spec, explanation, max_predicates=0)
        if len(explanation.predicates):
            assert "more" in report
