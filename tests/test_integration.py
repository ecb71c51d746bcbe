"""Integration tests: the full DBSherlock workflow on simulated telemetry."""

import numpy as np
import pytest

from repro import DBSherlock, GeneratorConfig, MYSQL_LINUX_RULES
from repro.anomalies import CompoundAnomaly, make_anomaly
from repro.anomalies.base import ScheduledAnomaly
from repro.baselines import PerfXplain
from repro.engine import simulate_telemetry
from repro.eval.harness import simulate_run
from repro.workload import tpcc_workload


class TestSignatures:
    """Each anomaly's predicates surface the metrics the paper names."""

    def test_cpu_saturation_predicates(self, cpu_run):
        ds, spec, _ = cpu_run
        explanation = DBSherlock().explain(ds, spec)
        attrs = set(explanation.predicates.attributes)
        assert "os.cpu_usage" in attrs
        # external hog: the DBMS's own CPU is NOT implicated
        assert "mysql.cpu_usage" not in attrs

    def test_network_congestion_predicates(self, network_run):
        ds, spec, _ = network_run
        explanation = DBSherlock().explain(ds, spec)
        attrs = set(explanation.predicates.attributes)
        # Section 1: fewer packets sent/received, clients waiting, low CPU
        assert "txn.client_wait_ms" in attrs
        assert any(a.startswith("os.network") or a == "os.ping_rtt_ms"
                   for a in attrs)

    def test_network_congestion_direction(self, network_run):
        ds, spec, _ = network_run
        explanation = DBSherlock().explain(ds, spec)
        by_attr = {p.attr: p for p in explanation.predicates}
        if "os.network_send_mb" in by_attr:
            assert by_attr["os.network_send_mb"].direction == "lt"

    def test_lock_contention_predicates(self, lock_run):
        ds, spec, _ = lock_run
        explanation = DBSherlock().explain(ds, spec)
        attrs = set(explanation.predicates.attributes)
        assert any("row_lock" in a for a in attrs)

    def test_poorly_written_query_signature(self):
        ds, spec, _ = simulate_run("poorly_written_query", 40, seed=21)
        explanation = DBSherlock().explain(ds, spec)
        attrs = set(explanation.predicates.attributes)
        # Section 1: next-row-read-requests and DBMS CPU usage rise
        assert "mysql.handler_read_rnd_next" in attrs
        assert "mysql.cpu_usage" in attrs


class TestFeedbackWorkflow:
    def test_cross_cause_diagnosis(self, cpu_run, network_run):
        sherlock = DBSherlock(config=GeneratorConfig(theta=0.05))
        for run, label in ((cpu_run, "CPU"), (network_run, "NET")):
            ds, spec, _ = run
            sherlock.feedback(label, sherlock.explain(ds, spec))

        ds, spec, _ = simulate_run("cpu_saturation", 60, seed=42)
        ranked = sherlock.diagnose(ds, spec, top_k=2)
        assert ranked[0][0] == "CPU"
        assert ranked[0][1] > ranked[1][1]

    def test_domain_knowledge_prunes_os_cpu(self, cpu_run):
        ds, spec, _ = cpu_run
        plain = DBSherlock().explain(ds, spec)
        informed = DBSherlock(rules=MYSQL_LINUX_RULES).explain(ds, spec)
        # rule 4 (OS CPU Usage -> OS CPU Idle) fires on CPU saturation
        assert len(informed.predicates) <= len(plain.predicates)

    def test_predicates_transfer_across_durations(self):
        train, train_spec, _ = simulate_run("io_saturation", 40, seed=31)
        test, test_spec, _ = simulate_run("io_saturation", 70, seed=32)
        sherlock = DBSherlock(config=GeneratorConfig(theta=0.05))
        model = sherlock.feedback("IO", sherlock.explain(train, train_spec))
        confidence = model.confidence(test, test_spec)
        assert confidence > 0.5


class TestCompoundSituations:
    def test_compound_signature_includes_both(self):
        compound = CompoundAnomaly(
            [make_anomaly("cpu_saturation"), make_anomaly("network_congestion")]
        )
        ds, spec = simulate_telemetry(
            tpcc_workload(),
            duration_s=160,
            anomalies=[ScheduledAnomaly(compound, 60.0, 100.0)],
            seed=51,
        )
        explanation = DBSherlock().explain(ds, spec)
        attrs = set(explanation.predicates.attributes)
        assert "os.cpu_usage" in attrs
        assert "os.ping_rtt_ms" in attrs


class TestVersusPerfXplain:
    def test_dbsherlock_competitive_on_weak_signature(self):
        # Poor Physical Design moves several write metrics under the 50 %
        # pairwise-significance cut; scores follow the Figure 9 protocol:
        # per-predicate precision/recall averaged over the explanation.
        from repro.eval.metrics import score_predicates_mean

        train, train_spec, _ = simulate_run("poor_physical_design", 50, seed=61)
        test, test_spec, _ = simulate_run("poor_physical_design", 60, seed=62)

        sherlock = DBSherlock(config=GeneratorConfig(theta=0.05))
        model = sherlock.feedback("PD", sherlock.explain(train, train_spec))
        db = score_predicates_mean(model.predicates, test, test_spec)

        px = PerfXplain().fit([train], [train_spec], seed=0)
        actual = test_spec.abnormal_mask(test)
        f1s = []
        for mask in px.feature_masks(test):
            tp = float((mask & actual).sum())
            precision = tp / mask.sum() if mask.any() else 0.0
            recall = tp / actual.sum()
            f1s.append(
                2 * precision * recall / (precision + recall)
                if precision + recall
                else 0.0
            )
        px_f1 = float(np.mean(f1s)) if f1s else 0.0
        # DBSherlock transfers meaningfully on this weak-signature cause;
        # the full cross-cause comparison (where DBSherlock wins on
        # average, Figure 9) lives in benchmarks/bench_fig9_perfxplain.py.
        assert db.f1 > 0.5
        assert px_f1 >= 0.0


class TestRobustness:
    def test_imperfect_region_still_diagnosed(self, cpu_run):
        ds, spec, _ = cpu_run
        sherlock = DBSherlock(config=GeneratorConfig(theta=0.05))
        sherlock.feedback("CPU", sherlock.explain(ds, spec))

        ds2, spec2, _ = simulate_run("cpu_saturation", 50, seed=71)
        sloppy = spec2.perturbed(0.1)
        ranked = sherlock.diagnose(ds2, sloppy, top_k=1)
        assert ranked[0][0] == "CPU"

    def test_two_second_region(self, cpu_run):
        ds, spec, _ = cpu_run
        sherlock = DBSherlock(config=GeneratorConfig(theta=0.05))
        sherlock.feedback("CPU", sherlock.explain(ds, spec))

        ds2, spec2, _ = simulate_run("cpu_saturation", 50, seed=72)
        sliver = spec2.sliced(2.0, np.random.default_rng(0))
        ranked = sherlock.diagnose(ds2, sliver, top_k=1)
        assert ranked and ranked[0][1] > 0.0
