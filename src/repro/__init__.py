"""DBSherlock reproduction: performance diagnosis for transactional databases.

A pure-Python reproduction of *DBSherlock: A Performance Diagnostic Tool
for Transactional Databases* (Yoon, Niu, Mozafari — SIGMOD 2016), including
the predicate-generation algorithm, causal models, domain-knowledge
pruning, automatic anomaly detection, the PerfXplain/PerfAugur baselines,
and an OLTP telemetry simulator standing in for the paper's MySQL-on-Azure
testbed.

Quickstart
----------
>>> from repro import DBSherlock, simulate_run
>>> dataset, spec, cause = simulate_run("cpu_saturation", seed=7)
>>> sherlock = DBSherlock()
>>> explanation = sherlock.explain(dataset, spec)
>>> print(explanation.predicates)
"""

from repro.core import (
    AnomalyDetector,
    CausalModel,
    CausalModelStore,
    CategoricalPredicate,
    Conjunction,
    DBSherlock,
    DomainRule,
    Explanation,
    GeneratorConfig,
    MYSQL_LINUX_RULES,
    NumericPredicate,
    PredicateGenerator,
)
from repro.data import Dataset, Region, RegionSpec
from repro.eval.harness import simulate_run
from repro.stream import StreamingDetector, StreamingDiagnoser

__all__ = [
    "DBSherlock",
    "Explanation",
    "GeneratorConfig",
    "PredicateGenerator",
    "CausalModel",
    "CausalModelStore",
    "AnomalyDetector",
    "DomainRule",
    "MYSQL_LINUX_RULES",
    "NumericPredicate",
    "CategoricalPredicate",
    "Conjunction",
    "Dataset",
    "Region",
    "RegionSpec",
    "StreamingDetector",
    "StreamingDiagnoser",
    "simulate_run",
]

__version__ = "1.0.0"
