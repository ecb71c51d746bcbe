"""Clustering substrate: a from-scratch DBSCAN used by anomaly detection."""

from repro.cluster.dbscan import DBSCAN, NOISE, dbscan_labels_stacks

__all__ = ["DBSCAN", "NOISE", "dbscan_labels_stacks"]
