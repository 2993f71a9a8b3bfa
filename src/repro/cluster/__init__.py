"""Cluster substrate: topology and machine state."""

from repro.cluster.topology import ClusterTopology

__all__ = ["ClusterTopology"]
