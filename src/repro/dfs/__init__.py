"""HDFS-like distributed file system simulator.

Namenode + datanodes + block map + replication pipeline + heartbeats +
the stock disk-usage balancer, with pluggable block placement policies.
This is the substrate Aurora (:mod:`repro.aurora`) plugs into.
"""

from repro.dfs.balancer import Balancer, BalancerReport
from repro.dfs.block import DEFAULT_MAX_BLOCK_SIZE, BlockMeta, FileMeta
from repro.dfs.blockmap import BlockMap
from repro.dfs.client import DfsClient, Locality, ReadResult
from repro.dfs.datanode import Datanode
from repro.dfs.editlog import (
    EditLog,
    attach_edit_log,
    build_checkpoint,
    recover_namenode,
    replay_entries,
    restore_checkpoint,
)
from repro.dfs.ha import HaCluster, HaConfig, NamenodeReplica, rebind_aurora
from repro.dfs.heartbeat import HeartbeatService
from repro.dfs.integrity import (
    BlockScrubber,
    CorruptionLedger,
    ReplicaIntegrity,
    ScrubConfig,
    replica_checksum,
)
from repro.dfs.namenode import Namenode
from repro.dfs.namespace import NamespaceTree
from repro.dfs.quota import DirectoryQuota, QuotaManager
from repro.dfs.safemode import SafeModeMonitor, enter_safe_mode, reported_fraction
from repro.dfs.policies import (
    BlockPlacementPolicy,
    DefaultHdfsPolicy,
    LoadAwarePolicy,
    PlacementContext,
)
from repro.dfs.replication import GIGABIT_PER_SECOND, TransferService
from repro.dfs.store import (
    InMemoryMetadataStore,
    JsonFileMetadataStore,
    MetadataStore,
)

__all__ = [
    "Balancer",
    "BalancerReport",
    "DEFAULT_MAX_BLOCK_SIZE",
    "BlockMeta",
    "FileMeta",
    "BlockMap",
    "DfsClient",
    "Locality",
    "ReadResult",
    "Datanode",
    "EditLog",
    "attach_edit_log",
    "build_checkpoint",
    "recover_namenode",
    "replay_entries",
    "restore_checkpoint",
    "HaCluster",
    "HaConfig",
    "NamenodeReplica",
    "rebind_aurora",
    "MetadataStore",
    "InMemoryMetadataStore",
    "JsonFileMetadataStore",
    "HeartbeatService",
    "BlockScrubber",
    "CorruptionLedger",
    "ReplicaIntegrity",
    "ScrubConfig",
    "replica_checksum",
    "Namenode",
    "NamespaceTree",
    "DirectoryQuota",
    "QuotaManager",
    "SafeModeMonitor",
    "enter_safe_mode",
    "reported_fraction",
    "BlockPlacementPolicy",
    "DefaultHdfsPolicy",
    "LoadAwarePolicy",
    "PlacementContext",
    "GIGABIT_PER_SECOND",
    "TransferService",
]
