"""repro: a reproduction of Hermes (ASPLOS 2020) as a Python library.

Hermes (Katsarakis et al., ASPLOS 2020) is a broadcast-based, invalidation-
driven, fault-tolerant replication protocol providing linearizability with
local reads and fast, decentralized, inter-key-concurrent writes. This
package implements the protocol, the substrates it relies on (an in-memory
KVS, a Wings-style RPC layer, a reliable-membership service), the baselines
it is evaluated against (CRAQ, CR, ZAB, a Derecho-style total-order
protocol), and a discrete-event simulation harness that reproduces the
paper's evaluation.

Quickstart::

    from repro import Cluster, ClusterConfig, Operation

    cluster = Cluster(ClusterConfig(protocol="hermes", num_replicas=5))
    replica = cluster.replica(0)
    done = []
    replica.submit(Operation.write("greeting", "hello"), lambda op, st, v: done.append(st))
    cluster.run(until=0.01)

See ``examples/`` for runnable end-to-end scenarios and ``benchmarks/`` for
the reproduction of every figure and table in the paper's evaluation.
"""

from repro.bench.harness import ExperimentResult, ExperimentSpec, Scale, run_experiment
from repro.cluster.client import ClosedLoopClient, OpenLoopClient, run_clients
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.failures import FailureEvent, FailureInjector, FailureKind
from repro.core.config import HermesConfig
from repro.core.replica import HermesReplica
from repro.core.state import KeyState
from repro.core.timestamps import Timestamp
from repro.errors import ReproError
from repro.membership.view import MembershipView
from repro.protocols.base import ProtocolFeatures, ReplicaConfig, protocol_registry
from repro.protocols.chain import ChainReplicationReplica
from repro.protocols.craq import CraqReplica
from repro.protocols.derecho import DerechoReplica
from repro.protocols.zab import ZabReplica
from repro.types import Operation, OpStatus, OpType
from repro.verification.history import History
from repro.verification.linearizability import LinearizabilityChecker, check_history
from repro.workloads.distributions import UniformKeys, ZipfianKeys
from repro.workloads.generator import WorkloadMix

__version__ = "1.0.0"

__all__ = [
    "ChainReplicationReplica",
    "ClosedLoopClient",
    "Cluster",
    "ClusterConfig",
    "CraqReplica",
    "DerechoReplica",
    "ExperimentResult",
    "ExperimentSpec",
    "FailureEvent",
    "FailureInjector",
    "FailureKind",
    "HermesConfig",
    "HermesReplica",
    "History",
    "KeyState",
    "LinearizabilityChecker",
    "MembershipView",
    "OpStatus",
    "OpType",
    "OpenLoopClient",
    "Operation",
    "ProtocolFeatures",
    "ReplicaConfig",
    "ReproError",
    "Scale",
    "Timestamp",
    "UniformKeys",
    "WorkloadMix",
    "ZabReplica",
    "ZipfianKeys",
    "check_history",
    "protocol_registry",
    "run_clients",
    "run_experiment",
    "__version__",
]
