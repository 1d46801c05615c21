"""Parallel Flow Graph (PFG) substrate.

The PFG (paper Definition 1) extends a sequential CFG with:

* **parallel basic blocks** — ``cobegin``/``coend`` become dedicated
  nodes; every child thread is a subgraph between them;
* **Lock/Unlock nodes** — each mutual-exclusion operation is its own
  flow-graph node;
* **conflict edges** — directed def→use / def→def edges between
  concurrent accesses to shared variables;
* **mutex synchronization edges** — undirected edges joining Lock and
  Unlock nodes on the same lock variable in concurrent threads;
* **directed synchronization edges** — ``set``/``wait`` pairs.

Dominance and post-dominance (used throughout the paper) are computed on
*control edges only* (Definition 2).
"""

from repro.cfg.blocks import BasicBlock, NodeKind
from repro.cfg.graph import ConflictEdge, FlowGraph, MutexEdge, SyncEdge
from repro.cfg.builder import build_flow_graph
from repro.cfg.dominance import DominatorTree, compute_dominators, compute_postdominators
from repro.cfg.concurrency import may_happen_in_parallel, thread_paths_diverge
from repro.cfg.conflicts import (
    AccessSite,
    collect_access_sites,
    shared_variables,
)
from repro.cfg.dot import to_dot

__all__ = [
    "AccessSite",
    "BasicBlock",
    "ConflictEdge",
    "DominatorTree",
    "FlowGraph",
    "MutexEdge",
    "NodeKind",
    "SyncEdge",
    "build_flow_graph",
    "collect_access_sites",
    "compute_dominators",
    "compute_postdominators",
    "may_happen_in_parallel",
    "shared_variables",
    "thread_paths_diverge",
    "to_dot",
]
