"""May-happen-in-parallel (MHP) relation.

Two PFG nodes may execute concurrently iff their cobegin-branch paths
*diverge*: there is some cobegin region that contains both nodes but in
different child threads.  Code before a ``cobegin`` or after the matching
``coend`` is never concurrent with the spawned threads, and two nodes in
the same branch are ordered by control flow.

This structural relation is conservative with respect to event
synchronization: a ``set``/``wait`` pair can order two statically
concurrent nodes, but ignoring that only *adds* conflict edges, never
removes real ones, so every analysis built on MHP stays safe.  (The
paper inherits its event-ordering refinements from Lee et al.; its own
contribution — mutex-based pruning — is implemented in
:mod:`repro.cssame`.)
"""

from __future__ import annotations

from functools import lru_cache

from repro.cfg.blocks import BasicBlock

__all__ = ["may_happen_in_parallel", "thread_paths_diverge"]


@lru_cache(maxsize=65536)
def thread_paths_diverge(path_a: tuple, path_b: tuple) -> bool:
    """True when the two thread paths put their owners in different
    branches of some common cobegin.

    Memoized: a graph has only a handful of distinct thread paths but
    analyses compare them millions of times.
    """
    if not path_a or not path_b:
        return False
    map_b = dict(path_b)
    for cobegin_uid, branch in path_a:
        other = map_b.get(cobegin_uid)
        if other is not None and other != branch:
            return True
    return False


def may_happen_in_parallel(a: BasicBlock, b: BasicBlock) -> bool:
    """MHP on PFG nodes (structural, cobegin-based)."""
    return thread_paths_diverge(a.thread_path, b.thread_path)

