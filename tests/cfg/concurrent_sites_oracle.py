"""Reference for the MHP site queries the passes ask, kept for parity
tests.

``ConcurrentSites`` is the scan π placement, CSCC, LVN and LICM ran
before they asked :class:`repro.cfg.conflicts.AccessRelation`: it
counts *every* access site (φ targets and arguments, π temporaries,
π control arguments), and ``real_defs`` keeps the ``SAssign`` ones.
Only tests import it.
"""

from repro.cfg.blocks import BasicBlock
from repro.cfg.concurrency import thread_paths_diverge
from repro.cfg.conflicts import AccessSite
from repro.cfg.graph import FlowGraph


class ConcurrentSites:
    """The access sites of a variable that may happen in parallel with
    a block, memoized per (variable, thread path, ``real_defs``)."""

    __slots__ = ("graph", "sites", "_memo")

    def __init__(
        self, graph: FlowGraph, sites: dict[str, list[AccessSite]]
    ) -> None:
        self.graph = graph
        self.sites = sites
        self._memo: dict[tuple[str, tuple, bool], list[AccessSite]] = {}

    def of(
        self, var: str, block: BasicBlock, real_defs: bool = False
    ) -> list[AccessSite]:
        """Sites of ``var`` concurrent with ``block`` (only the real
        definitions with ``real_defs``)."""
        path = block.thread_path
        key = (var, path, real_defs)
        found = self._memo.get(key)
        if found is None:
            blocks = self.graph.blocks
            found = [
                site
                for site in self.sites.get(var, ())
                if (site.is_real_def or not real_defs)
                and thread_paths_diverge(path, blocks[site.block_id].thread_path)
            ]
            self._memo[key] = found
        return found
