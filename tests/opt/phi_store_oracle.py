"""Reference for CSCC's φ store check, kept for parity tests.

This is the check ``opt/concprop.py`` ran before it asked
:class:`~repro.cssame.exposure.MutexBodyOracle` and
:class:`~repro.cfg.conflicts.AccessRelation`: its own
:class:`~repro.cssame.exposure.BodyDataflow` cache, its own body lookup,
the Theorem 2-then-1 loop written inline and the concurrent definitions
of the ``ConcurrentSites`` reference scan.  Only tests import it.
"""

from repro.cfg.conflicts import collect_access_sites
from repro.cssame.exposure import BodyDataflow
from repro.ir.stmts import Phi
from tests.cfg.concurrent_sites_oracle import ConcurrentSites


class PhiStoreReference:
    """The pre-oracle verdicts for one CSCC transformer (its graph and
    mutex structures), with the same lazily filled caches."""

    def __init__(self, transformer) -> None:
        self.transformer = transformer
        self._concurrent = None
        self._body_dataflow: dict[int, BodyDataflow] = {}

    def _dataflow(self, body) -> BodyDataflow:
        cached = self._body_dataflow.get(id(body))
        if cached is None:
            cached = BodyDataflow(self.transformer.a.graph, body)
            self._body_dataflow[id(body)] = cached
        return cached

    def phi_store_is_safe(self, phi: Phi) -> bool:
        graph = self.transformer.a.graph
        if not graph.contains_stmt(phi):
            return False
        block_id, index = graph.location_of(phi)
        block = graph.blocks[block_id]
        if self._concurrent is None:
            self._concurrent = ConcurrentSites(graph, collect_access_sites(graph))

        structures = self.transformer._mutex_structures()
        my_bodies = {}  # lock name → body containing the φ
        for lock_name, structure in structures.items():
            body = structure.body_of_block(block_id)
            if body is not None:
                my_bodies[lock_name] = body

        for site in self._concurrent.of(phi.target, block, real_defs=True):
            # The concurrent def must be provably unable to reach here.
            killed = False
            for lock_name, my_body in my_bodies.items():
                other = structures[lock_name].body_of_block(site.block_id)
                if other is None or other is my_body:
                    continue
                if not self._dataflow(my_body).upward_exposed(
                    phi.target, block_id, index
                ):
                    killed = True  # Theorem 2
                    break
                if not self._dataflow(other).reaches_exit(
                    phi.target, site.block_id, site.index
                ):
                    killed = True  # Theorem 1
                    break
            if not killed:
                return False
        return True
