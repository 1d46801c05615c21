"""Concurrent Sparse Conditional Constant propagation (Section 5.1).

The classic Wegman–Zadeck SCC algorithm, extended for explicitly
parallel programs exactly as Lee et al. (and this paper) describe:

* φ terms meet their arguments over *executable* incoming control edges;
* π terms meet their control argument with every conflict argument whose
  defining block is executable — so CSSAME's π pruning (fewer conflict
  arguments) directly translates into more constants.  The meet over a
  shared conflict set is kept once per set, and a π is re-evaluated only
  when its set's meet moves;
* ``cobegin`` makes all child threads executable at once;
* constant branches keep only one successor edge executable, and the
  transformation phase folds the corresponding ``if``/``while`` regions.

The pass runs on a program in CSSA/CSSAME form and edits it in place,
keeping the SSA chains consistent (replaced φ/π terms become plain
constant assignments and their uses are re-linked).
"""

from __future__ import annotations

from typing import Optional

from repro.cfg.builder import build_flow_graph
from repro.cfg.graph import FlowGraph
from repro.errors import TransformError
from repro.ir.expr import EConst, EVar, IRExpr
from repro.ir.stmts import ConflictSet, IRStmt, Phi, Pi, SAssign, SBranch
from repro.ir.structured import (
    Body,
    CobeginRegion,
    IfRegion,
    ProgramIR,
    WhileRegion,
    iter_statements,
    remove_stmt,
)
from repro.mutex.identify import identify_mutex_structures
from repro.mutex.structures import MutexStructure
from repro.obs.prof import record_work
from repro.opt.folding import eval_expr
from repro.opt.lattice import BOTTOM, TOP, ConstValue, LatticeValue, meet, meet_all
from repro.ssa.chains import UseMap, build_use_map
from repro.ssa.destruct import replace_stmt
from repro.ssa.names import EntryDef

__all__ = ["ConstPropStats", "concurrent_constant_propagation"]


class ConstPropStats:
    """Outcome of one constant-propagation run."""

    def __init__(self) -> None:
        #: SSA display name → constant value, for every def proven constant
        self.constants: dict[str, int] = {}
        self.uses_replaced = 0
        self.defs_made_constant = 0
        self.phis_removed = 0
        self.pis_removed = 0
        self.branches_folded = 0
        self.loops_removed = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ConstPropStats(constants={len(self.constants)}, "
            f"uses_replaced={self.uses_replaced}, "
            f"branches_folded={self.branches_folded})"
        )


class _Analysis:
    """The sparse conditional fixpoint."""

    def __init__(self, program: ProgramIR, graph: FlowGraph) -> None:
        self.program = program
        self.graph = graph
        self.values: dict[IRStmt, LatticeValue] = {}
        self.executable_blocks: set[int] = set()
        self.executable_edges: set[tuple[int, int]] = set()
        self.usemap: UseMap = build_use_map(program)
        self._flow: list[tuple[int, int]] = []
        self._ssa: list[IRStmt] = []
        #: statements currently waiting on ``_ssa``: one pending
        #: re-evaluation sees every lattice change made before it runs
        self._queued: set[IRStmt] = set()
        #: lattice evaluations performed — the pass's deterministic
        #: work measure (see repro.obs.prof)
        self.evals = 0
        #: φ → positional arg↔pred mapping (None = conservative)
        self._phi_preds: dict[Phi, Optional[list[int]]] = {}
        #: π conflict set → meet of its members that may execute, kept
        #: current as member values descend (see _update)
        self._set_meets: dict[ConflictSet, LatticeValue] = {}

    # -- lattice lookups ---------------------------------------------------

    def value_of_site(self, site: object) -> LatticeValue:
        if isinstance(site, EntryDef):
            # Unassigned variables read as 0 (the VM's semantics).
            return ConstValue(0)
        if isinstance(site, IRStmt):
            return self.values.get(site, TOP)
        return BOTTOM  # unknown def site: be safe

    def value_of_var(self, var: EVar) -> LatticeValue:
        if var.def_site is None:
            return BOTTOM
        return self.value_of_site(var.def_site)

    # -- evaluation ----------------------------------------------------------

    def _phi_pred_map(self, phi: Phi) -> Optional[list[int]]:
        """preds[i] feeding args[i], when the positional invariant holds."""
        if phi in self._phi_preds:
            return self._phi_preds[phi]
        result: Optional[list[int]] = None
        if self.graph.contains_stmt(phi):
            block = self.graph.block_of(phi)
            index = self.graph.location_of(phi)[1]
            leading_phis = index < 0 or all(
                isinstance(s, Phi) for s in block.stmts[: max(index, 0)]
            )
            if len(block.preds) == len(phi.args) and len(block.preds) >= 2 and leading_phis:
                result = list(block.preds)
        self._phi_preds[phi] = result
        return result

    def evaluate(self, stmt: IRStmt) -> LatticeValue:
        self.evals += 1
        if isinstance(stmt, SAssign):
            return eval_expr(stmt.value, self.value_of_var)
        if isinstance(stmt, Phi):
            preds = self._phi_pred_map(stmt)
            if preds is None:
                return meet_all(self.value_of_var(a.var) for a in stmt.args)
            block_id = self.graph.block_of(stmt).id
            vals = []
            for pred, arg in zip(preds, stmt.args):
                if (pred, block_id) in self.executable_edges:
                    vals.append(self.value_of_var(arg.var))
            return meet_all(vals)
        if isinstance(stmt, Pi):
            return meet(self.value_of_var(stmt.control), self.set_meet(stmt.conflict_set))
        raise TransformError(f"cannot evaluate {stmt!r}")  # pragma: no cover

    def may_execute(self, var: EVar) -> bool:
        """False when ``var``'s definition sits in a block that is not
        (yet) executable: it can never execute."""
        site = var.def_site
        if isinstance(site, IRStmt) and self.graph.contains_stmt(site):
            return self.graph.block_of(site).id in self.executable_blocks
        return True

    def set_meet(self, cset: ConflictSet) -> LatticeValue:
        """Meet of a conflict set's members that may execute (cached)."""
        found = self._set_meets.get(cset)
        if found is None:
            found = self._set_meets[cset] = meet_all(
                self.value_of_var(arg) for arg in cset if self.may_execute(arg)
            )
        return found

    # -- worklist engine -------------------------------------------------------

    def run(self) -> None:
        entry = self.graph.entry
        self.executable_blocks.add(entry.id)
        for succ in entry.succs:
            self._flow.append((entry.id, succ))
        while self._flow or self._ssa:
            if self._flow:
                edge = self._flow.pop()
                self._process_edge(edge)
            else:
                stmt = self._ssa.pop()
                self._queued.discard(stmt)
                self._revisit(stmt)

    @staticmethod
    def _block_stmts(block) -> list[IRStmt]:
        """All of the block's statements, including head φs.

        On a freshly built CSSAME graph φ terms live in ``block.phis``;
        on rebuilt graphs they appear as ordinary leading statements.
        The fixpoint must see them either way.
        """
        if block.phis:
            return list(block.phis) + block.stmts
        return block.stmts

    def _process_edge(self, edge: tuple[int, int]) -> None:
        if edge in self.executable_edges:
            return
        self.executable_edges.add(edge)
        block_id = edge[1]
        if block_id in self.executable_blocks:
            # Only φ terms care about additional incoming edges.
            for stmt in self._block_stmts(self.graph.blocks[block_id]):
                if isinstance(stmt, Phi):
                    self._revisit(stmt)
            return
        self.executable_blocks.add(block_id)
        block = self.graph.blocks[block_id]
        branch: Optional[SBranch] = None
        for stmt in self._block_stmts(block):
            if isinstance(stmt, (SAssign, Phi, Pi)):
                self._update(stmt, self.evaluate(stmt))
            elif isinstance(stmt, SBranch):
                branch = stmt
        if branch is not None:
            self._process_branch(block_id, branch)
        else:
            for succ in block.succs:
                self._flow.append((block_id, succ))

    def _process_branch(self, block_id: int, branch: SBranch) -> None:
        block = self.graph.blocks[block_id]
        value = eval_expr(branch.cond, self.value_of_var)
        if value is TOP:
            return
        if isinstance(value, ConstValue):
            target = block.succs[0] if value.value != 0 else block.succs[1]
            self._flow.append((block_id, target))
        else:
            for succ in block.succs:
                self._flow.append((block_id, succ))

    def _update(self, stmt: IRStmt, new: LatticeValue) -> None:
        old = self.values.get(stmt, TOP)
        merged = meet(old, new)
        self.values[stmt] = merged
        if merged == old:
            return
        for _use, holder in self.usemap.direct_uses_of(stmt):
            self._requeue(holder)
        # ``stmt`` sits in an executable block, so it counts in the
        # meet of every conflict set listing it, and values only
        # descend: the set's new meet is the old one met with
        # ``merged``.  A set whose meet holds leaves its πs' values
        # alone, and a set never met yet has no π evaluated with it.
        for cset in self.usemap.sets_of(stmt):
            cached = self._set_meets.get(cset)
            if cached is None:
                continue
            lowered = meet(cached, merged)
            if lowered != cached:
                self._set_meets[cset] = lowered
                for pi in self.usemap.pis_holding(cset):
                    self._requeue(pi)

    def _requeue(self, holder: IRStmt) -> None:
        """Re-evaluate ``holder`` after one of its operands changed."""
        if isinstance(holder, (SAssign, Phi, Pi)):
            if holder not in self._queued:
                self._queued.add(holder)
                self._ssa.append(holder)
        elif isinstance(holder, SBranch):
            if self.graph.contains_stmt(holder):
                holder_block = self.graph.block_of(holder)
                if holder_block.id in self.executable_blocks:
                    self._process_branch(holder_block.id, holder)

    def _revisit(self, stmt: IRStmt) -> None:
        if not self.graph.contains_stmt(stmt):
            return
        if self.graph.block_of(stmt).id not in self.executable_blocks:
            return
        self._update(stmt, self.evaluate(stmt))


class _Transformer:
    """Applies the fixpoint's findings to the structured tree."""

    def __init__(
        self,
        analysis: _Analysis,
        stats: ConstPropStats,
        fold_output_uses: bool = True,
        structures: Optional[dict[str, MutexStructure]] = None,
    ) -> None:
        self.a = analysis
        self.stats = stats
        self.fold_output_uses = fold_output_uses
        self._structures = structures
        self._accesses = None
        self._theorems = None
        #: conflict set → its members that may execute
        self._pruned_sets: dict[ConflictSet, ConflictSet] = {}

    def _mutex_structures(self):
        if self._structures is None:
            self._structures = identify_mutex_structures(self.a.graph)
        return self._structures

    def _phi_store_is_safe(self, phi: Phi) -> bool:
        """May a φ be materialized as a real assignment?

        A φ is a runtime no-op; turning it into ``v = c`` introduces a
        *store* to the shared base variable.  That is a pure no-op (the
        base already holds ``c``) only when no concurrent definition of
        ``v`` can reach the φ point: A.3 would remove every
        may-happen-in-parallel real definition of ``v`` from a π placed
        at the φ, through at least one structure whose body holds the
        φ (Theorem 2 on the φ point or Theorem 1 on the definition).

        This is the Figure 4b situation (``a3 = 13`` inside T0's mutex
        body); anything weaker can overwrite a concurrent thread's
        value with the φ's control-flow constant.
        """
        from repro.cfg.conflicts import AccessRelation, collect_access_sites
        from repro.cssame.exposure import MutexBodyOracle

        graph = self.a.graph
        if not graph.contains_stmt(phi):
            return False
        block = graph.block_of(phi)
        if self._accesses is None:
            self._accesses = AccessRelation(graph, collect_access_sites(graph))
            self._theorems = MutexBodyOracle(graph)
        structures = self._mutex_structures()
        sites = self._accesses.parallel_defs(phi.target, block.thread_path)
        if not sites:
            return True
        theorems = self._theorems
        holders = [
            (structure, body, theorems.exposed(body, phi.target, phi))
            for structure in structures.values()
            for body in [structure.body_of_block(block.id)]
            if body is not None
        ]
        return all(
            any(
                theorems.removal(site.stmt, structure, body, exposed) is not None
                for structure, body, exposed in holders
            )
            for site in sites
        )

    def run(self) -> None:
        self._rewrite_merge_terms()
        self._rewrite_assignments_and_uses()
        self._fold_regions(self.a.program.body)

    # -- φ/π rewriting -----------------------------------------------------

    def _redirect_uses(self, def_site: IRStmt, target: EVar) -> None:
        for use, _holder in self.a.usemap.uses_of(def_site):
            use.name = target.name
            use.version = target.version
            use.def_site = target.def_site

    def _make_const_assign(self, stmt: IRStmt, value: int) -> None:
        """Replace a φ/π definition with ``target = value``."""
        target = stmt.def_name()
        version = stmt.def_version()
        assert target is not None
        new = SAssign(target, EConst(value), version)
        replace_stmt(stmt, new)
        self.a.values[new] = ConstValue(value)
        for use, _holder in self.a.usemap.uses_of(stmt):
            use.def_site = new
            self.a.usemap.add(new, use, _holder)
        self.stats.defs_made_constant += 1
        self.stats.constants[new.ssa_target] = value

    def _rewrite_merge_terms(self) -> None:
        graph = self.a.graph
        for stmt, _ctx in list(iter_statements(self.a.program)):
            if not isinstance(stmt, (Phi, Pi)):
                continue
            if graph.contains_stmt(stmt):
                if graph.block_of(stmt).id not in self.a.executable_blocks:
                    continue  # unreachable; region folding discards it
            value = self.a.values.get(stmt, TOP)
            if isinstance(stmt, Phi):
                self._prune_phi_args(stmt)
                if isinstance(value, ConstValue):
                    if self._phi_store_is_safe(stmt):
                        self._make_const_assign(stmt, value.value)
                        self.stats.phis_removed += 1
                    else:
                        self._fold_phi_uses(stmt, value.value)
                elif len(stmt.args) == 1:
                    self._redirect_uses(stmt, stmt.args[0].var)
                    remove_stmt(stmt)
                    self.stats.phis_removed += 1
            else:  # Pi
                self._prune_pi_args(stmt)
                if isinstance(value, ConstValue):
                    self._make_const_assign(stmt, value.value)
                    self.stats.pis_removed += 1
                elif not stmt.conflicts:
                    self._redirect_uses(stmt, stmt.control)
                    remove_stmt(stmt)
                    self.stats.pis_removed += 1

    def _fold_phi_uses(self, phi: Phi, value: int) -> None:
        """Fold a constant-but-unsafe-to-store φ at its use sites.

        Ordinary uses become the literal constant (sound: a use that
        chained directly to this φ has no concurrent definitions
        reaching it, or CSSA would have interposed a π term).  Uses
        inside other φ/π terms stay symbolic, so the φ itself is kept
        alive as a runtime no-op when such uses exist.
        """
        merge_uses = 0
        for use, holder in self.a.usemap.uses_of(phi):
            if isinstance(holder, (Phi, Pi)):
                merge_uses += 1
                continue

            def fold(var: EVar) -> IRExpr:
                if var is use:
                    self.stats.uses_replaced += 1
                    return EConst(value)
                return var

            holder.rewrite_exprs(fold)
        self.stats.constants[phi.ssa_target] = value
        if merge_uses == 0:
            remove_stmt(phi)
            self.stats.phis_removed += 1

    def _prune_phi_args(self, phi: Phi) -> None:
        preds = self.a._phi_pred_map(phi)
        if preds is None:
            return
        block_id = self.a.graph.block_of(phi).id
        kept = [
            arg
            for pred, arg in zip(preds, phi.args)
            if (pred, block_id) in self.a.executable_edges
        ]
        if kept and len(kept) < len(phi.args):
            phi.args = kept
            # The positional invariant no longer holds for this φ.
            self.a._phi_preds[phi] = None

    def _prune_pi_args(self, pi: Pi) -> None:
        """Drop conflict arguments that can never execute, once per set."""
        pruned = self._pruned_sets.get(pi.conflict_set)
        if pruned is None:
            pruned = self._pruned_sets[pi.conflict_set] = ConflictSet.of(
                arg for arg in pi.conflict_set if self.a.may_execute(arg)
            )
        pi.conflict_set = pruned

    # -- plain statements ----------------------------------------------------

    def _rewrite_assignments_and_uses(self) -> None:
        from repro.ir.stmts import SPrint

        for stmt, _ctx in iter_statements(self.a.program):
            if isinstance(stmt, (Phi, Pi)):
                continue
            if isinstance(stmt, SPrint) and not self.fold_output_uses:
                # Mirror the paper's figures, which leave print(x0)
                # symbolic so the defining store stays observable.
                continue
            if isinstance(stmt, SAssign):
                value = self.a.values.get(stmt, TOP)
                if isinstance(value, ConstValue):
                    if not isinstance(stmt.value, EConst):
                        stmt.value = EConst(value.value)
                    self.stats.constants[stmt.ssa_target] = value.value
                    continue

            def substitute(var: EVar) -> IRExpr:
                val = self.a.value_of_var(var)
                if isinstance(val, ConstValue):
                    self.stats.uses_replaced += 1
                    return EConst(val.value)
                return var

            stmt.rewrite_exprs(substitute)
            self._fold_in_place(stmt)

    @staticmethod
    def _fold_in_place(stmt: IRStmt) -> None:
        from repro.ir.stmts import SBranch, SCallStmt, SPrint
        from repro.opt.folding import fold_expr

        if isinstance(stmt, SAssign):
            stmt.value = fold_expr(stmt.value)
        elif isinstance(stmt, (SPrint, SCallStmt)):
            stmt.args = [fold_expr(a) for a in stmt.args]
        elif isinstance(stmt, SBranch):
            stmt.cond = fold_expr(stmt.cond)

    # -- structural folding ----------------------------------------------------

    def _fold_regions(self, body: Body) -> None:
        for item in list(body.items):
            if isinstance(item, IfRegion):
                self._fold_if(body, item)
            elif isinstance(item, WhileRegion):
                self._fold_while(body, item)
            elif isinstance(item, CobeginRegion):
                for thread in item.threads:
                    self._fold_regions(thread.body)

    def _fold_if(self, body: Body, region: IfRegion) -> None:
        value = eval_expr(region.branch.cond, self.a.value_of_var)
        if isinstance(value, ConstValue):
            taken = region.then_body if value.value != 0 else region.else_body
            self._fold_regions(taken)
            body.replace(region, list(taken.items))
            self.stats.branches_folded += 1
            return
        self._fold_regions(region.then_body)
        self._fold_regions(region.else_body)

    def _fold_while(self, body: Body, region: WhileRegion) -> None:
        value = eval_expr(region.branch.cond, self.a.value_of_var)
        if isinstance(value, ConstValue) and value.value == 0:
            # The loop body never runs; header terms were already
            # collapsed by φ pruning (the back edge is not executable).
            replacement = [s for s in region.header_phis if s.parent is region]
            for s in replacement:
                s.parent = None
            body.replace(region, list(replacement))
            self.stats.loops_removed += 1
            return
        self._fold_regions(region.body)


def concurrent_constant_propagation(
    program: ProgramIR,
    graph: Optional[FlowGraph] = None,
    fold_output_uses: bool = True,
    structures: Optional[dict[str, MutexStructure]] = None,
) -> ConstPropStats:
    """Run CSCC on a CSSA/CSSAME-form ``program``, in place.

    ``fold_output_uses=False`` keeps ``print`` arguments symbolic (the
    paper's figures do this), so constant stores feeding prints remain
    visible to later passes.  ``structures`` are the mutex structures
    of ``graph`` when the caller already has them (Algorithm A.1 runs
    on demand otherwise).
    """
    if graph is None:
        graph = build_flow_graph(program)
    analysis = _Analysis(program, graph)
    analysis.run()
    stats = ConstPropStats()
    _Transformer(analysis, stats, fold_output_uses, structures).run()
    record_work(
        "constprop",
        lattice_evals=analysis.evals,
        executable_blocks=len(analysis.executable_blocks),
        executable_edges=len(analysis.executable_edges),
        constants=len(stats.constants),
        uses_replaced=stats.uses_replaced,
    )
    return stats
