"""Intermediate representation.

Two coupled views of a program:

* **Structured IR** (:mod:`repro.ir.structured`) — a mutable tree that
  mirrors the source structure (bodies, if/while regions, cobegin
  regions).  Optimization passes edit this tree, and the printer renders
  it back to source-like listings (including SSA/φ/π forms, as in the
  paper's Figures 3–5).
* **Flow graph** (:mod:`repro.cfg`) — parallel basic blocks referencing
  the *same* statement objects, rebuilt from the structured IR whenever a
  pass needs fresh dataflow facts.

Keeping one set of statement objects shared by both views means an edit
made through either view is immediately visible in the other.
"""

from repro.ir.expr import (
    EBin,
    ECall,
    EConst,
    EUn,
    EVar,
    IRExpr,
    expr_from_ast,
    iter_expr_vars,
    substitute_vars,
)
from repro.ir.stmts import (
    ConflictSet,
    IRStmt,
    SBarrier,
    Phi,
    PhiArg,
    Pi,
    SAssign,
    SBranch,
    SCallStmt,
    SLock,
    SPrint,
    SSetEvent,
    SSkip,
    SUnlock,
    SWaitEvent,
)
from repro.ir.structured import (
    Body,
    CobeginRegion,
    IfRegion,
    ProgramIR,
    Region,
    ThreadRegion,
    WhileRegion,
    clone_program,
    iter_statements,
    remove_stmt,
)
from repro.ir.lower import lower_program
from repro.ir.printer import format_ir

__all__ = [
    "Body",
    "CobeginRegion",
    "ConflictSet",
    "EBin",
    "ECall",
    "EConst",
    "EUn",
    "EVar",
    "IRExpr",
    "IRStmt",
    "IfRegion",
    "Phi",
    "PhiArg",
    "Pi",
    "ProgramIR",
    "Region",
    "SAssign",
    "SBarrier",
    "SBranch",
    "SCallStmt",
    "SLock",
    "SPrint",
    "SSetEvent",
    "SSkip",
    "SUnlock",
    "SWaitEvent",
    "ThreadRegion",
    "WhileRegion",
    "clone_program",
    "expr_from_ast",
    "format_ir",
    "iter_expr_vars",
    "iter_statements",
    "lower_program",
    "remove_stmt",
    "substitute_vars",
]
