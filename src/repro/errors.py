"""Exception hierarchy and the machine-readable error taxonomy.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Front-end problems (lexing/parsing) carry source
positions; semantic and analysis errors carry enough context to be
actionable in tests and diagnostics.

Every error additionally maps to a **stable machine-readable code**
(``E_PARSE``, ``E_ANALYSIS``, ``E_TIMEOUT``, ...).  The code — not the
Python class name — is the contract: the CLI derives its exit codes
from it, ``repro serve`` puts it in every error frame on the wire, and
``docs/API.md`` documents the full table.  Three rules keep it one
source of truth:

* every :class:`ReproError` subclass declares its ``code``;
* :func:`error_code` classifies *any* exception (OS errors → ``E_IO``,
  everything unknown → ``E_INTERNAL`` — a bug, never a user error);
* :func:`exit_code_for` maps codes onto the CLI exit-code contract
  (0 ok, 1 findings, 2 deadlock, 3 input/usage error, 4 service error).
"""

from __future__ import annotations

__all__ = [
    "ALL_CODES",
    "AnalysisError",
    "CFGError",
    "DeadlineExceeded",
    "DeadlockError",
    "E_ANALYSIS",
    "E_DEADLOCK",
    "E_INTERNAL",
    "E_IO",
    "E_OVERLOADED",
    "E_PARSE",
    "E_PROTOCOL",
    "E_SEMANTIC",
    "E_SHUTDOWN",
    "E_TIMEOUT",
    "E_UNSUPPORTED",
    "E_USAGE",
    "E_VM",
    "EXIT_DEADLOCK",
    "EXIT_ERROR",
    "EXIT_FINDINGS",
    "EXIT_OK",
    "EXIT_SERVICE",
    "LexError",
    "OverloadedError",
    "ParseError",
    "ProtocolError",
    "RemoteError",
    "ReproError",
    "SSAError",
    "SemanticError",
    "ServeError",
    "ShuttingDown",
    "SourceLocation",
    "StepLimitExceeded",
    "TransformError",
    "UnsupportedRequest",
    "UsageError",
    "VMError",
    "error_code",
    "error_frame",
    "exit_code_for",
]


# -- the taxonomy: stable, machine-readable codes ---------------------------

#: the source program does not lex/parse
E_PARSE = "E_PARSE"
#: structurally valid program violating a semantic rule
E_SEMANTIC = "E_SEMANTIC"
#: CFG/SSA/mutex/dataflow analysis or transform failure
E_ANALYSIS = "E_ANALYSIS"
#: runtime error inside the interleaving VM
E_VM = "E_VM"
#: execution (or exploration) deadlocked
E_DEADLOCK = "E_DEADLOCK"
#: a deadline or step/fuel budget was exceeded
E_TIMEOUT = "E_TIMEOUT"
#: the service's request queue is full — retry with backoff
E_OVERLOADED = "E_OVERLOADED"
#: the service is draining and no longer accepts work
E_SHUTDOWN = "E_SHUTDOWN"
#: a malformed request/response frame on the wire
E_PROTOCOL = "E_PROTOCOL"
#: a well-formed request asking for something this server cannot do
E_UNSUPPORTED = "E_UNSUPPORTED"
#: file-system / network trouble reading inputs or writing outputs
E_IO = "E_IO"
#: bad command-line usage
E_USAGE = "E_USAGE"
#: an unexpected exception — always a bug, never a user error
E_INTERNAL = "E_INTERNAL"

#: every code, in documentation order (the ``docs/API.md`` table)
ALL_CODES = (
    E_PARSE,
    E_SEMANTIC,
    E_ANALYSIS,
    E_VM,
    E_DEADLOCK,
    E_TIMEOUT,
    E_OVERLOADED,
    E_SHUTDOWN,
    E_PROTOCOL,
    E_UNSUPPORTED,
    E_IO,
    E_USAGE,
    E_INTERNAL,
)


# -- the CLI exit-code contract ---------------------------------------------

EXIT_OK = 0
#: diagnostics/audit findings under ``--strict``
EXIT_FINDINGS = 1
#: the executed/explored program can deadlock
EXIT_DEADLOCK = 2
#: usage or input error (parse error, missing file, bad request, ...)
EXIT_ERROR = 3
#: the compile service refused or failed the request (retryable codes
#: land here too so scripts can distinguish "bad input" from "bad day")
EXIT_SERVICE = 4

_EXIT_BY_CODE = {
    E_PARSE: EXIT_ERROR,
    E_SEMANTIC: EXIT_ERROR,
    E_ANALYSIS: EXIT_ERROR,
    E_VM: EXIT_ERROR,
    E_DEADLOCK: EXIT_DEADLOCK,
    E_TIMEOUT: EXIT_SERVICE,
    E_OVERLOADED: EXIT_SERVICE,
    E_SHUTDOWN: EXIT_SERVICE,
    E_PROTOCOL: EXIT_SERVICE,
    E_UNSUPPORTED: EXIT_ERROR,
    E_IO: EXIT_ERROR,
    E_USAGE: EXIT_ERROR,
    E_INTERNAL: EXIT_SERVICE,
}


def exit_code_for(code: str) -> int:
    """The CLI exit code for a taxonomy ``code`` (unknown → error)."""
    return _EXIT_BY_CODE.get(code, EXIT_ERROR)


class ReproError(Exception):
    """Base class for every error raised by this library."""

    #: machine-readable taxonomy code; subclasses override
    code: str = E_INTERNAL


class SourceLocation:
    """A (line, column) position in a source buffer.

    Lines and columns are 1-based, matching what editors display.
    """

    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int) -> None:
        self.line = int(line)
        self.column = int(column)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SourceLocation({self.line}, {self.column})"

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SourceLocation)
            and self.line == other.line
            and self.column == other.column
        )

    def __hash__(self) -> int:
        return hash((self.line, self.column))


class LexError(ReproError):
    """An unrecognised character or malformed token in the source."""

    code = E_PARSE

    def __init__(self, message: str, location: SourceLocation) -> None:
        super().__init__(f"{location}: {message}")
        self.location = location


class ParseError(ReproError):
    """The token stream does not form a valid program."""

    code = E_PARSE

    def __init__(self, message: str, location: SourceLocation) -> None:
        super().__init__(f"{location}: {message}")
        self.location = location


class SemanticError(ReproError):
    """A structurally valid program that violates a semantic rule.

    Examples: assigning to a lock variable, using a variable declared
    ``private`` in two different threads of the same cobegin.
    """

    code = E_SEMANTIC


class UsageError(ReproError):
    """A command line the CLI cannot accept: an unknown or missing
    argument, or an option value outside its range."""

    code = E_USAGE


class UsageError(ReproError):
    """A command line the CLI cannot accept: an unknown or missing
    argument, or an option value outside its range."""

    code = E_USAGE


class CFGError(ReproError):
    """Internal inconsistency while building or querying a flow graph."""

    code = E_ANALYSIS


class SSAError(ReproError):
    """Internal inconsistency in SSA construction or FUD chains."""

    code = E_ANALYSIS


class AnalysisError(ReproError):
    """A dataflow or mutex analysis was asked something it cannot answer."""

    code = E_ANALYSIS


class TransformError(ReproError):
    """An optimization pass attempted an ill-formed rewrite."""

    code = E_ANALYSIS


class VMError(ReproError):
    """Runtime error inside the interleaving virtual machine."""

    code = E_VM


class DeadlockError(VMError):
    """Every live thread is blocked; execution cannot make progress.

    Carries the set of lock names held and the blocked thread ids so the
    exhaustive explorer can report *which* schedule deadlocks.
    """

    code = E_DEADLOCK

    def __init__(self, blocked_threads, held_locks) -> None:
        self.blocked_threads = tuple(sorted(blocked_threads))
        self.held_locks = dict(held_locks)
        super().__init__(
            f"deadlock: threads {list(self.blocked_threads)} blocked, "
            f"locks held: {self.held_locks}"
        )


class StepLimitExceeded(VMError):
    """The VM executed more steps than the configured fuel allows."""

    code = E_TIMEOUT

    def __init__(self, limit: int) -> None:
        self.limit = limit
        super().__init__(f"execution exceeded {limit} steps (possible livelock)")


# -- service errors (repro.serve) -------------------------------------------


class ServeError(ReproError):
    """Base class for compile-service failures (client or server side)."""

    code = E_INTERNAL


class OverloadedError(ServeError):
    """The server's request queue is at capacity; retry with backoff."""

    code = E_OVERLOADED

    def __init__(self, depth: int, limit: int) -> None:
        self.depth = depth
        self.limit = limit
        super().__init__(f"queue full ({depth}/{limit} requests in flight)")


class DeadlineExceeded(ServeError):
    """A request missed its per-stage deadline."""

    code = E_TIMEOUT

    def __init__(self, stage: str, deadline_ms: float) -> None:
        self.stage = stage
        self.deadline_ms = deadline_ms
        super().__init__(f"stage {stage!r} exceeded its {deadline_ms:g}ms deadline")


class ShuttingDown(ServeError):
    """The server is draining; it finishes in-flight work but takes no more."""

    code = E_SHUTDOWN

    def __init__(self) -> None:
        super().__init__("server is draining and no longer accepts requests")


class ProtocolError(ServeError):
    """A frame on the wire is not a valid request/response."""

    code = E_PROTOCOL


class UnsupportedRequest(ServeError):
    """A well-formed request for a stage/kind this server does not serve."""

    code = E_UNSUPPORTED


class RemoteError(ServeError):
    """Client-side surrogate for an error frame returned by the server.

    Carries the server's taxonomy ``code`` verbatim, so a caller's
    handling (and the CLI's exit code) is identical whether the failure
    happened in-process or across the wire.
    """

    def __init__(self, code: str, message: str, detail: dict | None = None) -> None:
        self.code = code
        self.detail = dict(detail or {})
        super().__init__(message)


# -- classification ----------------------------------------------------------


def error_code(exc: BaseException) -> str:
    """The taxonomy code of any exception.

    :class:`ReproError` subclasses carry their own code; OS-level
    trouble is ``E_IO``; anything else is ``E_INTERNAL`` (a bug).
    """
    if isinstance(exc, ReproError):
        return exc.code
    if isinstance(exc, (OSError, EOFError)):
        return E_IO
    if isinstance(exc, (TimeoutError,)):
        return E_TIMEOUT
    return E_INTERNAL


def error_frame(exc: BaseException) -> dict:
    """The wire/JSON form of an exception: code + type + message.

    This is the exact ``error`` object of a server response frame and
    of ``repro request --json`` output; :func:`error_code` guarantees
    ``code`` is always one of :data:`ALL_CODES`.
    """
    frame = {
        "code": error_code(exc),
        "type": type(exc).__name__,
        "message": str(exc),
    }
    location = getattr(exc, "location", None)
    if location is not None:
        frame["line"] = location.line
        frame["column"] = location.column
    detail = getattr(exc, "detail", None)
    if detail:
        frame["detail"] = dict(detail)
    return frame
