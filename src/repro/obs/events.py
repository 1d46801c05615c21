"""Typed trace events for the CSSAME stack.

Every decision the paper's algorithms make — which mutex bodies
Algorithm A.1 discovers, which conflict arguments Algorithm A.3 removes
and under which theorem, which pass ran when, what the interleaving VM
scheduled — is modelled as one event class here.  Events are plain
records: construction computes nothing, the tracer stamps ``ts`` when
the event is recorded, and :meth:`Event.as_dict` yields the
JSON-serializable form every exporter consumes.

Event payloads are deterministic functions of the program being
processed (thread ids are rendered as dotted spawn paths, never as
object ids), so two runs of the same pipeline produce identical event
sequences modulo timestamps — a property the test suite locks in.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ContextSwitch",
    "DynamicRaceObserved",
    "Event",
    "HappensBeforeEdge",
    "LockBlockedInterval",
    "LockHeldInterval",
    "MutexBodyDiscovered",
    "PassEnd",
    "PassStart",
    "PiArgRemoved",
    "PiDeleted",
    "REASON_DOES_NOT_REACH_EXIT",
    "REASON_NOT_UPWARD_EXPOSED",
    "VMStep",
    "tid_str",
]

#: Theorem 2 — the protected use is not upward-exposed from its body.
REASON_NOT_UPWARD_EXPOSED = "not-upward-exposed"
#: Theorem 1 — the definition does not reach the exit of its body.
REASON_DOES_NOT_REACH_EXIT = "does-not-reach-exit"


def tid_str(tid: tuple) -> str:
    """Render a VM thread id (spawn path tuple) as a stable string."""
    return "main" if not tid else ".".join(str(i) for i in tid)


class Event:
    """Base class: a timestamped, typed, flat-payload record."""

    kind = "event"
    __slots__ = ("ts",)

    def __init__(self) -> None:
        self.ts = 0.0  # stamped by the tracer at record time

    def payload(self) -> dict:
        """The event-specific fields (JSON-serializable, no timestamp)."""
        return {}

    def as_dict(self) -> dict:
        return {"type": "event", "kind": self.kind, "ts": self.ts, **self.payload()}

    def __repr__(self) -> str:  # pragma: no cover
        fields = " ".join(f"{k}={v!r}" for k, v in self.payload().items())
        return f"<{self.kind} {fields}>"


# -- compilation-side events -------------------------------------------------


class PassStart(Event):
    kind = "pass-start"
    __slots__ = ("pass_name",)

    def __init__(self, pass_name: str) -> None:
        super().__init__()
        self.pass_name = pass_name

    def payload(self) -> dict:
        return {"pass": self.pass_name}


class PassEnd(Event):
    kind = "pass-end"
    __slots__ = ("pass_name", "stats")

    def __init__(self, pass_name: str, stats: Optional[dict] = None) -> None:
        super().__init__()
        self.pass_name = pass_name
        self.stats = dict(stats or {})

    def payload(self) -> dict:
        return {"pass": self.pass_name, "stats": self.stats}


class MutexBodyDiscovered(Event):
    """Algorithm A.1 accepted a candidate ``B_L(n, x)`` mutex body."""

    kind = "mutex-body"
    __slots__ = ("lock", "lock_node", "unlock_node", "num_nodes")

    def __init__(
        self, lock: str, lock_node: int, unlock_node: int, num_nodes: int
    ) -> None:
        super().__init__()
        self.lock = lock
        self.lock_node = lock_node
        self.unlock_node = unlock_node
        self.num_nodes = num_nodes

    def payload(self) -> dict:
        return {
            "lock": self.lock,
            "lock_node": self.lock_node,
            "unlock_node": self.unlock_node,
            "num_nodes": self.num_nodes,
        }


class PiArgRemoved(Event):
    """Algorithm A.3 removed one conflict argument from a π term.

    ``reason`` is :data:`REASON_NOT_UPWARD_EXPOSED` (Theorem 2, judged
    at the protected use) or :data:`REASON_DOES_NOT_REACH_EXIT`
    (Theorem 1, judged at the conflicting definition).
    """

    kind = "pi-arg-removed"
    __slots__ = ("lock", "var", "pi", "arg", "reason")

    def __init__(
        self, lock: str, var: str, pi: str, arg: str, reason: str
    ) -> None:
        super().__init__()
        self.lock = lock
        self.var = var
        self.pi = pi
        self.arg = arg
        self.reason = reason

    def payload(self) -> dict:
        return {
            "lock": self.lock,
            "var": self.var,
            "pi": self.pi,
            "arg": self.arg,
            "reason": self.reason,
        }


class PiDeleted(Event):
    """A π reduced to its control argument was deleted (A.3 lines 21-25)."""

    kind = "pi-deleted"
    __slots__ = ("var", "pi", "redirected_to", "uses_redirected")

    def __init__(
        self, var: str, pi: str, redirected_to: str, uses_redirected: int
    ) -> None:
        super().__init__()
        self.var = var
        self.pi = pi
        self.redirected_to = redirected_to
        self.uses_redirected = uses_redirected

    def payload(self) -> dict:
        return {
            "var": self.var,
            "pi": self.pi,
            "redirected_to": self.redirected_to,
            "uses_redirected": self.uses_redirected,
        }


# -- VM runtime events -------------------------------------------------------


class VMStep(Event):
    """One atomic instruction executed by the interleaving VM."""

    kind = "vm-step"
    __slots__ = ("step", "tid", "op")

    def __init__(self, step: int, tid: tuple, op: str) -> None:
        super().__init__()
        self.step = step
        self.tid = tid
        self.op = op

    def payload(self) -> dict:
        return {"step": self.step, "tid": tid_str(self.tid), "op": self.op}


class ContextSwitch(Event):
    """The scheduler handed the (virtual) CPU to a different thread."""

    kind = "context-switch"
    __slots__ = ("step", "prev_tid", "next_tid")

    def __init__(self, step: int, prev_tid: tuple, next_tid: tuple) -> None:
        super().__init__()
        self.step = step
        self.prev_tid = prev_tid
        self.next_tid = next_tid

    def payload(self) -> dict:
        return {
            "step": self.step,
            "prev": tid_str(self.prev_tid),
            "next": tid_str(self.next_tid),
        }


class LockHeldInterval(Event):
    """One closed hold of a lock: acquire step → release step.

    Emitted when the hold *closes* (at the unlock, or flushed with
    ``open=True`` at run end when the run finished with the lock still
    held, e.g. across a deadlock).  ``from_step``/``to_step`` are
    global-step numbers; exporters with a duration notion (chrome)
    render these as complete events on a per-lock track.
    """

    kind = "lock-held-interval"
    __slots__ = ("lock", "tid", "from_step", "to_step", "open")

    def __init__(
        self, lock: str, tid: tuple, from_step: int, to_step: int, open: bool = False
    ) -> None:
        super().__init__()
        self.lock = lock
        self.tid = tid
        self.from_step = from_step
        self.to_step = to_step
        self.open = open

    def payload(self) -> dict:
        return {
            "lock": self.lock,
            "tid": tid_str(self.tid),
            "from_step": self.from_step,
            "to_step": self.to_step,
            "open": self.open,
        }


class LockBlockedInterval(Event):
    """One contiguous interval a thread spent blocked on a lock.

    Closes when the blocked thread finally acquires (or at run end,
    flushed with ``open=True`` — the deadlock signature)."""

    kind = "lock-blocked-interval"
    __slots__ = ("lock", "tid", "from_step", "to_step", "open")

    def __init__(
        self, lock: str, tid: tuple, from_step: int, to_step: int, open: bool = False
    ) -> None:
        super().__init__()
        self.lock = lock
        self.tid = tid
        self.from_step = from_step
        self.to_step = to_step
        self.open = open

    def payload(self) -> dict:
        return {
            "lock": self.lock,
            "tid": tid_str(self.tid),
            "from_step": self.from_step,
            "to_step": self.to_step,
            "open": self.open,
        }


class HappensBeforeEdge(Event):
    """One cross-thread ordering edge observed by the happens-before
    tracker — the dynamic counterpart of the paper's synchronization
    edges.  ``mechanism`` is one of ``release-acquire`` (per lock),
    ``set-wait`` (per event), ``fork``/``join`` (cobegin/coend), or
    ``barrier``; ``name`` is the lock/event/barrier involved (empty for
    fork/join)."""

    kind = "hb-edge"
    __slots__ = ("step", "mechanism", "src_tid", "dst_tid", "name")

    def __init__(
        self, step: int, mechanism: str, src_tid: tuple, dst_tid: tuple, name: str = ""
    ) -> None:
        super().__init__()
        self.step = step
        self.mechanism = mechanism
        self.src_tid = src_tid
        self.dst_tid = dst_tid
        self.name = name

    def payload(self) -> dict:
        return {
            "step": self.step,
            "mechanism": self.mechanism,
            "src": tid_str(self.src_tid),
            "dst": tid_str(self.dst_tid),
            "name": self.name,
        }


class DynamicRaceObserved(Event):
    """The online detector found two conflicting accesses with
    incomparable vector clocks.  ``step`` is the global step of the
    *second* access (the detection point); the replayable witness lives
    on the :class:`repro.dynamic.hb.DynamicRace` record, not here."""

    kind = "dynamic-race"
    __slots__ = ("step", "var", "race_kind", "tid_a", "pc_a", "tid_b", "pc_b")

    def __init__(
        self,
        step: int,
        var: str,
        race_kind: str,
        tid_a: tuple,
        pc_a: int,
        tid_b: tuple,
        pc_b: int,
    ) -> None:
        super().__init__()
        self.step = step
        self.var = var
        self.race_kind = race_kind
        self.tid_a = tid_a
        self.pc_a = pc_a
        self.tid_b = tid_b
        self.pc_b = pc_b

    def payload(self) -> dict:
        return {
            "step": self.step,
            "var": self.var,
            "race_kind": self.race_kind,
            "tid_a": tid_str(self.tid_a),
            "pc_a": self.pc_a,
            "tid_b": tid_str(self.tid_b),
            "pc_b": self.pc_b,
        }
