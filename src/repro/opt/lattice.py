"""The three-level constant-propagation lattice (Wegman–Zadeck).

``TOP`` — no evidence yet (optimistic); ``ConstValue(c)`` — provably the
integer ``c`` on every execution; ``BOTTOM`` — not a constant.

``meet`` is the lattice meet: ``TOP ∧ x = x``; two equal constants stay;
anything else collapses to ``BOTTOM``.
"""

from __future__ import annotations

from typing import Iterable, Union

__all__ = ["BOTTOM", "TOP", "ConstValue", "LatticeValue", "meet", "meet_all"]


class _Top:
    __slots__ = ()

    def __repr__(self) -> str:
        return "TOP"


class _Bottom:
    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTTOM"


TOP = _Top()
BOTTOM = _Bottom()


class ConstValue:
    """A known integer constant."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstValue) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("const", self.value))

    def __repr__(self) -> str:
        return f"Const({self.value})"


LatticeValue = Union[_Top, _Bottom, ConstValue]


def meet(a: LatticeValue, b: LatticeValue) -> LatticeValue:
    """Lattice meet of two values."""
    if a is TOP:
        return b
    if b is TOP:
        return a
    if a is BOTTOM or b is BOTTOM:
        return BOTTOM
    if isinstance(a, ConstValue) and isinstance(b, ConstValue):
        return a if a.value == b.value else BOTTOM
    raise TypeError(f"not lattice values: {a!r}, {b!r}")  # pragma: no cover


def meet_all(values: Iterable[LatticeValue]) -> LatticeValue:
    """Meet of a sequence (TOP when empty)."""
    result: LatticeValue = TOP
    for value in values:
        result = meet(result, value)
        if result is BOTTOM:
            return BOTTOM
    return result
