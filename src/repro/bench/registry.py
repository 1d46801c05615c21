"""The benchmark registry — one place every benchmark signs into.

A benchmark is a zero-argument callable that runs a complete, asserted
workload and returns a JSON-serializable payload (the tables its
``benchmarks/bench_*.py`` file prints).  Files register their entry
points with the :func:`register` decorator::

    from repro.bench import register

    @register("figure3", group="fast",
              summary="CSSA vs CSSAME π reduction on the running example")
    def bench_figure3():
        ...
        return {"cssa": cssa, "cssame": cssame}

The registry powers ``repro bench``: :func:`discover` imports every
``benchmarks/bench_*.py`` module (each import registers its entry
points), :func:`select` filters by group or name, and
:mod:`repro.bench.runner` runs what was selected.

Registration metadata:

* ``group`` — selection label; ``"fast"`` is the CI regression-gate
  subset (deterministic, sub-second workloads), ``"slow"`` holds the
  timing-driven benchmarks.
* ``repeat`` — optional cap on the statistical repeat count, for
  benchmarks that measure timing internally or take seconds per run.
* ``profile`` — when False, the runner skips the traced work-counter
  pass; set it on benchmarks whose own measurements an enabled ambient
  tracer would distort (e.g. the tracer-overhead benchmark itself).
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

__all__ = [
    "Benchmark",
    "clear_registry",
    "discover",
    "register",
    "registered",
    "select",
]


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark entry point."""

    name: str
    group: str
    fn: Callable[[], object]
    summary: str = ""
    #: cap on the runner's repeat count (None = no cap)
    repeat: Optional[int] = None
    #: run a traced pass to collect deterministic work counters
    profile: bool = True


_REGISTRY: dict[str, Benchmark] = {}


def register(
    name: str,
    group: str = "fast",
    *,
    summary: str = "",
    repeat: Optional[int] = None,
    profile: bool = True,
) -> Callable[[Callable[[], object]], Callable[[], object]]:
    """Decorator: sign ``fn`` into the registry as ``name``."""

    def decorate(fn: Callable[[], object]) -> Callable[[], object]:
        existing = _REGISTRY.get(name)
        if existing is not None and existing.fn is not fn:
            raise ValueError(f"benchmark {name!r} is already registered")
        bench = Benchmark(
            name=name,
            group=group,
            fn=fn,
            summary=summary or (fn.__doc__ or "").strip().splitlines()[0]
            if (summary or fn.__doc__)
            else "",
            repeat=repeat,
            profile=profile,
        )
        _REGISTRY[name] = bench
        fn.benchmark = bench  # type: ignore[attr-defined]
        return fn

    return decorate


def registered() -> dict[str, Benchmark]:
    """Name → benchmark, insertion-ordered (import order)."""
    return dict(_REGISTRY)


def clear_registry() -> None:
    """Empty the registry (test isolation)."""
    _REGISTRY.clear()


def select(
    group: Optional[str] = None, names: Optional[Iterable[str]] = None
) -> list[Benchmark]:
    """Registered benchmarks filtered by group and/or names, sorted."""
    picked = sorted(_REGISTRY.values(), key=lambda b: b.name)
    if group is not None:
        picked = [b for b in picked if b.group == group]
    if names is not None:
        wanted = set(names)
        unknown = wanted - {b.name for b in picked}
        if unknown:
            raise KeyError(f"unknown benchmark(s): {sorted(unknown)}")
        picked = [b for b in picked if b.name in wanted]
    return picked


def discover(package: str = "benchmarks") -> int:
    """Import every ``bench_*`` module of ``package`` (each import
    registers its benchmarks); returns how many modules were imported.

    Missing package → 0 (an installed wheel has no benchmarks tree).
    """
    try:
        pkg = importlib.import_module(package)
    except ImportError:
        return 0
    count = 0
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name.startswith("bench_"):
            importlib.import_module(f"{package}.{info.name}")
            count += 1
    return count
