"""repro — a full reproduction of *Concurrent SSA Form in the Presence of
Mutual Exclusion* (Novillo, Unrau, Schaeffer — ICPP 1998).

The package implements the paper's whole stack:

* a small explicitly parallel language (:mod:`repro.lang`),
* the Parallel Flow Graph (:mod:`repro.cfg`),
* sequential SSA with factored use-def chains (:mod:`repro.ssa`),
* CSSA π terms (:mod:`repro.cssa`),
* mutex structures — Algorithm A.1 (:mod:`repro.mutex`),
* the CSSAME form — Theorems 1–2, Algorithms A.2–A.4
  (:mod:`repro.cssame`),
* optimizations: concurrent constant propagation, parallel dead-code
  elimination and lock-independent code motion (:mod:`repro.opt`),
* an interleaving virtual machine with a random scheduler and an
  exhaustive schedule explorer (:mod:`repro.vm`),
* semantic-equivalence checkers (:mod:`repro.verify`) and a random
  program generator (:mod:`repro.synth`).

The public API has two faces.  A :class:`~repro.session.Session` runs
the pipeline's journeys (``analyze``, ``diagnose``, ``optimize``,
``dot``, ``bytecode``) and returns live compiler objects, cached per
stage::

    from repro.session import Session

    session = Session()
    report = session.optimize(source_text)
    print(report.listing())

The one-shot facade returns typed, wire-ready results (the same
payloads ``repro serve`` puts on the network)::

    from repro import api
    result = api.optimize(source_text)
    print(result.listing)
"""

from repro._version import __version__

__all__ = ["api", "session", "__version__"]

from repro import api, session  # noqa: E402  (re-exported surfaces)
