"""The ``serve`` workload: a real ``repro serve`` daemon under load.

The daemon runs with ``--jobs 2`` and a temporary ``--store``.  One load
process drives it over 2 :class:`~repro.serve.client.ServeClient`
connections, one thread each, in a closed loop; with the daemon's 2
workers that is no more threads or connections than the 2 cores of the
reference machine.  The load process pins itself to one CPU before it
spawns a daemon, and the daemon inherits that.  A request passes
between threads of the two processes several times; spread over two
CPUs of a shared host, each pass waited for the other CPU to be
scheduled, and throughput spread by 28 % over ten runs while the
single-threaded workloads spread by 5–7 %.  On one CPU, runs
interleaved with unpinned ones ranged over 6 % against 26 % and were
15 % faster.  Requests mix ``diagnostics``, ``optimized``,
``analyze`` and ``dot`` over small sources: generated programs of
100–300 statements and frozen copies of ``examples/*.par``
(``perfbench/corpus``).  Nineteen requests in twenty repeat an entry of
the hot set, which set-up filled, so they hit the cache.  Every
twentieth names a source the daemon has never seen, so it misses: two
in three are generated programs of 100 statements, one in three is a
corpus program under a comment that names the edit, as an editor that
polls the daemon sends it.  Without those fresh sources the run would
turn into all cache hits within seconds.

The traffic mix rests on no usage data; none exists for ``repro
serve``.  It was picked for steady figures, and the four stages are
asked for equally often.  The daemon's workers share one interpreter
lock, so a heavy request (a 600-statement program, hit or miss, takes
30–300 ms) slows whatever request runs beside it; with such requests in
the mix the median latency moved by a third to a half between runs.
A hit on a corpus program does well under a millisecond of work, so a
median over such hits measures thread wake-ups more than the daemon:
with two CPU-bound neighbours it rose 3.5–4.3 times while throughput
fell 2.7–3 times.  Hits on the hot set's generated programs do a few
milliseconds of work and slowed in step with throughput.  The corpus
therefore only feeds misses.  A 20-second run collects several thousand
latency samples on a 2-core machine.  The end-to-end figures depend on
that mix: ``latency_p50_ms`` is in effect a hit latency and
``latency_p99_ms`` the latency of a generated miss.  The traced run
reports hits and misses apart (``serve.hit_p50_ms``,
``serve.miss_p50_ms``), so a change shows which of them it moved.

Per-request overhead takes the time here: the protocol, the tracer
absorb, key derivation, the store spill and the worker pool.  The
hit/miss split uses the session layer both ways, so a change that
speeds hits and slows misses shows.

Checks: every response must equal the in-process
``api.compile_source(...).as_dict()`` for the same request, except the
fields that record what the daemon happened to have cached (``work``
and the provenance's ``cache_hits`` / ``cache_misses``).  A request
answered only after a retry (``E_OVERLOADED``, a dropped connection)
and a SIGTERM drain that is not clean each count as a failed op.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, Optional

from repro import api
from repro.ir.structured import count_statements
from repro.obs.trace import NULL_TRACER, Tracer, use_tracer
from repro.serve.client import RetryPolicy, ServeClient
from repro.session import Session

from perfbench import common
from perfbench.gen import Shape, generate

JOBS = 2
CLIENTS = 2
STAGES = ("diagnostics", "optimized", "analyze", "dot")
#: session stages a request of :data:`STAGES` can compute
SESSION_STAGES = ("ast", "ir", "cssame", "diagnostics", "optimized", "dot")
#: every FRESH_EVERY-th request of a client names a never-seen source;
#: chosen for steadiness, not from usage (see the module docstring)
FRESH_EVERY = 20
HOT_SIZES = (100, 150, 200, 250, 300)
#: statements of a generated never-seen source
FRESH_SIZE = 100
SHAPE = Shape(shared_vars=4, critical=0.5, shared=0.3)
CORPUS = os.path.join(common.HERE, "corpus")
#: the daemon's ``--queue-limit``; ``None`` keeps its default (4 × jobs)
QUEUE_LIMIT: Optional[int] = None
RETRY = RetryPolicy()
CLIENT_TIMEOUT = 120.0
#: traced load: each client asks for ``ops`` every POLL_EVERY requests
POLL_EVERY = 25
#: cached requests re-timed for ``session.lookup_ms``
LOOKUPS = 64
#: never-seen requests the memory probe's daemon answers
PROBE_FRESH = 100


@functools.lru_cache(maxsize=None)
def corpus() -> tuple[str, ...]:
    """The frozen copies of ``examples/*.par``."""
    sources = []
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as handle:
            sources.append(handle.read())
    return tuple(sources)


def hot_sources(seed: int) -> list[str]:
    """One generated program per hot size.

    The hot set is the same for every seed: hit latency depends on which
    payloads are hot, and a seed-dependent hot set spread it widely
    across seeds.  The seed picks the request order and the fresh sources.
    """
    return [generate(f"serve-hot:{i}", SHAPE, size) for i, size in enumerate(HOT_SIZES)]


def fresh_request(seed: int, k: int) -> tuple[str, str]:
    """The ``k``-th never-seen ``(source, stage)``: a generated program,
    or for every third ``k`` an edited corpus program.  The stages cycle,
    and every corpus program meets every stage."""
    stage = STAGES[k // 3 % len(STAGES)]
    if k % 3 < 2:
        return generate(f"serve-fresh:{seed}:{k}", SHAPE, FRESH_SIZE), stage
    programs = corpus()
    return f"// edit {seed}:{k}\n" + programs[k // 12 % len(programs)], stage


def comparable(result: dict) -> dict:
    """A result payload minus what depends on the daemon's cache state."""
    kept = {name: value for name, value in result.items() if name != "work"}
    kept["provenance"] = {
        name: value
        for name, value in result["provenance"].items()
        if name not in ("cache_hits", "cache_misses")
    }
    return kept


@dataclass
class Request:
    source: str
    stage: str
    fresh: bool
    frame: Optional[dict] = None
    error: Optional[str] = None
    latency: float = 0.0
    retries: int = 0


class Daemon:
    """One ``repro serve`` process with a temporary store of its own."""

    def __init__(self) -> None:
        os.makedirs(common.WORK_DIR, exist_ok=True)
        self.store = tempfile.mkdtemp(prefix="store-", dir=common.WORK_DIR)
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--jobs", str(JOBS), "--store", self.store,
        ]
        if QUEUE_LIMIT is not None:
            command += ["--queue-limit", str(QUEUE_LIMIT)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (common.SRC, env.get("PYTHONPATH"))))
        self.proc = subprocess.Popen(
            command,
            cwd=common.ROOT,
            env=env,
            text=True,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        ready = self.proc.stdout.readline()
        if "listening on " not in ready:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {ready!r}")
        self.port = int(ready.split("listening on ")[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> bool:
        """SIGTERM the daemon and wait; True when it drained cleanly."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
            clean = self.proc.returncode == 0 and "drained" in out
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            clean = False
        shutil.rmtree(self.store, ignore_errors=True)
        return clean


class ServeWorkload:
    """One run of ``serve`` (see the module docstring)."""

    def __init__(self, seed: int) -> None:
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.seed = seed
        self.daemon: Optional[Daemon] = None
        self.sources: list[str] = []
        self.hot: list[tuple[str, str]] = []
        self.loads = 0
        self.rss_mb = 0.0
        self._fresh = itertools.count()
        self._fresh_lock = threading.Lock()

    def _client(self, **kwargs) -> ServeClient:
        return ServeClient(
            port=self.daemon.port, timeout=CLIENT_TIMEOUT, retry=RETRY, **kwargs
        )

    def prepare(self, tally: common.Tally) -> None:
        """Spawn the daemon and fill the hot set: the set-up time."""
        self.sources = hot_sources(self.seed)
        self.hot = [(source, stage) for source in self.sources for stage in STAGES]
        self.daemon = Daemon()
        with self._client() as client:
            for source, stage in self.hot:
                tally.attempted += 1
                frame = client.request(source, stage)
                if not frame["ok"]:
                    tally.fail(f"set-up {stage}: {frame['error']['code']}")

    def close(self, tally: common.Tally) -> None:
        if self.daemon is None:
            return
        daemon, self.daemon = self.daemon, None
        tally.attempted += 1
        if not daemon.stop():
            tally.fail("SIGTERM drain was not clean")

    def peak_rss_mb(self) -> float:
        """Peak resident set of the memory probe's daemon, MiB."""
        return self.rss_mb

    def _memory_probe(self, tally: common.Tally) -> float:
        """Peak resident set (MiB) of a fresh daemon doing a fixed amount
        of work: filling the hot set, then answering the run's first
        PROBE_FRESH never-seen requests.

        The loaded daemon's cache keeps every fresh source, so its own
        peak tracks how many requests the run managed.  The probe runs
        before the load, while this process is still small: the peak of
        a reaped child, as ``getrusage`` reports it, also counts its
        parent's resident set at spawn time.  The set-up daemons, reaped
        earlier, peaked lower.
        """
        loaded, self.daemon = self.daemon, None
        try:
            self.prepare(tally)
            with self._client() as client:
                for k in range(PROBE_FRESH):
                    source, stage = fresh_request(self.seed, k)
                    tally.attempted += 1
                    frame = client.request(source, stage)
                    if not frame["ok"]:
                        tally.fail(f"memory probe {stage}: {frame['error']['code']}")
        finally:
            self.close(tally)
            self.daemon = loaded
        return common.peak_rss_mb(children=True)

    def _plan(self, client: int) -> Iterator[Request]:
        rng = random.Random(f"serve:{self.seed}:{self.loads}:{client}")
        for i in itertools.count(1):
            if i % FRESH_EVERY == 0:
                with self._fresh_lock:
                    k = next(self._fresh)
                source, stage = fresh_request(self.seed, k)
                yield Request(source, stage, fresh=True)
            else:
                source, stage = rng.choice(self.hot)
                yield Request(source, stage, fresh=False)

    def _drive(self, plan, deadline, out, crashes, tracer, depths) -> None:
        """One client's closed loop, on its own thread."""
        retries = 0

        def sleep(delay: float) -> None:
            nonlocal retries
            retries += 1
            time.sleep(delay)

        try:
            with self._client(sleep=sleep) as client:
                while not out or perf_counter() < deadline:
                    request = next(plan)
                    before = retries
                    start = perf_counter()
                    with tracer.span("serve.request", stage=request.stage, fresh=request.fresh):
                        try:
                            request.frame = client.request(request.source, request.stage)
                        except OSError as exc:  # no answer, even after retries
                            request.error = f"{type(exc).__name__}: {exc}"
                    request.latency = perf_counter() - start
                    request.retries = retries - before
                    out.append(request)
                    if depths is not None and len(out) % POLL_EVERY == 0:
                        depths.append(client.ops()["queue_depth"])
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            crashes.append(f"client: {type(exc).__name__}: {exc}")

    def _load(self, seconds: float, tally: common.Tally, traced: bool = False):
        """Both clients for ``seconds``: requests, wall time, tracers, depths."""
        self.loads += 1
        tracers = [Tracer() if traced else NULL_TRACER for _ in range(CLIENTS)]
        outs: list[list[Request]] = [[] for _ in range(CLIENTS)]
        crashes: list[str] = []
        depths: Optional[list[int]] = [] if traced else None
        deadline = perf_counter() + seconds
        threads = [
            threading.Thread(
                target=self._drive,
                args=(self._plan(c), deadline, outs[c], crashes, tracers[c], depths),
            )
            for c in range(CLIENTS)
        ]
        start = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = perf_counter() - start
        requests = [request for out in outs for request in out]
        for request in requests:
            tally.attempted += 1
            tally.latencies.append(request.latency)
            if request.error is not None:
                tally.fail(f"{request.stage}: {request.error}")
            elif not request.frame["ok"]:
                tally.fail(f"{request.stage}: {request.frame['error']['code']}")
            elif request.retries:
                tally.fail(f"{request.stage}: answered after {request.retries} retries")
        for crash in crashes:
            tally.attempted += 1
            tally.fail(crash)
        return requests, elapsed, tracers, depths

    def _verify(self, requests, tally: common.Tally, tracer=NULL_TRACER):
        """Compare every response with the in-process facade's result.

        The hot entries are computed first, untraced: the daemon computed
        them during set-up.  Every other distinct request is computed
        under ``tracer``.  Returns the session and, per request computed
        under ``tracer``, its ``(source, stage)`` key and wall time.
        """
        session = Session()
        expected = {}
        for source, stage in self.hot:
            result = api.compile_source(source, stage, session=session)
            expected[source, stage] = comparable(result.as_dict())
        computed = []
        with use_tracer(tracer):
            for request in requests:
                key = (request.source, request.stage)
                if key in expected:
                    continue
                start = perf_counter()
                result = api.compile_source(request.source, request.stage, session=session)
                computed.append((key, perf_counter() - start))
                expected[key] = comparable(result.as_dict())
        for request in requests:
            frame = request.frame
            if frame is None or not frame["ok"]:
                continue
            if comparable(frame["result"]) != expected[request.source, request.stage]:
                tally.fail(f"{request.stage}: response differs from api.compile_source")
        return session, computed

    def _outputs(self, session: Session, requests, tally: common.Tally) -> dict:
        sizes: dict[str, int] = {}
        pushed = 0
        for request in requests:
            if request.source not in sizes:
                form = session.analyze(request.source, prune=False)
                sizes[request.source] = count_statements(form.program)
            pushed += sizes[request.source]
        programs = [session.optimize(source).program for source in self.sources]
        statements, steps = common.output_size(programs, tally)
        return {"ir_stmts": pushed, "output_stmts": statements, "output_vm_steps": steps}

    def measure(self, seconds: float, tally: common.Tally) -> dict:
        self.rss_mb = self._memory_probe(tally)
        requests, elapsed, _, _ = self._load(seconds, tally)
        session, _ = self._verify(requests, tally)
        return {"elapsed": elapsed, **self._outputs(session, requests, tally)}

    def traced(self, seconds: float, tally: common.Tally) -> dict:
        """Four quarter-length loads on one daemon, untraced, traced,
        traced, untraced, and an in-process replay of their requests
        under a tracer."""
        loads = [self._load(seconds / 4, tally, traced=t) for t in (False, True, True, False)]
        base = loads[0][0] + loads[3][0]
        requests = loads[1][0] + loads[2][0]
        tracers = loads[1][2] + loads[2][2]
        depths = loads[1][3] + loads[2][3]
        # The mirrored order cancels drift out of the overhead, as
        # common.paired_runs does for the other workloads.
        p50 = [statistics.median(r.latency for r in load[0]) for load in loads]
        overhead = statistics.median(
            [common.overhead_pct(p50[0], p50[1]), common.overhead_pct(p50[3], p50[2])]
        )
        with self._client() as client:
            ops = client.ops()
        everything = base + requests
        replay = Tracer()
        session, computed = self._verify(everything, tally, replay)
        values = common.layer_values(replay)

        by_layer = common.self_ms_by_layer(common.self_ms_by_span(replay))
        # The facade's own work outside every stage span (listings, form
        # metrics, result packaging) is the session layer's surface.
        spanned = sum(span.duration for span in replay.spans() if span.depth == 0)
        by_layer["session"] += max(sum(t for _, t in computed) - spanned, 0.0) * 1e3
        # What the clients waited for beyond that compile work is serve.
        waited = sum(request.latency for request in everything) * 1e3
        by_layer["serve"] = max(waited - sum(by_layer.values()), 0.0)
        values.update(common.layer_shares(by_layer))

        sources = {source for (source, _), _ in computed}
        values["ir.stmts"] = sum(
            count_statements(session.analyze(source, prune=False).program)
            for source in sources
        )
        for metric, name in (
            ("cfg.blocks", "work.pfg.blocks"),
            ("cfg.conflict_edges", "work.cssa.conflict_edges"),
            ("cssa.pi_terms", "work.cssa.pi_terms"),
            ("cssa.conflict_args", "work.cssa.conflict_args"),
        ):
            values[metric] = common.counter(replay, name)
        values["cssa.args_per_stmt"] = values["cssa.conflict_args"] / max(values["ir.stmts"], 1)
        values["cssa.peak_alloc_mb"] = common.cssa_peak_alloc_mb(max(self.sources, key=len))

        answered = [r for r in requests if r.frame is not None and r.frame["ok"]]
        values["serve.wire_ms"] = (
            statistics.median(r.latency * 1e3 - r.frame["elapsed_ms"] for r in answered)
            if answered else 0.0
        )
        for name, fresh in (("serve.hit_p50_ms", False), ("serve.miss_p50_ms", True)):
            times = [r.latency * 1e3 for r in base if r.fresh == fresh]
            values[name] = statistics.median(times) if times else 0.0
        for stage in STAGES:
            values[f"serve.stage_p50_ms.{stage}"] = ops["stages"].get(stage, {}).get("p50_ms", 0.0)
        values["serve.store_disk_hits"] = ops["store"]["disk_hits"]
        values["serve.store_spills"] = ops["store"]["spills"]
        values["serve.overloaded"] = ops["requests"]["errors"].get("E_OVERLOADED", 0)
        values["serve.queue_depth_max"] = max(depths, default=0)

        values["session.hit_rate"] = ops["cache"]["hit_rate"]
        computed_ms = defaultdict(list)
        for span in replay.spans():
            if span.name.startswith("stage:") and not span.attrs.get("cache_hit"):
                computed_ms[span.name.removeprefix("stage:")].append(span.duration * 1e3)
        for stage in SESSION_STAGES:
            times = computed_ms[stage]
            values[f"session.compute_ms.{stage}"] = statistics.mean(times) if times else 0.0
        lookups = []
        for (source, stage), _ in computed[:LOOKUPS]:
            start = perf_counter()
            api.compile_source(source, stage, session=session)
            lookups.append(perf_counter() - start)
        values["session.lookup_ms"] = statistics.median(lookups) * 1e3 if lookups else 0.0

        values["obs.trace_overhead_pct"] = overhead
        export = Tracer()
        for tracer in tracers + [replay]:
            export.absorb(tracer)
        common.write_traces(export, "serve")
        return values
