"""BatchSession: ordering, error isolation, serial/process parity."""

import os

import pytest

from repro.session import BatchSession, FileResult, Session
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE

GOOD = {
    "a_fig2.par": FIGURE2_SOURCE,
    "b_fig1.par": FIGURE1_SOURCE,
    "c_race.par": "cobegin begin v = 1; end begin v = 2; end coend print(v);",
}
BROKEN = "lock(L; a = ;"


@pytest.fixture
def corpus(tmp_path):
    for name, source in GOOD.items():
        (tmp_path / name).write_text(source)
    (tmp_path / "z_broken.par").write_text(BROKEN)
    (tmp_path / "notes.txt").write_text("not a program")
    return str(tmp_path)


def _paths(corpus):
    return [
        os.path.join(corpus, n)
        for n in ("a_fig2.par", "b_fig1.par", "c_race.par", "z_broken.par")
    ]


class TestSerial:
    def test_results_in_input_order(self, corpus):
        results = BatchSession(jobs=1).run(_paths(corpus))
        assert [os.path.basename(r.path) for r in results] == [
            "a_fig2.par", "b_fig1.par", "c_race.par", "z_broken.par",
        ]

    def test_error_isolation(self, corpus):
        results = BatchSession(jobs=1).run(_paths(corpus))
        ok = [r for r in results if r.ok]
        bad = [r for r in results if not r.ok]
        assert len(ok) == 3 and len(bad) == 1
        assert bad[0].path.endswith("z_broken.par")
        assert bad[0].error and "Error" in bad[0].error
        # neighbours are untouched by the failure
        assert ok[2].races  # the planted race is still reported

    def test_missing_file_is_isolated_too(self, corpus):
        paths = _paths(corpus) + [os.path.join(corpus, "ghost.par")]
        results = BatchSession(jobs=1).run(paths)
        assert results[-1].ok is False
        assert "FileNotFoundError" in results[-1].error

    def test_run_dir_picks_par_files_only(self, corpus):
        results = BatchSession(jobs=1).run_dir(corpus)
        assert len(results) == 4  # notes.txt skipped
        assert all(r.path.endswith(".par") for r in results)

    def test_shared_session_caches_repeats(self, corpus):
        session = Session()
        batch = BatchSession(jobs=1, session=session)
        batch.run(_paths(corpus))
        batch.run(_paths(corpus))
        assert session.cache_stats().hits > 0


class TestParallel:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_executors_match_serial(self, corpus, jobs):
        serial = BatchSession(jobs=1).run(_paths(corpus))
        parallel = BatchSession(jobs=jobs).run(_paths(corpus))
        assert [r.path for r in parallel] == [r.path for r in serial]
        for s, p in zip(serial, parallel):
            assert (s.ok, s.error, s.warnings, s.races, s.metrics) == (
                p.ok, p.error, p.warnings, p.races, p.metrics,
            )

    def test_optimize_payload(self, corpus):
        results = BatchSession(jobs=2, optimize=True).run(
            [os.path.join(corpus, "a_fig2.par")]
        )
        assert results[0].optimize is not None
        assert results[0].optimize["removed"] >= 1


class TestValidation:
    def test_bad_jobs(self):
        with pytest.raises(ValueError):
            BatchSession(jobs=0)

    def test_summary_lines(self, corpus):
        results = BatchSession(jobs=1).run(_paths(corpus))
        assert results[0].summary().endswith("warnings=0 races=0")
        assert "ERROR" in results[-1].summary()

    def test_file_result_shape(self):
        result = FileResult(path="x.par", ok=False, error="boom")
        assert result.warnings == [] and result.metrics == {}


class TestCacheLookups:
    def test_process_pool_reports_the_serial_lookups(self, corpus):
        # No two files share an artifact, so every file makes the same
        # lookups on a shared session as on a worker's fresh one.
        serial = BatchSession(jobs=1).run(_paths(corpus))
        pooled = BatchSession(jobs=2).run(_paths(corpus))
        assert [r.cache for r in pooled] == [r.cache for r in serial]
        assert serial[0].cache["ast"] == {"hits": 0, "misses": 1}
        assert "diagnostics" in serial[0].cache
        # the broken file's journey missed its way down to the parse
        miss = {"hits": 0, "misses": 1}
        assert serial[-1].cache == {"cssame": miss, "ir": miss, "ast": miss}

    def test_repeat_on_a_shared_session_is_all_hits(self, corpus):
        path = os.path.join(corpus, "a_fig2.par")
        first, again = BatchSession(jobs=1).run([path, path])
        assert sum(e["misses"] for e in first.cache.values()) > 0
        assert sum(e["misses"] for e in again.cache.values()) == 0
