"""The ``repro batch`` command."""

import pytest

from repro.cli import main
from tests.conftest import FIGURE1_SOURCE, FIGURE2_SOURCE


@pytest.fixture
def corpus(tmp_path):
    (tmp_path / "fig1.par").write_text(FIGURE1_SOURCE)
    (tmp_path / "fig2.par").write_text(FIGURE2_SOURCE)
    return str(tmp_path)


class TestBatch:
    def test_one_line_per_file(self, corpus, capsys):
        assert main(["batch", corpus, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig1.par: ok" in out
        assert "fig2.par: ok" in out
        assert "// 2 file(s), 0 error(s)" in out

    def test_serial_default(self, corpus, capsys):
        assert main(["batch", corpus]) == 0
        assert "// 2 file(s)" in capsys.readouterr().out

    def test_process_executor(self, corpus, capsys):
        assert main(["batch", corpus, "--jobs", "2"]) == 0
        assert "fig2.par: ok" in capsys.readouterr().out

    def test_cache_stats_table(self, corpus, capsys):
        assert main(["batch", corpus, "--cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "== artifact cache ==" in out
        assert "total" in out

    def test_optimize_flag(self, corpus, capsys):
        assert main(["batch", corpus, "--optimize"]) == 0
        assert "removed=" in capsys.readouterr().out

    def test_bad_file_is_reported_not_fatal(self, corpus, tmp_path, capsys):
        (tmp_path / "zz_bad.par").write_text("lock(;")
        assert main(["batch", corpus, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "zz_bad.par: ERROR" in out
        assert "// 3 file(s), 1 error(s)" in out

    def test_strict_gates_on_errors(self, corpus, tmp_path, capsys):
        (tmp_path / "zz_bad.par").write_text("lock(;")
        assert main(["batch", corpus, "--strict"]) == 1
        assert main(["batch", corpus, "--no-strict"]) == 0

    def test_empty_directory_is_an_input_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", str(empty)]) == 3
        assert "no .par files" in capsys.readouterr().err

    def test_missing_directory(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        code = main(["batch", missing])
        assert code == 3

    def test_cache_stats_cover_worker_processes(self, corpus, capsys):
        # Distinct files share no artifacts, so a serial run and a
        # process pool make the same lookups; the table must show them
        # all, not only the coordinator's.
        tables = []
        for jobs in ("1", "2"):
            assert main(["batch", corpus, "--jobs", jobs, "--cache-stats"]) == 0
            out = capsys.readouterr().out
            tables.append(out[out.index("== artifact cache =="):])
        assert tables[0] == tables[1]
        total = tables[1].splitlines()[-1].split()
        assert total[0] == "total" and int(total[2]) > 0
