"""Lockset-based potential race detection (Section 6)."""

from repro.session import Session
from tests.conftest import FIGURE2_SOURCE


def races_of(source):
    _warnings, races = Session().diagnose(source)
    return races


class TestRaces:
    def test_fully_protected_no_race(self):
        races = races_of(FIGURE2_SOURCE)
        assert races == []

    def test_unprotected_write_write(self):
        races = races_of(
            "cobegin begin v = 1; end begin v = 2; end coend print(v);"
        )
        kinds = {r.kind for r in races}
        assert "write-write" in kinds
        assert all(r.var == "v" for r in races)

    def test_unprotected_write_read(self):
        races = races_of(
            "cobegin begin v = 1; end begin x = v; end coend print(x);"
        )
        assert any(r.kind == "write-read" for r in races)

    def test_inconsistent_locks_detected(self):
        # One thread protects v with A, the other with B.
        races = races_of(
            """
            cobegin
            begin lock(A); v = 1; unlock(A); end
            begin lock(B); v = 2; unlock(B); end
            coend
            print(v);
            """
        )
        assert any(r.var == "v" for r in races)
        r = next(r for r in races if r.var == "v")
        assert r.locks_a != r.locks_b or not (r.locks_a & r.locks_b)

    def test_partially_protected_detected(self):
        races = races_of(
            """
            cobegin
            begin lock(A); v = 1; unlock(A); end
            begin v = 2; end
            coend
            print(v);
            """
        )
        assert any(r.var == "v" and r.kind == "write-write" for r in races)

    def test_same_lock_everywhere_clean(self):
        races = races_of(
            """
            cobegin
            begin lock(A); v = v + 1; unlock(A); end
            begin lock(A); v = v + 2; unlock(A); end
            coend
            print(v);
            """
        )
        assert races == []

    def test_message_mentions_variable(self):
        races = races_of(
            "cobegin begin v = 1; end begin v = 2; end coend print(v);"
        )
        assert "'v'" in races[0].message()

    def test_read_only_sharing_clean(self):
        races = races_of(
            "v = 1; cobegin begin a = v; end begin b = v; end coend print(a, b);"
        )
        assert races == []
