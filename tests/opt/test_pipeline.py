"""The full optimization pipeline."""

import pytest

from repro.ir.structured import count_statements
from repro.opt.pipeline import optimize
from repro.session import Session
from repro.verify import exhaustive_equivalence
from tests.conftest import FIGURE2_SOURCE, build


class TestDriver:
    def test_all_listings_present(self):
        report = Session().optimize(FIGURE2_SOURCE)
        for phase in ("cssame", "constprop", "pdce", "licm", "final"):
            assert phase in report.listings

    def test_cssa_mode_listing_name(self):
        report = Session().optimize(FIGURE2_SOURCE, use_mutex=False)
        assert "cssa" in report.listings

    def test_pass_subset(self):
        report = Session().optimize(FIGURE2_SOURCE, passes=("constprop",))
        assert report.constprop is not None
        assert report.pdce is None and report.licm is None

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError):
            optimize(build("x = 1;"), passes=("nope",))

    def test_baseline_captured(self):
        report = Session().optimize(FIGURE2_SOURCE)
        assert report.baseline is not None
        assert "pi(" in report.listings["cssame"]

    def test_statement_count_shrinks(self):
        report = Session().optimize(FIGURE2_SOURCE)
        assert report.statement_count() < count_statements(report.baseline)


class TestMutexBenefit:
    def test_cssame_beats_cssa(self):
        cssa = Session().optimize(FIGURE2_SOURCE, use_mutex=False)
        cssame = Session().optimize(FIGURE2_SOURCE, use_mutex=True)
        assert cssame.statement_count() < cssa.statement_count()
        assert len(cssame.constprop.constants) > len(cssa.constprop.constants)

    def test_semantics_preserved_both_modes(self):
        for use_mutex in (False, True):
            report = Session().optimize(FIGURE2_SOURCE, use_mutex=use_mutex)
            res = exhaustive_equivalence(report.baseline, report.program)
            assert res.complete
            assert res.equal, res.explain()

    def test_figure_pipeline_order(self):
        report = Session().optimize(FIGURE2_SOURCE, fold_output_uses=False)
        # Fig 4b facts visible after constprop:
        assert "x0 = 13;" in report.listings["constprop"]
        # Fig 5a facts after PDCE:
        assert "a1 = 5;" not in report.listings["pdce"]
        assert "b1 = 8;" in report.listings["pdce"]
        # Fig 5b: x0 = 13 escapes the mutex body after LICM.
        licm_text = report.listings["licm"]
        t0 = licm_text.split("T1:")[0]
        lock_pos = t0.index("lock(L);")
        unlock_pos = t0.index("unlock(L);")
        x_pos = t0.index("x0 = 13;")
        assert not (lock_pos < x_pos < unlock_pos)
