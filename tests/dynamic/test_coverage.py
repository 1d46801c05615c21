"""Schedule-coverage metrics (`ScheduleCoverage`) against the explorer."""

from repro.api import front_end
from repro.dynamic import ScheduleCoverage
from repro.vm.explore import explore
from repro.vm.machine import run_random


class TestScheduleCoverage:
    def test_empty_coverage_has_no_ratios(self):
        cov = ScheduleCoverage()
        assert cov.outcome_coverage is None
        assert cov.ordering_coverage is None
        assert cov.conflict_var_coverage is None
        assert cov.as_dict()["runs"] == 0

    def test_outcome_coverage_fraction(self):
        cov = ScheduleCoverage()
        cov.explored_outcomes = frozenset({("a",), ("b",), ("c",), ("d",)})
        cov.sampled_outcomes = {("a",), ("b",), ("z",)}  # z: fuel-cut noise
        assert cov.outcome_coverage == 0.5
        assert cov.sampled_classes == 3

    def test_ordering_coverage_counts_both_orders(self):
        cov = ScheduleCoverage()
        cov.orderings = {
            ("x", 1, 5): {"ab", "ba"},
            ("y", 2, 7): {"ab"},
        }
        assert cov.conflict_pairs == 2
        assert cov.orderings_exercised == 3
        assert cov.ordering_coverage == 0.75
        assert cov.dynamic_conflict_vars == {"x", "y"}

    def test_conflict_var_coverage(self):
        cov = ScheduleCoverage()
        cov.static_conflict_vars = {"x", "y"}
        cov.orderings = {("x", 1, 5): {"ab"}}
        assert cov.conflict_var_coverage == 0.5

    def test_print_class_reduction(self):
        cov = ScheduleCoverage()
        cov.sampled_outcomes = {
            (("call", "f", (1,)), ("print", (2,))),
            (("call", "f", (9,)), ("print", (2,))),  # same print class
        }
        assert cov.sampled_classes == 2
        assert cov.sampled_print_classes == 1


class TestExplorationCoverageOf:
    def test_sampled_runs_against_explorer(self):
        source = (
            "x = 0;\n"
            "cobegin\nbegin x = 1; end\nbegin x = 2; end\ncoend\nprint(x);\n"
        )
        program = front_end(source)
        result = explore(program)
        assert result.complete
        assert result.print_classes == 2  # prints 1 or 2
        cov = ScheduleCoverage()
        cov.sampled_outcomes = {
            run_random(program, seed=s).output_key() for s in range(24)
        }
        cov.explored_outcomes = result.outcomes
        assert cov.as_dict()["explored_outcome_classes"] == 2
        assert cov.sampled_classes == len(cov.sampled_outcomes & result.outcomes) == 2
        assert cov.sampled_print_classes == result.print_classes
        assert cov.outcome_coverage == 1.0
