"""Tests for the fidelity scorecard."""

import pytest

from repro.errors import AnalysisError
from repro.validation import (
    CHECKS,
    Check,
    grade,
    pass_fraction,
    scorecard,
    validate_dataset,
)


class TestGrade:
    def test_ratio_band(self):
        check = Check("f", "x", kind="ratio", low=0.5, high=2.0)
        assert grade(check, 10.0, 10.0)
        assert grade(check, 10.0, 5.0)
        assert grade(check, 10.0, 20.0)
        assert not grade(check, 10.0, 4.9)
        assert not grade(check, 10.0, 21.0)

    def test_ratio_zero_paper_falls_back_to_abs(self):
        check = Check("f", "x", kind="ratio", tolerance=0.1)
        assert grade(check, 0.0, 0.05)
        assert not grade(check, 0.0, 0.2)

    def test_upper_bound(self):
        check = Check("f", "x", kind="upper", tolerance=0.0)
        assert grade(check, 0.1, 0.05)
        assert not grade(check, 0.1, 0.15)

    def test_lower_bound(self):
        check = Check("f", "x", kind="lower", tolerance=0.0)
        assert grade(check, 0.6, 0.7)
        assert not grade(check, 0.6, 0.5)

    def test_abs_tolerance(self):
        check = Check("f", "x", kind="abs", tolerance=0.05)
        assert grade(check, 0.6, 0.64)
        assert not grade(check, 0.6, 0.7)

    def test_unknown_kind_rejected(self):
        with pytest.raises(AnalysisError):
            grade(Check("f", "x", kind="fuzzy"), 1.0, 1.0)


class TestScorecard:
    def test_checks_reference_real_figures(self):
        from repro.figures.registry import all_figures

        figure_ids = set(all_figures())
        assert {c.figure_id for c in CHECKS} <= figure_ids

    def test_validate_runs_most_checks(self, medium_dataset):
        import math

        results = validate_dataset(medium_dataset)
        assert sum(not math.isnan(r.measured) for r in results) >= 0.9 * len(CHECKS)

    def test_medium_dataset_mostly_passes(self, medium_dataset):
        results = validate_dataset(medium_dataset)
        assert pass_fraction(results) >= 0.8

    def test_scorecard_table_columns(self, medium_dataset):
        table = scorecard(validate_dataset(medium_dataset))
        assert set(table.column_names) == {
            "figure", "statistic", "kind", "paper", "measured", "passed",
        }

    def test_missing_statistic_fails_by_name(self, small_dataset):
        """A check whose statistic its figure did not emit is graded
        failed, with NaN measured, and lowers the pass fraction."""
        import dataclasses
        import math

        dataset = dataclasses.replace(small_dataset)
        full = validate_dataset(dataset)
        dropped = "single-GPU job fraction"
        fig13 = dataset.figure_results["fig13"]
        dataset.figure_results["fig13"] = dataclasses.replace(
            fig13, comparisons=[c for c in fig13.comparisons if c.name != dropped]
        )
        results = validate_dataset(dataset)
        assert [r.check for r in results] == list(CHECKS)
        (missing,) = [r for r in results if r.check.name == dropped]
        assert not missing.passed and math.isnan(missing.measured)
        kept = [(r.check, r.measured, r.passed) for r in results if r is not missing]
        assert kept == [(r.check, r.measured, r.passed) for r in full if r.check.name != dropped]
        assert pass_fraction(results) == sum(passed for _, _, passed in kept) / len(CHECKS)

    def test_pass_fraction_empty_rejected(self):
        with pytest.raises(AnalysisError):
            pass_fraction([])
