"""Tests for the report renderer."""

from repro.figures.registry import all_figures, run_figure
from repro.figures.report import render_markdown, write_report


class TestReport:
    def test_run_all_covers_registry(self, small_dataset, tmp_path):
        text = write_report(small_dataset, tmp_path / "EXPERIMENTS.md").read_text()
        headings = [line.split()[1] for line in text.splitlines() if line.startswith("## ")]
        assert headings == all_figures()
        assert len(headings) >= 21  # 18 paper figures + 3 extensions

    def test_markdown_structure(self, small_dataset):
        results = [run_figure(figure_id, small_dataset) for figure_id in all_figures()]
        text = render_markdown(small_dataset, results)
        assert text.startswith("# EXPERIMENTS")
        assert "## fig04" in text
        assert "| statistic | paper | measured | ratio |" in text

    def test_write_report(self, small_dataset, tmp_path):
        path = write_report(small_dataset, tmp_path / "EXPERIMENTS.md")
        assert path.exists()
        assert "fig15" in path.read_text()
