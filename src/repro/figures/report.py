"""Run every figure and render the paper-vs-measured report.

``python -m repro report`` writes EXPERIMENTS.md from this module.
Entry points accept either a :class:`repro.pipeline.Session` (shared
cached dataset and figure results) or a bare
:class:`~repro.dataset.SupercloudDataset`.
"""

from __future__ import annotations

from pathlib import Path

from repro.dataset import SupercloudDataset
from repro.figures.base import FigureResult
from repro.figures import registry


def run_all(source) -> list[FigureResult]:
    """Run every registered figure against one shared dataset source."""
    return registry.run_all(source)


def render_markdown(dataset: SupercloudDataset, results: list[FigureResult]) -> str:
    """Render the EXPERIMENTS.md body."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerated with `python -m repro report`.  The dataset is the",
        "calibrated synthetic reproduction described in DESIGN.md; the",
        "*shape* of every figure (orderings, crossovers, rough factors)",
        "is the reproduction target, not exact trace equality.",
        "",
        f"Dataset: {dataset.describe()}.",
        "",
    ]
    for result in results:
        lines.append(f"## {result.figure_id} — {result.title}")
        lines.append("")
        lines.append("| statistic | paper | measured | ratio |")
        lines.append("|---|---|---|---|")
        for c in result.comparisons:
            ratio = f"{c.ratio:.2f}" if c.ratio == c.ratio else "—"
            lines.append(
                f"| {c.name} | {c.paper:g}{c.unit} | {c.measured:.3g}{c.unit} | {ratio} |"
            )
        if result.notes:
            lines.append("")
            lines.append(f"*{result.notes}*")
        lines.append("")
    return "\n".join(lines)


def write_report(source, path: str | Path) -> Path:
    """Run all figures and write the markdown report to ``path``."""
    from repro.pipeline.session import as_dataset

    results = run_all(source)
    path = Path(path)
    path.write_text(render_markdown(as_dataset(source), results), encoding="utf-8")
    return path
