"""Run every figure and render the paper-vs-measured report.

``python -m repro report`` writes EXPERIMENTS.md from this module,
after :meth:`repro.pipeline.Session.run_figures` has run the figures
on the session's dataset, which keeps each result.
"""

from __future__ import annotations

from pathlib import Path

from repro.dataset import SupercloudDataset
from repro.figures.base import FigureResult
from repro.figures import registry


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


def write_report(dataset: SupercloudDataset, path: str | Path) -> Path:
    """Run every registered figure on ``dataset`` and write the
    markdown report to ``path``."""
    results = [registry.run_figure(fid, dataset) for fid in registry.all_figures()]
    path = Path(path)
    path.write_text(render_markdown(dataset, results), encoding="utf-8")
    return path
