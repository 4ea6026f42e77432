"""Registry of all figure reproductions."""

from __future__ import annotations

from typing import Callable

from repro.dataset import SupercloudDataset
from repro.errors import AnalysisError
from repro.figures import (
    ext_prediction,
    ext_queueing,
    ext_timeline,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    pareto,
    queue_waits,
    table1,
)
from repro.figures.base import FigureResult

FigureRunner = Callable[[SupercloudDataset], FigureResult]

_REGISTRY: dict[str, FigureRunner] = {
    "table1": table1.run,
    "fig03": fig03.run,
    "fig04": fig04.run,
    "fig05": fig05.run,
    "fig06": fig06.run,
    "fig07": fig07.run,
    "fig08": fig08.run,
    "fig09": fig09.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
    "fig13": fig13.run,
    "fig14": fig14.run,
    "fig15": fig15.run,
    "fig16": fig16.run,
    "fig17": fig17.run,
    "queue_waits": queue_waits.run,
    "pareto": pareto.run,
    # extensions beyond the paper's own figures
    "ext_timeline": ext_timeline.run,
    "ext_prediction": ext_prediction.run,
    "ext_queueing": ext_queueing.run,
}


def all_figures() -> list[str]:
    """Ids of every registered figure, in paper order."""
    return list(_REGISTRY)


def get_figure(figure_id: str) -> FigureRunner:
    if figure_id not in _REGISTRY:
        raise AnalysisError(
            f"unknown figure {figure_id!r}; available: {', '.join(_REGISTRY)}"
        )
    return _REGISTRY[figure_id]


def run_figure(figure_id: str, dataset: SupercloudDataset) -> FigureResult:
    """Run one figure reproduction against a dataset.

    The dataset keeps the result (:attr:`SupercloudDataset.figure_results`),
    and a later call for the same figure returns it without running the
    figure again — and so opens no ``figure:<id>`` span.  A run is a
    ``figure:<id>`` span of the ambient tracer (a no-op outside a
    traced session).
    """
    from repro.obs import runtime

    results = dataset.figure_results
    if figure_id in results:
        return results[figure_id]
    with runtime.get_tracer().span(f"figure:{figure_id}", category="figure"):
        result = results[figure_id] = get_figure(figure_id)(dataset)
    return result
