"""Programmatic fidelity scorecard against the paper's numbers.

``python -m repro validate`` (and the test suite) uses this module to
grade a generated dataset against every statistic in
:class:`~repro.workload.calibration.PaperTargets`.  Each check is
declared once with its tolerance semantics:

* ``ratio`` — measured/paper must fall inside a band (default 0.5-2x);
* ``upper`` / ``lower`` — the paper states an inequality ("less than
  10%", "over 60%"); we grade against the bound, not the number;
* ``abs`` — absolute tolerance for shares near zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dataset import SupercloudDataset
from repro.errors import AnalysisError
from repro.figures.registry import run_figure
from repro.frame import Table


@dataclass(frozen=True)
class Check:
    """One graded statistic."""

    figure_id: str
    name: str
    kind: str = "ratio"       # ratio | upper | lower | abs
    low: float = 0.5          # ratio band
    high: float = 2.0
    tolerance: float = 0.05   # for kind="abs"


#: The scorecard: every comparison the figures emit, with grading
#: semantics.  Inequality-type paper claims are graded as bounds.
CHECKS: tuple[Check, ...] = (
    Check("fig03", "GPU runtime p25", low=0.4, high=2.5),
    Check("fig03", "GPU runtime median"),
    Check("fig03", "GPU runtime p75", low=0.3),
    Check("fig03", "CPU runtime median"),
    Check("fig03", "GPU jobs waiting <2% of service", kind="lower"),
    Check("fig03", "CPU jobs waiting <2% of service", kind="upper", tolerance=0.15),
    Check("fig03", "GPU jobs waiting <1 min", kind="lower"),
    Check("fig03", "CPU jobs waiting >1 min", kind="lower", tolerance=0.2),
    Check("fig04", "SM util median", low=0.35),
    Check("fig04", "memory util median", low=0.35),
    Check("fig04", "memory size median"),
    Check("fig04", "jobs with SM util >50%", low=0.4),
    Check("fig04", "jobs with memory util >50%", kind="abs", tolerance=0.05),
    Check("fig04", "jobs with memory size >50%", low=0.4),
    Check("fig06", "active-time share p25", low=0.1, high=3.0),
    Check("fig06", "active-time share median", low=0.6, high=1.4),
    Check("fig06", "active-time share p75", low=0.8, high=1.2),
    Check("fig06", "idle interval CoV median", low=0.4, high=2.5),
    Check("fig06", "active interval CoV median", low=0.4, high=2.5),
    Check("fig07", "sm CoV median", low=0.4, high=2.5),
    Check("fig07", "mem_bw CoV median", low=0.4, high=2.5),
    Check("fig07", "sm bottleneck fraction", low=0.4),
    Check("fig07", "mem_bw bottleneck fraction", kind="abs", tolerance=0.02),
    Check("fig08", "max of any pair (< 0.10)", kind="upper", tolerance=0.05),
    Check("fig09", "average power median", low=0.6, high=1.6),
    Check("fig09", "maximum power median", low=0.6, high=1.6),
    Check("fig09", "unimpacted at 150 W cap", kind="lower", tolerance=0.1),
    Check("fig09", "avg-impacted at 150 W cap", kind="upper"),
    Check("fig10", "user avg runtime median", low=0.4, high=2.5),
    Check("fig10", "user avg SM median", low=0.4, high=2.5),
    Check("fig10", "user avg memory median", low=0.3, high=3.0),
    Check("fig11", "user runtime CoV median", low=0.5, high=2.0),
    Check("fig11", "user SM CoV median", low=0.5, high=2.0),
    Check("fig12", "njobs vs avg SM (high +)", kind="lower", tolerance=0.35),
    Check("fig12", "njobs vs SM CoV (< 0.5)", kind="upper", tolerance=0.2),
    Check("fig13", "single-GPU job fraction", kind="abs", tolerance=0.08),
    Check("fig13", "jobs with >2 GPUs", kind="abs", tolerance=0.03),
    Check("fig13", "jobs with >=9 GPUs (<1%)", kind="upper", tolerance=0.01),
    Check("fig13", "multi-GPU share of GPU hours", low=0.6, high=1.4),
    Check("fig13", "users with any multi-GPU job", kind="abs", tolerance=0.12),
    Check("fig13", "users with >=3-GPU jobs", kind="abs", tolerance=0.08),
    Check("fig14", "multi-GPU jobs with idle GPUs (>=half)", kind="abs", tolerance=0.18),
    Check("fig15", "mature job share", kind="abs", tolerance=0.1),
    Check("fig15", "exploratory job share", kind="abs", tolerance=0.08),
    Check("fig15", "development job share", kind="abs", tolerance=0.08),
    Check("fig15", "ide job share", kind="abs", tolerance=0.025),
    Check("fig15", "mature GPU-hour share", kind="abs", tolerance=0.18),
    Check("fig15", "exploratory GPU-hour share", kind="abs", tolerance=0.15),
    Check("fig15", "ide GPU-hour share", kind="abs", tolerance=0.1),
    Check("fig16", "mature SM median", low=0.5, high=1.8),
    Check("fig16", "ide SM median", kind="abs", tolerance=1.0),
    Check("fig16", "mature/expl >> dev/IDE ordering holds", kind="abs", tolerance=0.0),
    Check("fig17", "users with mature job share <40%", kind="abs", tolerance=0.3),
    Check("queue_waits", "median wait, 1 GPU(s)", low=0.3, high=3.0),
    Check("queue_waits", "median wait, 2 GPU(s)", low=0.3, high=3.0),
    Check("pareto", "top 5% users' job share", kind="abs", tolerance=0.15),
    Check("pareto", "top 20% users' job share", kind="abs", tolerance=0.12),
)


@dataclass(frozen=True)
class CheckResult:
    check: Check
    paper: float
    measured: float
    passed: bool

    @property
    def ratio(self) -> float:
        return self.measured / self.paper if self.paper else float("nan")


def grade(check: Check, paper: float, measured: float) -> bool:
    """Apply one check's tolerance semantics."""
    if check.kind == "ratio":
        if paper == 0:
            return abs(measured) <= check.tolerance
        return check.low <= measured / paper <= check.high
    if check.kind == "upper":
        return measured <= paper + check.tolerance
    if check.kind == "lower":
        return measured >= paper - check.tolerance
    if check.kind == "abs":
        return abs(measured - paper) <= check.tolerance
    raise AnalysisError(f"unknown check kind {check.kind!r}")


def validate_dataset(dataset: SupercloudDataset) -> list[CheckResult]:
    """Run every check against a dataset.

    Figures come from :func:`~repro.figures.registry.run_figure`, which
    the dataset memoizes: each runs at most once, and a figure a report
    already ran is graded from its kept result.  A check whose
    statistic the figure did not emit fails, with ``paper`` and
    ``measured`` NaN, so a statistic that goes missing lowers the pass
    fraction instead of leaving the scorecard.
    """
    out: list[CheckResult] = []
    for check in CHECKS:
        result = run_figure(check.figure_id, dataset)
        try:
            comparison = result.get(check.name)
        except KeyError:
            out.append(CheckResult(check, paper=math.nan, measured=math.nan, passed=False))
            continue
        out.append(
            CheckResult(
                check=check,
                paper=comparison.paper,
                measured=comparison.measured,
                passed=grade(check, comparison.paper, comparison.measured),
            )
        )
    return out


def scorecard(results: list[CheckResult]) -> Table:
    """Results as a table (one row per check)."""
    return Table.from_rows(
        [
            {
                "figure": r.check.figure_id,
                "statistic": r.check.name,
                "kind": r.check.kind,
                "paper": r.paper,
                "measured": round(r.measured, 4),
                "passed": r.passed,
            }
            for r in results
        ]
    )


def pass_fraction(results: list[CheckResult]) -> float:
    """Fraction of checks passing."""
    if not results:
        raise AnalysisError("no checks ran")
    return sum(r.passed for r in results) / len(results)
