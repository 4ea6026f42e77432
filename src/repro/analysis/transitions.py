"""Life-cycle transition structure of user job streams (paper Fig 2).

Fig 2 sketches the typical workflow — design in an IDE, debug
development runs, sweep hyper-parameters, finish with a mature run.
If that structure is real it should be visible as *transition
statistics* in the per-user job sequence: which class tends to follow
which, and how jobs cluster into bursts ("campaigns") separated by
think time.  This module mines both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.streaming import iter_key_sorted_chunks
from repro.errors import AnalysisError
from repro.frame import Table
from repro.slurm.job import LIFECYCLE_CLASSES


def transition_matrix(gpu_jobs: Table) -> Table:
    """Per-user class-to-class transition probabilities, pooled.

    One row per source class, one column per destination class, cells
    = P(next job's class | this job's class), computed over
    consecutive submissions of the same user.

    Folds per-user last-class state over the submit-ordered chunks of
    :func:`~repro.analysis.streaming.iter_key_sorted_chunks`, so any
    row order of a materialized table gives the integer transition
    counts — and every probability — of ``sort_by("submit_time_s")``.
    """
    counts = {a: {b: 0 for b in LIFECYCLE_CLASSES} for a in LIFECYCLE_CLASSES}
    last_class: dict[str, str] = {}
    empty = True
    for chunk in iter_key_sorted_chunks(gpu_jobs, "submit_time_s"):
        empty = False
        for user, cls in zip(list(chunk["user"]), list(chunk["lifecycle_class"])):
            previous = last_class.get(user)
            if previous is not None:
                counts[previous][cls] += 1
            last_class[user] = cls
    if empty:
        raise AnalysisError("no jobs")
    rows = []
    for source in LIFECYCLE_CLASSES:
        total = sum(counts[source].values())
        row: dict[str, object] = {"from_class": source, "num_transitions": total}
        for destination in LIFECYCLE_CLASSES:
            row[destination] = counts[source][destination] / total if total else 0.0
        rows.append(row)
    return Table.from_rows(rows)


def self_transition_rates(matrix: Table) -> dict[str, float]:
    """P(same class again) per class — workflow 'stickiness'."""
    return {
        str(row["from_class"]): float(row[str(row["from_class"])])
        for row in matrix.iter_rows()
    }


@dataclass(frozen=True)
class CampaignStats:
    """Burst structure of user submissions."""

    num_campaigns: int
    median_campaign_jobs: float
    median_campaign_span_s: float
    #: fraction of campaigns whose final job is mature ("the workflow
    #: converges", Fig 2's arrow into production)
    fraction_ending_mature: float
    #: fraction of multi-job campaigns containing any exploratory job
    fraction_with_exploration: float


def segment_campaigns(gpu_jobs: Table, gap_s: float = 2.0 * 3600.0) -> list[dict]:
    """Split each user's submissions into campaigns by idle gaps.

    A campaign is a maximal run of submissions with inter-arrival gaps
    below ``gap_s`` (think time).  Returns one dict per campaign with
    ``user``, ``classes`` (in order), ``span_s``.

    The fold streams the submit-ordered chunks holding only each
    user's *open* campaign plus the finished campaign records (O(users
    + campaigns) state, never the job rows themselves); campaigns are
    listed per user in first-seen order.
    """
    if gap_s <= 0:
        raise AnalysisError("gap must be positive")
    open_runs: dict[str, list[tuple[float, str]]] = {}
    finished: dict[str, list[dict]] = {}
    for chunk in iter_key_sorted_chunks(gpu_jobs, "submit_time_s"):
        submits = np.asarray(chunk["submit_time_s"], dtype=float)
        for user, submit, cls in zip(
            list(chunk["user"]), submits, list(chunk["lifecycle_class"])
        ):
            user, cls = str(user), str(cls)
            current = open_runs.setdefault(user, [])
            if current and float(submit) - current[-1][0] > gap_s:
                finished.setdefault(user, []).append(_campaign_record(user, current))
                current = open_runs[user] = []
            current.append((float(submit), cls))
    if not open_runs:
        raise AnalysisError("no jobs")
    campaigns = []
    for user, current in open_runs.items():
        campaigns.extend(finished.get(user, ()))
        if current:
            campaigns.append(_campaign_record(user, current))
    return campaigns


def _campaign_record(user: str, jobs: list[tuple[float, str]]) -> dict:
    return {
        "user": user,
        "classes": [cls for _, cls in jobs],
        "span_s": jobs[-1][0] - jobs[0][0],
    }


def campaign_stats(campaigns: list[dict]) -> CampaignStats:
    """Aggregate campaign structure."""
    if not campaigns:
        raise AnalysisError("no campaigns")
    sizes = np.asarray([len(c["classes"]) for c in campaigns], dtype=float)
    spans = np.asarray([c["span_s"] for c in campaigns], dtype=float)
    ending_mature = np.asarray([c["classes"][-1] == "mature" for c in campaigns])
    multi = [c for c in campaigns if len(c["classes"]) > 1]
    with_exploration = (
        float(np.mean([("exploratory" in c["classes"]) for c in multi])) if multi else 0.0
    )
    return CampaignStats(
        num_campaigns=len(campaigns),
        median_campaign_jobs=float(np.median(sizes)),
        median_campaign_span_s=float(np.median(spans)),
        fraction_ending_mature=float(ending_mature.mean()),
        fraction_with_exploration=with_exploration,
    )
