"""Analytic queueing cross-checks.

The scheduler and sharing simulators are discrete-event programs; this
module provides closed-form counterparts (Erlang C for M/M/c, the
Allen-Cunneen approximation for M/G/c) so simulation results can be
sanity-checked against queueing theory — and so capacity questions
("how many GPUs for a 1-minute wait?") can be answered without a
simulation when the workload is roughly stationary.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import AnalysisError
from repro.frame import StreamingMoments


def erlang_c(servers: int, offered_load: float) -> float:
    """P(arriving job waits) in an M/M/c queue.

    ``offered_load`` is a = lambda/mu in Erlangs; requires a < c for
    stability.  Computed with the numerically-stable recurrence on the
    Erlang-B blocking probability.
    """
    if servers < 1:
        raise AnalysisError("need at least one server")
    if offered_load < 0:
        raise AnalysisError("offered load must be non-negative")
    if offered_load >= servers:
        return 1.0
    # Erlang B recurrence: B(0) = 1; B(k) = a B(k-1) / (k + a B(k-1))
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    rho = offered_load / servers
    return blocking / (1.0 - rho + rho * blocking)


def mmc_mean_wait(arrival_rate: float, mean_service_s: float, servers: int) -> float:
    """Mean queueing delay (excluding service) of an M/M/c queue."""
    if arrival_rate < 0 or mean_service_s <= 0:
        raise AnalysisError("rates must be positive")
    offered = arrival_rate * mean_service_s
    if offered >= servers:
        return float("inf")
    wait_probability = erlang_c(servers, offered)
    return wait_probability * mean_service_s / (servers - offered)


def mgc_mean_wait(
    arrival_rate: float,
    mean_service_s: float,
    service_scv: float,
    servers: int,
) -> float:
    """Allen-Cunneen approximation for M/G/c mean waiting time.

    ``service_scv`` is the squared coefficient of variation of service
    times (1.0 recovers M/M/c).  Heavy-tailed GPU-job runtimes have
    SCV >> 1, which is why bursty clusters queue worse than their
    utilization suggests.
    """
    if service_scv < 0:
        raise AnalysisError("SCV must be non-negative")
    base = mmc_mean_wait(arrival_rate, mean_service_s, servers)
    if math.isinf(base):
        return base
    return base * (1.0 + service_scv) / 2.0


def workload_parameters(gpu_jobs) -> dict[str, float]:
    """Stationary-workload parameters from a job table.

    Returns arrival rate (jobs/s over the observed span), mean service
    time, its SCV, and the offered load in GPU-Erlangs (weighting each
    job by its GPU count).  One chunk fold through
    :class:`~repro.frame.StreamingMoments` plus a weighted-sum
    accumulator.
    """
    submit_moments = StreamingMoments()
    runtime_moments = StreamingMoments()
    weighted = 0.0
    for chunk in gpu_jobs.chunks():
        runtimes = np.asarray(chunk["run_time_s"], dtype=float)
        submit_moments.update(np.asarray(chunk["submit_time_s"], dtype=float))
        runtime_moments.update(runtimes)
        weighted += float((runtimes * np.asarray(chunk["num_gpus"], dtype=float)).sum())
    if submit_moments.count < 2:
        raise AnalysisError("need at least two jobs")
    span = submit_moments.maximum - submit_moments.minimum
    if span <= 0:
        raise AnalysisError("all jobs submitted at the same instant")
    mean_service = runtime_moments.mean()
    std = runtime_moments.std()
    return {
        "arrival_rate_per_s": submit_moments.count / span,
        "mean_service_s": mean_service,
        "service_scv": std * std / mean_service**2 if mean_service > 0 else 0.0,
        "offered_gpu_load": weighted / span,
    }


def required_gpus_for_wait(
    arrival_rate: float,
    mean_service_s: float,
    service_scv: float,
    target_wait_s: float,
    max_servers: int = 4096,
) -> int:
    """Smallest server count with an M/G/c mean wait under target."""
    if target_wait_s < 0:
        raise AnalysisError("target wait must be non-negative")
    floor = int(math.ceil(arrival_rate * mean_service_s))
    for servers in range(max(floor, 1), max_servers + 1):
        if mgc_mean_wait(arrival_rate, mean_service_s, service_scv, servers) <= target_wait_s:
            return servers
    raise AnalysisError(f"even {max_servers} servers miss the {target_wait_s}s target")
