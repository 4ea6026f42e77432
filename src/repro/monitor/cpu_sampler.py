"""CPU-side telemetry at 10-second intervals.

The paper collects CPU usage, memory usage, and file I/O through Slurm
plugins at a 10 s cadence.  CPU metrics feed only the high-level
comparisons (Fig. 3), so the model here is intentionally simple: load
follows the job's requested cores with small noise, memory ramps to the
working set, and I/O is bursty at the start (input read) and end
(result write) of the run.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import MonitoringError


#: The sampled series, in row order of :meth:`CpuSampler._draw`'s array.
_SERIES = ("cpu_load", "memory_gb", "io_mbps")
#: :meth:`CpuSampler.summarize`'s keys: min, mean and max of each series.
_SUMMARY_KEYS = tuple(f"{name}_{stat}" for name in _SERIES for stat in ("min", "mean", "max"))


class CpuSampler:
    """Generates the 10 s CPU series for one job on one node."""

    def __init__(self, interval_s: float = 10.0) -> None:
        if not 0 < interval_s < math.inf:
            raise MonitoringError(
                f"sampling interval must be positive and finite, got {interval_s}"
            )
        self.interval_s = interval_s

    def _draw(
        self,
        duration_s: float,
        cores: int,
        memory_gb: float,
        rng: np.random.Generator,
        max_samples: int = 1024,
    ) -> np.ndarray:
        """One ``(3, n)`` array holding the ``cpu_load``, ``memory_gb``
        and ``io_mbps`` rows, sampled at ``np.linspace(0, span, n)``
        with ``span = max(duration_s, 1e-9)``.

        Four draws, in this order: the load and memory noise, then the
        burst and quiet I/O rates, each rate drawn for every sample.
        """
        if duration_s < 0:
            raise MonitoringError(f"negative duration {duration_s}")
        count = min(int(duration_s / self.interval_s) + 1, max_samples)
        span = max(duration_s, 1e-9)
        # Each sample's share of the run, ``linspace(0, span, n) / span``,
        # with linspace's arithmetic: ``arange * step``, or, for a step
        # that underflows, ``arange / div * span``; the last sample is
        # ``span`` itself.  (linspace's ``+= start`` adds 0.0: a no-op.)
        progress = np.arange(count, dtype=float)
        if count > 1:
            div = count - 1
            step = span / div
            if step == 0:
                progress /= div
                progress *= span
            else:
                progress *= step
            progress[-1] = span
        else:
            progress *= span
        progress /= span

        # ``x.clip`` is what ``np.clip(x)`` calls.
        series = np.empty((3, count))
        load, memory, io = series
        rng.normal(0.85, 0.1, count).clip(0.0, 1.0, out=load)
        load *= cores
        # The working set loads in the first 5 % of the run.
        (progress / 0.05).clip(0.0, 1.0, out=memory)
        memory *= memory_gb
        memory *= rng.normal(0.9, 0.05, count).clip(0.0, 1.0)
        burst_rate = rng.gamma(2.0, 120.0, count)
        io[:] = rng.gamma(1.2, 8.0, count)
        # Input is read in the first 5 % of the run, results written in the last.
        np.copyto(io, burst_rate, where=(progress < 0.05) | (progress > 0.95))
        return series

    def sample(
        self,
        duration_s: float,
        cores: int,
        memory_gb: float,
        rng: np.random.Generator,
        max_samples: int = 1024,
    ) -> dict[str, np.ndarray]:
        """Return ``{"times_s", "cpu_load", "memory_gb", "io_mbps"}``."""
        series = self._draw(duration_s, cores, memory_gb, rng, max_samples)
        times = np.linspace(0.0, max(duration_s, 1e-9), series.shape[1])
        return {"times_s": times, **dict(zip(_SERIES, series))}

    def summarize(
        self,
        duration_s: float,
        cores: int,
        memory_gb: float,
        rng: np.random.Generator,
    ) -> dict[str, float]:
        """min/mean/max of the CPU series (as stored per job)."""
        series = self._draw(duration_s, cores, memory_gb, rng)
        # Each row reduces as its own 1-D array would, and a mean is
        # np.mean's arithmetic: the row's sum, then one division.
        means = series.sum(axis=1)
        means /= series.shape[1]
        stats = np.array([series.min(axis=1), means, series.max(axis=1)])
        return dict(zip(_SUMMARY_KEYS, stats.T.ravel().tolist()))
