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


class CpuSampler:
    """Generates the 10 s CPU series for one job on one node."""

    def __init__(self, interval_s: float = 10.0) -> None:
        if not 0 < interval_s < math.inf:
            raise MonitoringError(
                f"sampling interval must be positive and finite, got {interval_s}"
            )
        self.interval_s = interval_s

    def sample(
        self,
        duration_s: float,
        cores: int,
        memory_gb: float,
        rng: np.random.Generator,
        max_samples: int = 1024,
    ) -> dict[str, np.ndarray]:
        """Return ``{"times_s", "cpu_load", "memory_gb", "io_mbps"}``."""
        if duration_s < 0:
            raise MonitoringError(f"negative duration {duration_s}")
        count = min(int(duration_s / self.interval_s) + 1, max_samples)
        times = np.linspace(0.0, max(duration_s, 1e-9), count)
        progress = times / max(duration_s, 1e-9)

        load = cores * np.clip(rng.normal(0.85, 0.1, count), 0.0, 1.0)
        ramp = np.clip(progress / 0.05, 0.0, 1.0)  # working set loads in first 5%
        memory = memory_gb * ramp * np.clip(rng.normal(0.9, 0.05, count), 0.0, 1.0)
        io_burst = (progress < 0.05) | (progress > 0.95)
        io = np.where(io_burst, rng.gamma(2.0, 120.0, count), rng.gamma(1.2, 8.0, count))
        return {
            "times_s": times,
            "cpu_load": load,
            "memory_gb": memory,
            "io_mbps": io,
        }

    def summarize(
        self,
        duration_s: float,
        cores: int,
        memory_gb: float,
        rng: np.random.Generator,
    ) -> dict[str, float]:
        """min/mean/max of the CPU series (as stored per job)."""
        series = self.sample(duration_s, cores, memory_gb, rng)
        out: dict[str, float] = {}
        for name in ("cpu_load", "memory_gb", "io_mbps"):
            values = series[name]
            out[f"{name}_min"] = float(values.min())
            out[f"{name}_mean"] = float(values.mean())
            out[f"{name}_max"] = float(values.max())
        return out
