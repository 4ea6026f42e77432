"""Ground-truth GPU activity models.

A job's GPU behavior is a deterministic function of time, fixed at
construction: the monitoring substrate may sample it repeatedly (dense
series + stratified summary) and always sees the same process.

Structure per job:

* a :class:`PhaseSchedule` of alternating active/idle intervals with
  lognormal lengths (high CoV — the paper's Fig 6b finding that phases
  "do not occur at a fixed periodic interval"), handed out as
  ``(starts, ends, active)`` arrays by :meth:`PhaseSchedule.spans`,
  computed on demand so a pickled schedule holds only its boundaries;
* per-metric active-phase levels, with smooth within-phase fluctuation
  synthesised from random sinusoids (Fig 7a CoV targets);
* short burst windows during which a metric jumps to its peak — 100 %
  for bottlenecked metrics (Fig 7b/8), ``level x peak-multiplier``
  otherwise (drives the max-power distribution of Fig 9a);
* a per-GPU scale vector: idle GPUs of multi-GPU jobs score 0 on every
  metric, active GPUs differ only by small jitter (Fig 14);
* GPU power derived from the other metrics through a linear model of
  the V100 envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError

#: Metrics that are gated by the active/idle schedule.
GATED_METRICS = ("sm", "mem_bw", "pcie_tx", "pcie_rx")


class PhaseSchedule:
    """Alternating active/idle intervals covering ``[0, duration]``."""

    def __init__(self, boundaries: np.ndarray, starts_active: bool, duration_s: float) -> None:
        boundaries = np.asarray(boundaries, dtype=float)
        if boundaries.size and (np.any(np.diff(boundaries) <= 0) or boundaries[0] <= 0):
            raise WorkloadError("phase boundaries must be strictly increasing and positive")
        if boundaries.size and boundaries[-1] >= duration_s:
            raise WorkloadError("phase boundaries must lie inside the run")
        self.boundaries = boundaries
        self.starts_active = bool(starts_active)
        self.duration_s = float(duration_s)

    @classmethod
    def always(cls, duration_s: float, active: bool) -> "PhaseSchedule":
        """A schedule that is a single active (or idle) interval."""
        return cls(np.empty(0), active, duration_s)

    @classmethod
    def generate(
        cls,
        rng: np.random.Generator,
        duration_s: float,
        active_fraction: float,
        mean_active_s: float,
        active_cov: float,
        idle_cov: float,
        max_intervals: int = 20000,
    ) -> "PhaseSchedule":
        """Draw a renewal schedule hitting ``active_fraction`` on average.

        Interval lengths are lognormal with the given CoVs, so interval
        lengths are irregular and heavy-tailed.
        """
        if duration_s < 0:
            raise WorkloadError(f"negative duration {duration_s}")
        active_fraction = float(np.clip(active_fraction, 0.0, 1.0))
        if duration_s == 0 or active_fraction <= 0.005:
            return cls.always(duration_s, active=False)
        if active_fraction >= 0.995:
            return cls.always(duration_s, active=True)

        mean_active_s = max(mean_active_s, 1.0)
        mean_idle_s = mean_active_s * (1.0 - active_fraction) / active_fraction
        # Bound the schedule size for extremely long jobs by stretching
        # both interval scales (keeps the active fraction).
        cycle = mean_active_s + mean_idle_s
        expected = duration_s / cycle * 2.0
        if expected > max_intervals:
            stretch = expected / max_intervals
            mean_active_s *= stretch
            mean_idle_s *= stretch

        def draw_batch(mean: float, cov: float, n: int) -> np.ndarray:
            sigma = np.sqrt(np.log(1.0 + cov * cov))
            mu = np.log(mean) - sigma * sigma / 2.0
            return np.maximum(rng.lognormal(mu, sigma, n), 0.1)

        starts_active = bool(rng.random() < active_fraction)
        cycle_s = mean_active_s + mean_idle_s
        # Draw interval lengths in bulk, growing the batch until the
        # cumulative length covers the run.
        batch = max(int(duration_s / cycle_s * 2.5) + 8, 16)
        lengths = np.empty(0)
        while lengths.sum() < duration_s:
            # Redraw the whole alternating sequence at a larger size so
            # the active/idle parity stays intact.
            half = (batch + 1) // 2
            first = draw_batch(mean_active_s if starts_active else mean_idle_s,
                               active_cov if starts_active else idle_cov, half)
            second = draw_batch(mean_idle_s if starts_active else mean_active_s,
                                idle_cov if starts_active else active_cov, half)
            lengths = np.empty(2 * half)
            lengths[0::2] = first
            lengths[1::2] = second
            batch *= 2
        boundaries = np.cumsum(lengths)
        boundaries = boundaries[boundaries < duration_s]
        return cls(boundaries, starts_active, duration_s)

    # ------------------------------------------------------------------
    def active_at(self, times_s: np.ndarray) -> np.ndarray:
        """Boolean activity for each time offset."""
        times_s = np.asarray(times_s, dtype=float)
        segment = np.searchsorted(self.boundaries, times_s, side="right")
        if self.starts_active:
            return segment % 2 == 0
        return segment % 2 == 1

    def spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, ends, active)`` arrays covering the whole run.

        Interval ``i`` is ``[starts[i], ends[i])``; intervals alternate
        from ``starts_active``, and a zero-length one (only a
        zero-duration run has it) is dropped.
        """
        edges = np.concatenate(([0.0], self.boundaries, [self.duration_s]))
        starts, ends = edges[:-1], edges[1:]
        active = (np.arange(starts.size) % 2 == 0) == self.starts_active
        keep = ends > starts
        return starts[keep], ends[keep], active[keep]

    def active_time_s(self) -> float:
        # The builtin sum folds left to right in interval order; np.sum
        # re-associates, which would move the realized active fraction
        # (and the metric levels set from it) by ULPs.
        starts, ends, active = self.spans()
        return sum((ends - starts)[active].tolist())

    def active_fraction(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.active_time_s() / self.duration_s


@dataclass
class MetricProcess:
    """One metric's deterministic fluctuation + burst structure."""

    level: float
    amplitudes: np.ndarray
    frequencies_hz: np.ndarray
    phases: np.ndarray
    burst_level: float
    burst_windows: np.ndarray  # shape (n, 2)

    #: Smooth fluctuation never reaches device saturation; only an
    #: explicit burst can cross the bottleneck-detection threshold
    #: (99 %).  Without this cap, noise peaks on high-level jobs would
    #: register as spurious bottlenecks.
    SMOOTH_CAP = 98.5

    def smooth_at(self, times_s: np.ndarray) -> np.ndarray:
        """Level + sinusoid fluctuation, unscaled and uncapped."""
        values = np.full(times_s.shape, self.level, dtype=float)
        for a, f, p in zip(self.amplitudes, self.frequencies_hz, self.phases):
            values += a * np.sin(2.0 * np.pi * f * times_s + p)
        return values

    def burst_mask_at(self, times_s: np.ndarray) -> np.ndarray:
        """Boolean mask of samples inside a burst window."""
        mask = np.zeros(times_s.shape, dtype=bool)
        for t0, t1 in self.burst_windows:
            mask |= (times_s >= t0) & (times_s < t1)
        return mask

    def values_at(
        self, times_s: np.ndarray, scale: float | np.ndarray = 1.0
    ) -> np.ndarray:
        """Metric value with per-GPU ``scale`` applied to the smooth
        part, capped below saturation; bursts overlay at full level.

        The cap comes *after* scaling so a GPU whose jitter scale
        exceeds 1 cannot push smooth fluctuation into the
        bottleneck-detection band — only explicit bursts saturate.

        ``scale`` may be an array broadcastable against ``times_s``
        (the batched path passes a ``(num_gpus, 1)`` column against
        ``(num_gpus, n)`` times); every operation is elementwise, so
        the batched result is bit-for-bit the per-GPU one.
        """
        scale = np.asarray(scale, dtype=float)
        smooth = np.clip(self.smooth_at(times_s), 0.0, None) * scale
        values = np.minimum(smooth, self.SMOOTH_CAP)
        if len(self.burst_windows) and np.any(scale > 0):
            mask = self.burst_mask_at(times_s) & (scale > 0)
            values[mask] = self.burst_level
        return values

    def analytic_peak(self, scale: float = 1.0) -> float:
        """Supremum of :meth:`values_at` for the given scale."""
        smooth_peak = min(
            max(self.level + float(self.amplitudes.sum()), 0.0) * scale, self.SMOOTH_CAP
        )
        if len(self.burst_windows) and scale > 0:
            return max(smooth_peak, self.burst_level)
        return smooth_peak


def build_metric_process(
    rng: np.random.Generator,
    level: float,
    noise_cov: float,
    burst_level: float,
    schedule: PhaseSchedule,
    num_bursts: int,
    num_harmonics: int = 4,
    burst_width_median_s: float = 3.0,
) -> MetricProcess:
    """Assemble the sinusoid + burst process for one metric.

    Sinusoid amplitudes are sized so the within-phase standard
    deviation equals ``noise_cov * level``; burst windows are placed
    inside active intervals (length-weighted) so dense sampling can
    observe them.
    """
    level = float(np.clip(level, 0.0, 100.0))
    target_std = noise_cov * level
    # std of a sum of sinusoids with amplitudes a_k is sqrt(sum a_k^2/2)
    amplitude = target_std * np.sqrt(2.0 / max(num_harmonics, 1))
    amplitudes = np.full(num_harmonics, amplitude)
    frequencies = np.exp(rng.uniform(np.log(1.0 / 600.0), np.log(1.0 / 5.0), num_harmonics))
    phases = rng.uniform(0.0, 2.0 * np.pi, num_harmonics)

    starts, ends, active = schedule.spans()
    starts, ends = starts[active], ends[active]
    windows = []
    if starts.size and burst_level > level and num_bursts > 0:
        lengths = ends - starts
        probs = lengths / lengths.sum()
        for _ in range(num_bursts):
            idx = int(rng.choice(starts.size, p=probs))
            a, b = float(starts[idx]), float(ends[idx])
            width = min(rng.lognormal(np.log(burst_width_median_s), 0.8), b - a)
            start = rng.uniform(a, max(b - width, a))
            windows.append((start, start + width))
    return MetricProcess(
        level=level,
        amplitudes=amplitudes,
        frequencies_hz=frequencies,
        phases=phases,
        burst_level=float(np.clip(burst_level, 0.0, 100.0)),
        burst_windows=np.asarray(windows).reshape(-1, 2),
    )


@dataclass
class PowerModel:
    """Linear power model over utilization metrics, clipped to board power."""

    idle_w: float
    per_sm: float
    per_mem: float
    per_pcie: float
    per_size: float
    max_w: float = 300.0

    def power(self, sm, mem_bw, pcie_tx, pcie_rx, mem_size):
        raw = (
            self.idle_w
            + self.per_sm * sm
            + self.per_mem * mem_bw
            + self.per_pcie * (pcie_tx + pcie_rx)
            + self.per_size * mem_size
        )
        return np.clip(raw, 0.0, self.max_w)


class JobActivityModel:
    """Deterministic ground truth for one job's GPUs.

    Implements the :class:`repro.monitor.nvidia_smi.ActivityModel`
    protocol.
    """

    def __init__(
        self,
        job_id: int,
        num_gpus: int,
        duration_s: float,
        schedule: PhaseSchedule,
        processes: dict[str, MetricProcess],
        gpu_scale: np.ndarray,
        power_model: PowerModel,
        mem_ramp_s: float = 120.0,
    ) -> None:
        if num_gpus < 1:
            raise WorkloadError(f"activity model needs >= 1 GPU, got {num_gpus}")
        if len(gpu_scale) != num_gpus:
            raise WorkloadError("gpu_scale length must equal num_gpus")
        for name in ("sm", "mem_bw", "mem_size", "pcie_tx", "pcie_rx"):
            if name not in processes:
                raise WorkloadError(f"missing metric process {name!r}")
        self.job_id = job_id
        self._num_gpus = num_gpus
        self.duration_s = float(duration_s)
        self.schedule = schedule
        self.processes = processes
        self.gpu_scale = np.asarray(gpu_scale, dtype=float)
        self.power_model = power_model
        self.mem_ramp_s = min(mem_ramp_s, max(duration_s * 0.05, 1.0))

    # -- ActivityModel protocol ----------------------------------------
    @property
    def num_gpus(self) -> int:
        return self._num_gpus

    def metrics_at(self, times_s: np.ndarray, gpu_index: int) -> dict[str, np.ndarray]:
        times_s = np.asarray(times_s, dtype=float)
        scale = self._scale_for(gpu_index)
        active = self.schedule.active_at(times_s).astype(float)

        out: dict[str, np.ndarray] = {}
        for name in GATED_METRICS:
            out[name] = self.processes[name].values_at(times_s, scale) * active

        ramp = np.clip(times_s / self.mem_ramp_s, 0.0, 1.0)
        size_scale = 1.0 if scale > 0 else 0.0  # idle GPUs hold ~no memory
        out["mem_size"] = self.processes["mem_size"].values_at(times_s, size_scale) * ramp

        out["power_w"] = self.power_model.power(
            out["sm"], out["mem_bw"], out["pcie_tx"], out["pcie_rx"], out["mem_size"]
        )
        return out

    def metrics_at_all(self, times_s: np.ndarray) -> dict[str, np.ndarray]:
        """Batched :meth:`metrics_at` over every GPU of the job.

        ``times_s`` has shape ``(num_gpus, n)``: row ``g`` holds GPU
        ``g``'s sample offsets (rows may differ — stratified summary
        draws — or be broadcast copies — dense series).  Returns each
        metric as a ``(num_gpus, n)`` array whose row ``g`` is
        bit-for-bit ``metrics_at(times_s[g], g)[metric]``: the whole
        evaluation is elementwise ufuncs, with the per-GPU scale
        broadcast as a ``(num_gpus, 1)`` column, so batching changes
        neither operation order nor rounding.
        """
        times_s = np.asarray(times_s, dtype=float)
        if times_s.ndim != 2 or times_s.shape[0] != self._num_gpus:
            raise WorkloadError(
                f"job {self.job_id}: batched times must have shape "
                f"({self._num_gpus}, n), got {times_s.shape}"
            )
        scale = self.gpu_scale[:, None]
        active = self.schedule.active_at(times_s).astype(float)

        out: dict[str, np.ndarray] = {}
        for name in GATED_METRICS:
            out[name] = self.processes[name].values_at(times_s, scale) * active

        ramp = np.clip(times_s / self.mem_ramp_s, 0.0, 1.0)
        # idle GPUs hold ~no memory, exactly as in metrics_at
        size_scale = (self.gpu_scale > 0).astype(float)[:, None]
        out["mem_size"] = self.processes["mem_size"].values_at(times_s, size_scale) * ramp

        out["power_w"] = self.power_model.power(
            out["sm"], out["mem_bw"], out["pcie_tx"], out["pcie_rx"], out["mem_size"]
        )
        return out

    def analytic_max(self, gpu_index: int) -> dict[str, float]:
        scale = self._scale_for(gpu_index)
        out: dict[str, float] = {}
        levels: dict[str, float] = {}
        any_active = self.schedule.active_time_s() > 0
        for name in GATED_METRICS:
            peak = self.processes[name].analytic_peak(scale)
            out[name] = float(peak if any_active else 0.0)
            levels[name] = float(
                min(max(self.processes[name].level, 0.0) * scale, 100.0) if any_active else 0.0
            )
        size_scale = 1.0 if scale > 0 else 0.0
        out["mem_size"] = float(self.processes["mem_size"].analytic_peak(size_scale))
        levels["mem_size"] = float(
            min(max(self.processes["mem_size"].level, 0.0), 100.0) * size_scale
        )
        # Peak power happens while *one* metric bursts and the others
        # sit at their base levels — metric maxima occur at different
        # times (paper Sec. III), so summing them would overestimate.
        power_peak = 0.0
        for name in ("sm", "mem_bw", "pcie_tx", "pcie_rx", "mem_size"):
            snapshot = dict(levels)
            snapshot[name] = out[name]
            power_peak = max(
                power_peak,
                float(
                    self.power_model.power(
                        snapshot["sm"],
                        snapshot["mem_bw"],
                        snapshot["pcie_tx"],
                        snapshot["pcie_rx"],
                        snapshot["mem_size"],
                    )
                ),
            )
        out["power_w"] = power_peak
        return out

    # ------------------------------------------------------------------
    def _scale_for(self, gpu_index: int) -> float:
        if not 0 <= gpu_index < self._num_gpus:
            raise WorkloadError(
                f"job {self.job_id}: GPU index {gpu_index} out of range [0, {self._num_gpus})"
            )
        return float(self.gpu_scale[gpu_index])

    @property
    def idle_gpu_count(self) -> int:
        return int(np.sum(self.gpu_scale == 0.0))
