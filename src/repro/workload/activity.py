"""Ground-truth GPU activity models.

A job's GPU behavior is a deterministic function of time, fixed at
construction: the monitoring substrate may sample it repeatedly (dense
series + stratified summary) and always sees the same process.

Structure per job:

* a :class:`PhaseSchedule` of alternating active/idle intervals with
  lognormal lengths (high CoV — the paper's Fig 6b finding that phases
  "do not occur at a fixed periodic interval"), handed out as
  ``(starts, ends, active)`` arrays by :meth:`PhaseSchedule.spans`,
  computed on demand so a pickled schedule holds only its boundaries
  (a generator computes them once per job, as :class:`ActiveIntervals`);
* per-metric active-phase levels, with smooth within-phase fluctuation
  synthesised from random sinusoids (Fig 7a CoV targets);
* short burst windows during which a metric jumps to its peak — 100 %
  for bottlenecked metrics (Fig 7b/8), ``level x peak-multiplier``
  otherwise (drives the max-power distribution of Fig 9a);
* a per-GPU scale vector: idle GPUs of multi-GPU jobs score 0 on every
  metric, active GPUs differ only by small jitter (Fig 14);
* GPU power derived from the other metrics through a linear model of
  the V100 envelope.

:class:`ActivityBatch` holds the GPU rows of many models as one struct
of arrays and is the one implementation of the metric math: the
monitor samples a whole island's jobs through it in a few array
passes, and a model's own ``metrics_at`` is a one-model batch.
"""

from __future__ import annotations

import copyreg
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from repro.distributions import uniform
from repro.errors import WorkloadError

#: Metrics that are gated by the active/idle schedule.
GATED_METRICS = ("sm", "mem_bw", "pcie_tx", "pcie_rx")

#: Log-uniform range of sinusoid frequencies: periods of 5 s to 10 min.
_LOG_FREQ_LOW, _LOG_FREQ_HIGH = np.log(1.0 / 600.0), np.log(1.0 / 5.0)
_LOG_FREQ_SPAN = _LOG_FREQ_HIGH - _LOG_FREQ_LOW


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
        # min/max clip a scalar exactly as np.clip does, without its overhead.
        active_fraction = float(min(max(active_fraction, 0.0), 1.0))
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

        def lognormal_params(mean: float, cov: float) -> tuple[float, float]:
            # np.log, not math.log: the two differ in the last bit on
            # some inputs.  Square roots round correctly in both.
            sigma = math.sqrt(np.log(1.0 + cov * cov))
            return np.log(mean) - sigma * sigma / 2.0, sigma

        starts_active = bool(rng.random() < active_fraction)
        active = lognormal_params(mean_active_s, active_cov)
        idle = lognormal_params(mean_idle_s, idle_cov)
        first, second = (active, idle) if starts_active else (idle, active)
        cycle_s = mean_active_s + mean_idle_s
        # Draw interval lengths in bulk, growing the batch until the
        # cumulative length covers the run.
        batch = max(int(duration_s / cycle_s * 2.5) + 8, 16)
        lengths = np.empty(0)
        while lengths.sum() < duration_s:
            # Redraw the whole alternating sequence at a larger size so
            # the active/idle parity stays intact.
            half = (batch + 1) // 2
            lengths = np.empty(2 * half)
            lengths[0::2] = np.maximum(rng.lognormal(*first, half), 0.1)
            lengths[1::2] = np.maximum(rng.lognormal(*second, half), 0.1)
            batch *= 2
        boundaries = lengths.cumsum()
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
        return ActiveIntervals(self).active_s

    def active_fraction(self) -> float:
        return ActiveIntervals(self).fraction


class ActiveIntervals:
    """A schedule's active intervals, from one :meth:`PhaseSchedule.spans`.

    A generator computes them once per job: the active time (and
    fraction) that sets the job's metric levels, and the interval
    bounds with the length-weighted CDF that every one of its five
    :func:`build_metric_process` calls places burst windows with.
    """

    def __init__(self, schedule: PhaseSchedule) -> None:
        starts, ends, active = schedule.spans()
        self.starts, self.ends = starts[active], ends[active]
        self._lengths = self.ends - self.starts
        self._duration_s = schedule.duration_s
        # The CDF ``rng.choice(lengths.size, p=lengths / lengths.sum())``
        # draws from, built once rather than once per burst.
        self.cdf = None
        if self._lengths.size:
            self.cdf = (self._lengths / self._lengths.sum()).cumsum()
            self.cdf /= self.cdf[-1]

    @cached_property
    def active_s(self) -> float:
        # The builtin sum folds left to right in interval order; np.sum
        # re-associates, which would move the realized active fraction
        # (and the metric levels set from it) by ULPs.
        return sum(self._lengths.tolist())

    @property
    def fraction(self) -> float:
        return self.active_s / self._duration_s if self._duration_s > 0 else 0.0



@dataclass
class MetricProcess:
    """One metric's deterministic fluctuation + burst structure.

    The value at offset ``t`` on a GPU of scale ``s`` is
    ``min(max(smooth(t), 0) * s, SMOOTH_CAP)``, where ``smooth(t) =
    level + sum_k amplitudes[k] * sin(2 pi frequencies_hz[k] t +
    phases[k])``, except inside a burst window, where it is
    ``burst_level`` on every GPU with ``s > 0``.  The cap comes *after*
    scaling so a GPU whose jitter scale exceeds 1 cannot push smooth
    fluctuation into the bottleneck-detection band — only explicit
    bursts saturate.  :class:`ActivityBatch` evaluates it.
    """

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


def build_metric_process(
    rng: np.random.Generator,
    level: float,
    noise_cov: float,
    burst_level: float,
    schedule: PhaseSchedule,
    num_bursts: int,
    num_harmonics: int = 4,
    burst_width_median_s: float = 3.0,
    intervals: ActiveIntervals | None = None,
) -> MetricProcess:
    """Assemble the sinusoid + burst process for one metric.

    Sinusoid amplitudes are sized so the within-phase standard
    deviation equals ``noise_cov * level``; burst windows are placed
    inside active intervals (length-weighted) so dense sampling can
    observe them.  ``intervals`` is ``ActiveIntervals(schedule)``, for
    a caller that builds several processes on one schedule.
    """
    # min/max clip a scalar exactly as np.clip does, without its overhead.
    level = float(min(max(level, 0.0), 100.0))
    target_std = noise_cov * level
    # std of a sum of sinusoids with amplitudes a_k is sqrt(sum a_k^2/2)
    amplitude = target_std * math.sqrt(2.0 / max(num_harmonics, 1))
    amplitudes = np.full(num_harmonics, amplitude)
    # ``rng.uniform(low, high, n)`` is ``low + (high - low) * u`` over n
    # uniforms: one draw of 2n serves the log-frequencies, then the
    # phases (whose low is 0).
    u = rng.random(2 * num_harmonics)
    frequencies = np.exp(_LOG_FREQ_LOW + _LOG_FREQ_SPAN * u[:num_harmonics])
    phases = 2.0 * np.pi * u[num_harmonics:]

    if intervals is None:
        intervals = ActiveIntervals(schedule)
    windows = []
    if intervals.cdf is not None and burst_level > level and num_bursts > 0:
        cdf, starts, ends = intervals.cdf, intervals.starts, intervals.ends
        log_width = np.log(burst_width_median_s)
        for _ in range(num_bursts):
            idx = int(cdf.searchsorted(rng.random(), side="right"))
            a, b = starts[idx], ends[idx]
            width = min(rng.lognormal(log_width, 0.8), b - a)
            start = uniform(rng, a, max(b - width, a))
            windows.append((start, start + width))
    return MetricProcess(
        level=level,
        amplitudes=amplitudes,
        frequencies_hz=frequencies,
        phases=phases,
        burst_level=float(min(max(burst_level, 0.0), 100.0)),
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

    The monitor samples it through :class:`ActivityBatch`, many jobs at
    once; :meth:`metrics_at` evaluates one GPU as a one-model batch.
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

    @property
    def num_gpus(self) -> int:
        return self._num_gpus

    def __reduce__(self):
        """Pickle as one float64 array plus sizes and scalars.

        The schedule boundaries, the GPU scales and each process's
        amplitudes, frequencies, phases and burst windows travel
        concatenated, so a pickle holds one array per model instead of
        22 (:func:`_rebuild_model` slices views back out).  A model
        with an array outside that layout — not float64, or not the
        1-D / ``(n, 2)`` shape — pickles its attributes as they are.
        """
        if "_packed" in self.__dict__:  # loaded and not yet read: as loaded
            return _rebuild_model, (type(self), *self._packed, self.power_model)
        processes = self.processes.values()
        vectors = [self.schedule.boundaries, self.gpu_scale]
        for p in processes:
            vectors += [p.amplitudes, p.frequencies_hz, p.phases]
        windows = [p.burst_windows for p in processes]
        if not (
            type(self.schedule) is PhaseSchedule
            and all(type(p) is MetricProcess for p in processes)
            and all(a.dtype == np.float64 and a.ndim == 1 for a in vectors)
            and all(a.dtype == np.float64 and a.shape[1:] == (2,) for a in windows)
        ):
            return copyreg.__newobj__, (type(self),), self.__dict__
        scalars = (
            self.job_id, self._num_gpus, self.duration_s, self.mem_ramp_s,
            self.schedule.starts_active, self.schedule.duration_s, tuple(self.processes),
            tuple(x for p in processes for x in (p.level, p.burst_level)),
        )
        arrays = vectors + windows
        return _rebuild_model, (
            type(self),
            np.concatenate(arrays, axis=None),
            tuple(a.size for a in arrays),
            scalars,
            self.power_model,
        )

    def __getattr__(self, name: str):
        """Unpack a loaded model (:func:`_rebuild_model`) on the first
        read of an attribute it lacks: its schedule, GPU scales or
        processes."""
        packed = self.__dict__.pop("_packed", None)
        if packed is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__.update(_unpack_model(*packed))
        return getattr(self, name)

    def metrics_at(self, times_s: np.ndarray, gpu_index: int) -> dict[str, np.ndarray]:
        """Every metric of GPU ``gpu_index`` at ``times_s`` (any shape).

        Gated metrics are zero while the schedule is idle; memory size
        ramps up over ``mem_ramp_s`` and persists through idle phases;
        an idle GPU (scale 0) holds ~no memory.
        """
        if not 0 <= gpu_index < self._num_gpus:
            raise WorkloadError(
                f"job {self.job_id}: GPU index {gpu_index} out of range [0, {self._num_gpus})"
            )
        times = np.asarray(times_s, dtype=float)
        metrics = ActivityBatch([self]).metrics(times.reshape(-1), rows=[gpu_index])
        return {name: values[0].reshape(times.shape) for name, values in metrics.items()}


def _rebuild_model(cls, values, sizes, scalars, power_model):
    """Invert :meth:`JobActivityModel.__reduce__` without running the
    constructors' checks again.

    The schedule, GPU scales and metric processes stay packed until
    first read (:meth:`JobActivityModel.__getattr__`): a cached
    dataset's records are loaded whole, but a report never evaluates
    their models.
    """
    job_id, num_gpus, duration_s, mem_ramp_s, _, _, names, _ = scalars
    if sum(sizes) != values.size or len(sizes) != 2 + 4 * len(names):
        raise ValueError("corrupt activity-model pickle: sizes do not match the values")
    model = cls.__new__(cls)
    model.__dict__.update(
        job_id=job_id, _num_gpus=num_gpus, duration_s=duration_s, power_model=power_model,
        mem_ramp_s=mem_ramp_s, _packed=(values, sizes, scalars),
    )
    return model


def _unpack_model(values, sizes, scalars) -> dict:
    """The schedule, GPU scales and processes of a packed model: every
    array is a view of ``values``."""
    *_, starts_active, schedule_s, names, levels = scalars
    views, start = [], 0
    for size in sizes:
        views.append(values[start : start + size])
        start += size
    schedule = PhaseSchedule.__new__(PhaseSchedule)
    schedule.__dict__.update(boundaries=views[0], starts_active=starts_active, duration_s=schedule_s)
    vectors, windows = views[2 : 2 + 3 * len(names)], views[2 + 3 * len(names) :]
    processes = {
        name: MetricProcess(
            levels[2 * i], *vectors[3 * i : 3 * i + 3], levels[2 * i + 1], windows[i].reshape(-1, 2)
        )
        for i, name in enumerate(names)
    }
    return {"schedule": schedule, "processes": processes, "gpu_scale": views[1]}


# ----------------------------------------------------------------------
# The batch kernel: the one implementation of the activity math.
# ----------------------------------------------------------------------

#: Metrics with a process, in output order (power follows from them).
_PROCESS_ORDER = GATED_METRICS + ("mem_size",)


def _padded(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack 1-D arrays into a zero-padded ``(len(rows), width)`` array,
    and return each row's length."""
    sizes = np.fromiter((row.size for row in rows), dtype=np.intp, count=len(rows))
    width = int(sizes.max(initial=0))
    out = np.zeros((len(rows), width))
    out[np.arange(width) < sizes[:, None]] = np.concatenate(rows)
    return out, sizes


class _Processes:
    """A list of :class:`MetricProcess` es as arrays, one row each
    (burst windows flat, ``window_counts`` per row).  Methods take the
    process row of each grid or batch row."""

    def __init__(self, processes: list[MetricProcess]) -> None:
        self.level = np.array([p.level for p in processes], dtype=float)
        self.burst_level = np.array([p.burst_level for p in processes], dtype=float)
        self.amplitudes, amp_sizes = _padded([p.amplitudes for p in processes])
        frequencies, freq_sizes = _padded([p.frequencies_hz for p in processes])
        self.phases, phase_sizes = _padded([p.phases for p in processes])
        # ``2.0 * np.pi * f * t`` multiplies left to right: this, then t.
        self.omega = 2.0 * np.pi * frequencies
        # Harmonics pair up as zip() pairs them: up to the shortest array.
        self.harmonics = np.minimum(np.minimum(amp_sizes, freq_sizes), phase_sizes)
        # Each row sums its own amplitudes, so padding never joins a sum.
        self.amp_sum = np.zeros(len(processes))
        for width in set(amp_sizes.tolist()):
            take = amp_sizes == width
            self.amp_sum[take] = self.amplitudes[take, :width].sum(axis=1)
        windows = [p.burst_windows.reshape(-1, 2) for p in processes]
        self.window_counts = np.fromiter(map(len, windows), dtype=np.intp, count=len(windows))
        self.windows = np.concatenate(windows) if windows else np.empty((0, 2))
        # A sample whose gate is 0, or whose GPU scale is 0, comes out
        # +0.0 whatever its sines are — so they need not run — unless
        # the smooth part can be non-finite or a negative zero there.
        # Such a process evaluates every sample.
        magnitude = np.abs(self.level) + np.abs(self.amplitudes).sum(axis=1)
        self.dense = ~(
            np.isfinite(magnitude)
            & np.isfinite(self.omega).all(axis=1)
            & np.isfinite(self.phases).all(axis=1)
            & ~np.signbit(self.level)
        )

    def smooth(self, times: np.ndarray, live: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The unscaled smooth part where ``live``, else 0: the samples
        ``live[i]`` run process ``rows[i]`` at ``times`` (broadcast
        against ``live``).

        Harmonics accumulate in order, each as ``a * sin(w * t + p)``,
        so every sample rounds exactly as a one-process loop would.
        """
        out = np.zeros(live.shape)
        t = np.broadcast_to(times, live.shape)[live]
        if not t.size:
            return out
        rows = rows.ravel()
        counts = live.sum(axis=-1).ravel()

        def per_sample(values: np.ndarray) -> np.ndarray:
            return values[rows].repeat(counts)

        smooth = per_sample(self.level)
        harmonics = self.harmonics[rows]
        common = int(harmonics.min())
        for k in range(int(harmonics.max())):
            a, w, p = (per_sample(x[:, k]) for x in (self.amplitudes, self.omega, self.phases))
            if k < common:
                smooth += a * np.sin(w * t + p)
            else:  # only some of the processes have harmonic k
                take = (harmonics > k).repeat(counts)
                smooth[take] += a[take] * np.sin(w[take] * t[take] + p[take])
        out[live] = smooth
        return out

    def peak(self, rows: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Supremum of each row's values at its ``scale``."""
        smooth = np.minimum(
            np.maximum(self.level[rows] + self.amp_sum[rows], 0.0) * scale,
            MetricProcess.SMOOTH_CAP,
        )
        bursts = (self.window_counts[rows] > 0) & (scale > 0)
        return np.where(bursts, np.maximum(smooth, self.burst_level[rows]), smooth)


def _sort_order(times: np.ndarray) -> np.ndarray | None:
    """Each row's argsort, or None when every row is already sorted."""
    if times.shape[-1] < 2 or (times[..., 1:] >= times[..., :-1]).all():
        return None
    return np.argsort(times, axis=-1, kind="stable")


class _Grid:
    """Where an evaluation samples: sorted times, one row per batch row.

    When every batch row shares one time vector (a dense series), the
    grid has one row per model instead, so the unscaled smooth part
    runs once per model rather than once per GPU.  Because each row is
    sorted, a burst window covers one index range of it
    (:meth:`locate`, :meth:`covered`).
    """

    def __init__(self, times: np.ndarray, row_model: np.ndarray) -> None:
        if times.ndim == 2 and times.shape[0] > 1 and times.strides[0] == 0:
            times = times[0]
        self.order = _sort_order(times)
        if self.order is not None:
            times = np.take_along_axis(times, self.order, axis=-1)
        self._of_row: np.ndarray | None = None
        if times.ndim == 1:
            present = np.zeros(row_model.max(initial=-1) + 1, dtype=bool)
            present[row_model] = True
            self.model = np.flatnonzero(present)
            of_row = np.cumsum(present)[row_model] - 1
            if not np.array_equal(of_row, np.arange(row_model.size)):
                self._of_row = of_row
            self.times = np.broadcast_to(times, (self.model.size, times.size))
        else:
            self.times, self.model = times, row_model

    def rows(self, values: np.ndarray) -> np.ndarray:
        """A ``(..., grid rows, n)`` array as ``(..., batch rows, n)``."""
        return values if self._of_row is None else values[..., self._of_row, :]

    def any(self, flags: np.ndarray) -> np.ndarray:
        """Per grid row: whether any of its batch rows has ``flags``."""
        if self._of_row is None:
            return flags
        hits = np.bincount(self._of_row, weights=flags.astype(float), minlength=self.model.size)
        return hits > 0

    def active(self, schedules: list[PhaseSchedule]) -> np.ndarray:
        """Per sample: whether its model's schedule is active then.

        One :meth:`PhaseSchedule.active_at` per run of rows sharing a
        model, so the work is a search of each sample among its own
        schedule's boundaries.
        """
        out = np.empty(self.times.shape, dtype=bool)
        firsts = np.flatnonzero(np.diff(self.model, prepend=-1)).tolist()
        for lo, hi in zip(firsts, firsts[1:] + [self.model.size]):
            out[lo:hi] = schedules[self.model[lo]].active_at(self.times[lo:hi])
        return out

    def locate(
        self, windows: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each row's samples inside each window its model owns.

        Model ``m`` owns the ``(start, end)`` rows
        ``windows[offsets[m]:offsets[m + 1]]``.  Returns ``(row, window,
        first, last)`` per (grid row, owned window) pair: the row's
        samples ``first:last`` are those with ``start <= t < end``.
        """
        counts = np.diff(offsets)[self.model]
        ends = np.cumsum(counts)
        firsts = offsets[:-1][self.model]
        total = int(ends[-1]) if ends.size else 0
        window = np.repeat(firsts - (ends - counts), counts) + np.arange(total)
        row = np.repeat(np.arange(self.model.size), counts)
        if self._of_row is not None:
            pos = np.searchsorted(self.times[0], windows[window])
        else:
            pos = np.empty((total, 2), dtype=np.intp)
            owns = counts > 0
            for r, end, count, first in zip(
                np.flatnonzero(owns).tolist(),
                ends[owns].tolist(),
                counts[owns].tolist(),
                firsts[owns].tolist(),
            ):
                owned = windows[first : first + count]
                pos[end - count : end] = np.searchsorted(self.times[r], owned)
        return row, window, pos[:, 0], np.maximum(pos[:, 1], pos[:, 0])

    def covered(
        self, layers: int, layer: np.ndarray, row: np.ndarray, first: np.ndarray, last: np.ndarray
    ) -> np.ndarray:
        """``(layers, grid rows, n)``: whether a sample lies in one of
        the ``first:last`` ranges given for its layer and row."""
        rows, n = self.times.shape
        cell = (layer * rows + row) * (n + 1)
        flat = np.bincount(
            np.concatenate([cell + first, cell + last]),
            weights=np.repeat([1.0, -1.0], row.size),
            minlength=layers * rows * (n + 1),
        )
        return flat.reshape(layers, rows, n + 1).cumsum(axis=-1)[..., :n] > 0

    def restore(self, values: np.ndarray) -> np.ndarray:
        """Undo the sort: ``values`` back in the caller's sample order."""
        if self.order is None:
            return values
        out = np.empty_like(values)
        np.put_along_axis(out, np.broadcast_to(self.order, values.shape), values, axis=-1)
        return out


class ActivityBatch:
    """GPU rows of many :class:`JobActivityModel` s as one struct of arrays.

    Rows follow model order and, within a model, its GPU order.  Each
    model's per-metric levels, harmonics, burst levels and burst
    windows, memory ramp and power parameters are held as arrays —
    ragged ones flat, with per-model offsets — so :meth:`metrics` and
    :meth:`analytic_max` evaluate every row in a few array passes; the
    schedule gate searches each row's times among its own model's
    boundaries.

    Every sample goes through the operations, operands and order of a
    per-GPU evaluation, so a row's values are bit-for-bit the same
    whatever rows share its batch.
    """

    def __init__(self, models: list[JobActivityModel]) -> None:
        self.num_models = len(models)
        scales = [model.gpu_scale for model in models]
        self.scale = np.concatenate(scales) if scales else np.empty(0)
        self.row_model = np.repeat(np.arange(self.num_models), [s.size for s in scales])
        self.schedules = [model.schedule for model in models]
        # Boundaries lie strictly inside the run, so a schedule with any
        # has an active interval of positive length.
        self.any_active = np.array(
            [
                s.boundaries.size > 0 or (s.starts_active and s.duration_s > 0)
                for s in self.schedules
            ],
            dtype=bool,
        )
        self.ramp_s = np.array([model.mem_ramp_s for model in models], dtype=float)
        # One value per model; applied per row, each rounds as the
        # model's own scalar parameter does.
        self.power_params = {
            field.name: np.array(
                [getattr(model.power_model, field.name) for model in models], dtype=float
            )
            for field in fields(PowerModel)
        }
        # Metric j of model m is process row j * num_models + m.
        self.processes = _Processes(
            [model.processes[name] for name in _PROCESS_ORDER for model in models]
        )
        # Burst windows regrouped by model, each with its metric's index.
        counts = self.processes.window_counts
        owner = np.repeat(np.tile(np.arange(self.num_models), len(_PROCESS_ORDER)), counts)
        metric = np.repeat(np.arange(len(_PROCESS_ORDER)).repeat(self.num_models), counts)
        order = np.argsort(owner, kind="stable")
        self.windows = self.processes.windows[order]
        self.window_metric = metric[order]
        self.window_offsets = np.concatenate(
            ([0], np.cumsum(np.bincount(owner, minlength=self.num_models)))
        )

    def _power(self, row_model: np.ndarray, shape: tuple[int, ...]) -> PowerModel:
        """A power model holding each row's parameters, as ``shape`` arrays."""
        return PowerModel(
            **{name: v[row_model].reshape(shape) for name, v in self.power_params.items()}
        )

    def metrics(
        self, times_s: np.ndarray, rows: np.ndarray | None = None
    ) -> dict[str, np.ndarray]:
        """Every metric at ``times_s`` for the batch ``rows`` (default
        all), as ``(len(rows), n)`` arrays.

        ``times_s`` is ``(len(rows), n)``, one row of offsets per row,
        or one ``(n,)`` vector every row shares (broadcast copies of
        one row count as shared).  Gated metrics are zero while the
        schedule is idle; memory size ramps up over ``mem_ramp_s`` and
        persists through idle phases; an idle GPU (scale 0) holds ~no
        memory; power follows from the other five.
        """
        row_model = self.row_model if rows is None else self.row_model[rows]
        scale = self.scale if rows is None else self.scale[rows]
        times = np.asarray(times_s, dtype=float)
        if not (times.ndim == 1 or times.ndim == 2 and times.shape[0] == row_model.size):
            raise WorkloadError(
                f"times must have shape (n,) or ({row_model.size}, n), got {times.shape}"
            )
        grid = _Grid(times, row_model)
        num, gated = len(_PROCESS_ORDER), len(GATED_METRICS)
        # (metric, row, sample) arrays, metrics in _PROCESS_ORDER: metric
        # j of a grid row's model is process j * num_models + model.
        metric = np.arange(num)[:, None] * self.num_models
        active = grid.active(self.schedules)
        positive = scale > 0
        any_positive = grid.any(positive)
        odd_scale = grid.any(~np.isfinite(scale) | np.signbit(scale))
        # Sines run only where a sample can reach the output: not in an
        # idle phase of a gated metric, not on a GPU of scale 0 (unless
        # the process is ``_Processes.dense`` or the scale is odd).
        dense = self.processes.dense[metric + grid.model]
        live = np.empty((num,) + grid.times.shape, dtype=bool)
        live[:gated] = (active & any_positive[:, None]) | (dense[:gated] | odd_scale)[..., None]
        live[gated] = (any_positive | dense[gated])[:, None]
        smooth = self.processes.smooth(grid.times, live, metric + grid.model)
        # Memory size scales by 0 or 1: idle GPUs hold ~no memory.
        row_scale = np.empty((num, row_model.size))
        row_scale[:gated] = scale
        row_scale[gated] = positive
        values = grid.rows(np.clip(smooth, 0.0, None, out=smooth))
        values *= row_scale[..., None]
        np.minimum(values, MetricProcess.SMOOTH_CAP, out=values)
        row, window, first, last = grid.locate(self.windows, self.window_offsets)
        if row.size:
            burst = grid.rows(grid.covered(num, self.window_metric[window], row, first, last))
            np.copyto(
                values,
                self.processes.burst_level[metric + row_model][..., None],
                where=burst & (row_scale > 0)[..., None],
            )
        values[:gated] *= grid.rows(active)
        values[gated] *= np.clip(grid.rows(grid.times) / self.ramp_s[row_model][:, None], 0.0, 1.0)
        out = dict(zip(_PROCESS_ORDER, values))
        out["power_w"] = self._power(row_model, (-1, 1)).power(
            out["sm"], out["mem_bw"], out["pcie_tx"], out["pcie_rx"], out["mem_size"]
        )
        return {name: grid.restore(array) for name, array in out.items()}

    def analytic_max(self) -> dict[str, np.ndarray]:
        """Each row's per-metric supremum over the whole run.

        Peak power happens while *one* metric bursts and the others sit
        at their base levels — metric maxima occur at different times
        (paper Sec. III), so summing them would overestimate.
        """
        model = self.row_model
        gated = len(GATED_METRICS)
        # (metric, row) arrays in _PROCESS_ORDER.  Memory size, the last
        # metric, scales by 0 or 1 and holds through idle schedules.
        rows = np.arange(len(_PROCESS_ORDER))[:, None] * self.num_models + model
        scale = np.empty(rows.shape)
        scale[:gated] = self.scale
        scale[gated] = self.scale > 0
        level = np.maximum(self.processes.level[rows], 0.0)
        levels = np.empty(rows.shape)
        levels[:gated] = np.minimum(level[:gated] * scale[:gated], 100.0)
        levels[gated] = np.minimum(level[gated], 100.0) * scale[gated]
        peaks = self.processes.peak(rows, scale)
        never_active = ~self.any_active[model]
        peaks[:gated, never_active] = 0.0
        levels[:gated, never_active] = 0.0
        # Snapshot k: every metric at its level, metric k at its peak.
        snapshots = np.repeat(levels[None], len(_PROCESS_ORDER), axis=0)
        metric = np.arange(len(_PROCESS_ORDER))
        snapshots[metric, metric] = peaks
        powers = self._power(model, (-1,)).power(*snapshots.transpose(1, 0, 2))
        power_peak = np.zeros(model.size)
        for power in powers:
            power_peak = np.maximum(power_peak, power)
        return {**dict(zip(_PROCESS_ORDER, peaks)), "power_w": power_peak}
