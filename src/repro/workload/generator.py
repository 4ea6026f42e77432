"""Assembles user profiles, arrivals, and activity models into jobs.

The output of :meth:`WorkloadGenerator.generate` is a list of
:class:`~repro.slurm.job.JobRequest` objects (GPU jobs carry their
ground-truth :class:`~repro.workload.activity.JobActivityModel` in
``tags["activity"]``), ready to be fed to the scheduler simulator.

The generation pipeline per GPU job:

1. pick the submitting user (Pareto activity weights);
2. draw a submit time from the user's session process, modulated by a
   diurnal/weekday/conference-deadline intensity;
3. draw the interface and life-cycle class;
4. draw runtime, GPU count, CPU cores, and memory;
5. draw the utilization profile and build the activity model.

CPU jobs are generated separately as whole-node requests, most of them
arriving in large campaign bursts (parameter sweeps / map-reduce
arrays) — this is what produces their long queue waits in Fig 3(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.distributions import QuantileDistribution, choice_cdf, uniform
from repro.errors import WorkloadError
from repro.slurm.job import JobRequest
from repro.workload.activity import (
    ActiveIntervals,
    JobActivityModel,
    PhaseSchedule,
    PowerModel,
    build_metric_process,
)
from repro.workload.calibration import GeneratorKnobs
from repro.workload.users import UserPopulation, UserProfile

SECONDS_PER_DAY = 86400.0


@dataclass
class WorkloadConfig:
    """Size and seed of the generated workload.

    ``scale`` resizes the whole experiment (jobs, users, nodes,
    campaign sizes) proportionally so tests and quick runs keep the
    same contention behavior.  ``scale=1.0`` reproduces the paper's
    dataset size: 125 days, 191 users, ~51.5k GPU jobs (47.1k after
    the 30 s filter) plus ~23k CPU jobs.  Scales above 1 grow the
    trace toward whole-site magnitudes (Helios, IN2P3 in PAPERS.md):
    jobs and nodes scale linearly, users sub-linearly (``sqrt``), the
    same law that governs shrinking.  Large traces should build
    through ``Session.streaming_dataset`` (see ``docs/scaling.md``).
    """

    scale: float = 1.0
    days: float = 125.0
    num_users: int = 191
    gpu_jobs: int = 51500
    num_nodes: int = 224
    seed: int = 20220214
    include_cpu_jobs: bool = True
    knobs: GeneratorKnobs = field(default_factory=GeneratorKnobs)
    #: Number of cluster islands the simulation is sharded over (see
    #: ``docs/scaling.md``).  ``1`` is the whole-machine serial model;
    #: values > 1 are a *different simulated system* (independent node
    #: pools), not a parallelization of the same one.
    partitions: int = 1
    #: User-cohort count for sharded workload generation.  ``None``
    #: follows ``partitions``; ``1`` pins the legacy single-stream RNG
    #: path.  Cohort ``c`` routes to island ``c % partitions``.
    cohorts: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.scale <= 100.0:
            raise WorkloadError(f"scale must be in (0, 100], got {self.scale}")
        if self.days <= 0 or self.gpu_jobs <= 0:
            raise WorkloadError("days and gpu_jobs must be positive")
        if self.partitions < 1:
            raise WorkloadError(f"partitions must be >= 1, got {self.partitions}")
        if self.cohorts is not None and self.cohorts < 1:
            raise WorkloadError(f"cohorts must be >= 1, got {self.cohorts}")
        if self.resolved_cohorts < self.partitions:
            raise WorkloadError(
                f"cohorts ({self.resolved_cohorts}) must be >= partitions "
                f"({self.partitions}) so every island receives jobs"
            )

    @property
    def scaled_gpu_jobs(self) -> int:
        return max(100, int(round(self.gpu_jobs * self.scale)))

    @property
    def scaled_users(self) -> int:
        # Users scale sub-linearly: small scales keep per-user depth,
        # large scales add users slower than jobs (heavier per-user
        # load, matching multi-site traces).  Identical to the old
        # min(num_users, ...) form for scale <= 1, where sqrt(scale)
        # never exceeds 1.
        return max(12, int(round(self.num_users * self.scale**0.5)))

    @property
    def scaled_nodes(self) -> int:
        return max(8, int(round(self.num_nodes * self.scale)))

    @property
    def scaled_cpu_jobs(self) -> int:
        if not self.include_cpu_jobs:
            return 0
        return int(round(self.scaled_gpu_jobs * self.knobs.cpu_job_count_ratio))

    @property
    def duration_s(self) -> float:
        return self.days * SECONDS_PER_DAY

    @property
    def resolved_cohorts(self) -> int:
        """Effective cohort count (``cohorts`` or, when None, ``partitions``)."""
        return self.partitions if self.cohorts is None else self.cohorts


class WorkloadGenerator:
    """Generates the full calibrated workload.

    Per-job draws are scalar Python on the RNG: every categorical draw
    inverts a CDF built once (:func:`~repro.distributions.choice_cdf`),
    scalars clip with ``min``/``max`` (exactly as ``np.clip`` does), the
    logs of constant knobs are taken here, once, and a job's schedule
    spans are computed once (:class:`ActiveIntervals`).  Each job makes
    the draws, in the order and with the arithmetic, that per-call
    ``rng.choice``/``rng.uniform``/``np.clip``/``np.log`` made.
    """

    def __init__(
        self,
        config: WorkloadConfig | None = None,
        *,
        rng: np.random.Generator | None = None,
        population: UserPopulation | None = None,
    ) -> None:
        """``rng``/``population`` injection supports cohort sharding.

        The default path (both None) draws the population from the
        seed-rooted stream exactly as before.  The sharded path
        (:mod:`repro.workload.cohorts`) builds the population once from
        a dedicated spawn stream and hands each cohort generator its
        own ``rng`` so cohorts draw identical jobs no matter which
        process runs them.
        """
        self.config = config or WorkloadConfig()
        knobs = self.config.knobs
        self._rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self.population = (
            population
            if population is not None
            else UserPopulation(self.config.scaled_users, knobs, self._rng)
        )
        self._sm_dists = {k: QuantileDistribution(v) for k, v in knobs.sm_anchors.items()}
        self._size_dists = {k: QuantileDistribution(v) for k, v in knobs.size_anchors.items()}
        self._frac_dists = {
            k: QuantileDistribution(v) for k, v in knobs.active_fraction_anchors.items()
        }
        self._mem_ratio = QuantileDistribution(knobs.mem_ratio_anchors)
        self._cpu_runtime = QuantileDistribution(knobs.cpu_runtime_anchors, log_space=True)
        self._intensity_bins, intensity_probs = self._build_intensity()
        self._intensity_cdf = choice_cdf(len(self._intensity_bins), intensity_probs)
        self._ide_limit_cdf = choice_cdf(len(knobs.ide_time_limits_s), knobs.ide_limit_probs)
        self._cores_cdf = choice_cdf(len(knobs.gpu_job_cores_choices), knobs.gpu_job_cores_probs)
        # np.log, not math.log: the two differ in the last bit on some
        # inputs, and these feed the lognormal draws.
        self._log_quick_range = tuple(np.log(bound) for bound in knobs.quick_job_range_s)
        self._log_active_median = np.log(knobs.active_interval_median_s)
        self._log_active_cov = np.log(knobs.active_interval_cov_median)
        self._log_idle_cov = np.log(knobs.idle_interval_cov_median)
        self._log_peak_mult = np.log(knobs.peak_multiplier_median)
        noise_covs = {
            "sm": knobs.sm_noise_cov_median,
            "mem_bw": knobs.mem_noise_cov_median,
            "mem_size": knobs.size_noise_cov_median,
            "pcie_tx": knobs.mem_noise_cov_median,
            "pcie_rx": knobs.mem_noise_cov_median,
        }
        self._log_noise_cov = {name: np.log(cov) for name, cov in noise_covs.items()}
        self._power_model = PowerModel(
            idle_w=knobs.power_idle_w,
            per_sm=knobs.power_per_sm_pct,
            per_mem=knobs.power_per_mem_pct,
            per_pcie=knobs.power_per_pcie_pct,
            per_size=knobs.power_per_size_pct,
        )

    # ------------------------------------------------------------------
    # Arrival intensity
    # ------------------------------------------------------------------
    def _build_intensity(self) -> tuple[np.ndarray, np.ndarray]:
        """Hourly arrival-intensity grid: diurnal cycle, weekday dip,
        and conference-deadline surges (Sec. II operational notes)."""
        hours = np.arange(int(self.config.days * 24))
        hour_of_day = hours % 24
        day = hours / 24.0
        diurnal = 1.0 + 0.5 * np.cos(2.0 * np.pi * (hour_of_day - 14.0) / 24.0)
        weekday = np.where((hours // 24) % 7 >= 5, 0.6, 1.0)
        surge = np.ones_like(diurnal)
        for start_day, end_day, mult in self.config.knobs.deadline_windows:
            surge = np.where((day >= start_day) & (day < end_day), mult, surge)
        intensity = diurnal * weekday * surge
        return hours.astype(float) * 3600.0, intensity / intensity.sum()

    def _sample_times(self, n: int) -> np.ndarray:
        """Draw submit times from the intensity grid (uniform in-bin)."""
        bins = self._intensity_cdf.searchsorted(self._rng.random(n), side="right")
        return self._intensity_bins[bins] + self._rng.random(n) * 3600.0

    def _sample_time(self) -> float:
        """One :meth:`_sample_times` draw, as a float."""
        index = self._intensity_cdf.searchsorted(self._rng.random(), side="right")
        return float(self._intensity_bins[index] + self._rng.random() * 3600.0)

    def _session_times(self, num_jobs: int) -> np.ndarray:
        """Submit times for one user: jobs arrive in sessions."""
        knobs = self.config.knobs
        times: list[float] = []
        while len(times) < num_jobs:
            session_start = self._sample_time()
            in_session = 1 + self._rng.geometric(1.0 / knobs.session_jobs_mean)
            gaps = self._rng.exponential(knobs.session_spacing_s, in_session)
            times.extend(session_start + np.cumsum(gaps))
        times = np.asarray(times[:num_jobs])
        return np.clip(times, 0.0, self.config.duration_s)

    # ------------------------------------------------------------------
    # Top-level generation
    # ------------------------------------------------------------------
    def generate(self) -> list[JobRequest]:
        """Produce the full workload sorted by submit time.

        With ``config.resolved_cohorts > 1`` the draw is delegated to
        the cohort-sharded path (:mod:`repro.workload.cohorts`), which
        produces the same jobs as island hosts drawing their own
        cohorts.  ``cohorts == 1`` keeps the legacy single-stream draws
        bit-for-bit.
        """
        if self.config.resolved_cohorts > 1:
            from repro.workload.cohorts import generate_sharded

            return generate_sharded(self.config)
        requests = self._generate_gpu_jobs()
        if self.config.include_cpu_jobs:
            requests.extend(self._generate_cpu_jobs())
        requests.sort(key=lambda r: r.submit_time_s)
        for job_id, request in enumerate(requests):
            request.job_id = job_id
        return requests

    # ------------------------------------------------------------------
    # GPU jobs
    # ------------------------------------------------------------------
    def _generate_gpu_jobs(self) -> list[JobRequest]:
        counts = self.population.job_allocation(self.config.scaled_gpu_jobs, self._rng)
        return self.jobs_for_users(
            (index, profile, int(count))
            for index, (profile, count) in enumerate(
                zip(self.population.profiles, counts)
            )
        )

    def jobs_for_users(self, allocations) -> list[JobRequest]:
        """GPU jobs for ``(user_index, profile, job_count)`` triples.

        Draws are made strictly in iteration order from this
        generator's RNG stream — the unit of sharding: a cohort
        generator calls this with its own members only, on its own
        stream.  Each request is tagged with its user's cohort.
        """
        cohorts = max(self.config.resolved_cohorts, 1)
        requests: list[JobRequest] = []
        for user_index, profile, count in allocations:
            submit_times = self._session_times(int(count))
            for submit_time in submit_times:
                request = self._one_gpu_job(profile, float(submit_time))
                request.tags["cohort"] = user_index % cohorts
                requests.append(request)
        return requests

    def _one_gpu_job(self, profile: UserProfile, submit_time: float) -> JobRequest:
        knobs = self.config.knobs
        rng = self._rng
        interface = profile.sample_interface(rng)
        job_class = profile.sample_class(rng, interface, knobs)
        num_gpus = profile.sample_gpu_count(rng)
        short = bool(rng.random() < knobs.short_gpu_job_fraction)

        time_limit = self._time_limit(interface, job_class)
        if short:
            runtime = uniform(rng, 2.0, 29.0)
            job_class = "development"  # instant crashes
        elif job_class == "ide":
            runtime = time_limit * 1.01  # runs until the session times out
        elif rng.random() < knobs.quick_job_fraction:
            # Quick validation runs (smoke tests, single-batch checks).
            runtime = float(np.exp(uniform(rng, *self._log_quick_range)))
        else:
            sigma = math.sqrt(np.log(1.0 + profile.runtime_cov**2))
            if job_class == "exploratory":
                sigma *= knobs.exploratory_runtime_sigma_factor
            draw = rng.lognormal(0.0, sigma)
            runtime = (
                profile.runtime_scale_s
                * knobs.class_runtime_multiplier[job_class]
                * (knobs.multi_gpu_runtime_multiplier if num_gpus > 1 else 1.0)
                * draw
            )
            runtime = float(min(max(runtime, 31.0), time_limit * 0.98))

        cores_index = self._cores_cdf.searchsorted(rng.random(), side="right")
        cores = int(knobs.gpu_job_cores_choices[cores_index])
        cores = max(cores, num_gpus)  # at least one core per GPU
        memory = uniform(rng, *knobs.gpu_job_memory_range_gb)

        request = JobRequest(
            job_id=-1,
            user=profile.name,
            submit_time_s=submit_time,
            runtime_s=runtime,
            num_gpus=num_gpus,
            cores=cores,
            memory_gb=memory,
            interface=interface,
            intended_class=job_class,
            time_limit_s=time_limit,
        )
        effective_runtime = min(runtime, time_limit)
        request.tags["short"] = short
        request.tags["activity"] = self._build_activity(
            profile, interface, job_class, num_gpus, effective_runtime, request.tags
        )
        return request

    def _time_limit(self, interface: str, job_class: str) -> float:
        knobs = self.config.knobs
        if job_class == "ide" or interface == "interactive":
            idx = self._ide_limit_cdf.searchsorted(self._rng.random(), side="right")
            return float(knobs.ide_time_limits_s[idx])
        return 96.0 * 3600.0

    # ------------------------------------------------------------------
    # Utilization profile / activity model
    # ------------------------------------------------------------------
    def _build_activity(
        self,
        profile: UserProfile,
        interface: str,
        job_class: str,
        num_gpus: int,
        duration_s: float,
        tags: dict,
    ) -> JobActivityModel:
        knobs = self.config.knobs
        rng = self._rng
        util_mult = profile.util_multiplier * knobs.interface_util_multiplier[interface]

        mem_intensive_prob = (
            knobs.memory_intensive_job_prob
            if profile.memory_intensive_user
            else knobs.memory_intensive_base_prob
        )
        memory_intensive = bool(
            job_class in ("mature", "exploratory") and rng.random() < mem_intensive_prob
        )
        if memory_intensive:
            sm_mean = uniform(rng, 0.0, 5.0)
            mem_mean = uniform(rng, *knobs.memory_intensive_mem_range)
        else:
            sm_mean = float(self._sm_dists[job_class].sample(rng)) * util_mult
            mem_mean = sm_mean * float(self._mem_ratio.sample(rng))
        size_mean = float(self._size_dists[job_class].sample(rng)) * math.sqrt(util_mult)
        pcie_mult = min(util_mult, 1.0) * knobs.pcie_class_multiplier[job_class]
        tx_mean = uniform(rng, *knobs.pcie_tx_range) * pcie_mult
        rx_mean = uniform(rng, *knobs.pcie_rx_range) * pcie_mult
        sm_mean = float(min(max(sm_mean, 0.0), 97.0))
        mem_mean = float(min(max(mem_mean, 0.0), 97.0))
        size_mean = float(min(max(size_mean, 0.0), 97.0))

        active_fraction = float(self._frac_dists[job_class].sample(rng))
        schedule = PhaseSchedule.generate(
            rng,
            duration_s,
            active_fraction,
            mean_active_s=float(rng.lognormal(self._log_active_median, 0.6)),
            active_cov=float(rng.lognormal(self._log_active_cov, knobs.interval_cov_spread)),
            idle_cov=float(rng.lognormal(self._log_idle_cov, knobs.interval_cov_spread)),
        )
        intervals = ActiveIntervals(schedule)
        realized_fraction = max(intervals.fraction, knobs.level_inversion_floor)

        bottlenecks = self._draw_bottlenecks(job_class, sm_mean, size_mean)
        tags["bottlenecks"] = bottlenecks
        tags["memory_intensive"] = memory_intensive

        peak_mult = float(rng.lognormal(self._log_peak_mult, knobs.peak_multiplier_spread))
        means = {
            "sm": sm_mean,
            "mem_bw": mem_mean,
            "mem_size": size_mean,
            "pcie_tx": tx_mean,
            "pcie_rx": rx_mean,
        }
        num_bursts = 1 + int(rng.poisson(min(duration_s / 3600.0, 7.0)))
        processes = {}
        for name, mean in means.items():
            # Gated metrics report mean-over-run = level * active_frac;
            # invert so the pooled means match the Fig 4 anchors.
            level = mean if name == "mem_size" else min(mean / realized_fraction, 97.0)
            cov = float(rng.lognormal(self._log_noise_cov[name], knobs.noise_cov_spread))
            burst_level = 100.0 if name in bottlenecks else min(level * peak_mult, 97.0)
            processes[name] = build_metric_process(
                rng,
                level=level,
                noise_cov=cov,
                burst_level=burst_level,
                schedule=schedule,
                num_bursts=num_bursts,
                intervals=intervals,
            )

        gpu_scale = self._gpu_scales(num_gpus)
        return JobActivityModel(
            job_id=-1,  # assigned later; models are matched by reference
            num_gpus=num_gpus,
            duration_s=duration_s,
            schedule=schedule,
            processes=processes,
            gpu_scale=gpu_scale,
            power_model=self._power_model,
        )

    def _draw_bottlenecks(self, job_class: str, sm_mean: float, size_mean: float) -> set[str]:
        """Correlated bottleneck flags (Fig 8b pairwise structure)."""
        knobs = self.config.knobs
        rng = self._rng
        if job_class not in ("mature", "exploratory"):
            return set()
        out: set[str] = set()
        cond = knobs.bottleneck_conditional
        if sm_mean > 2.0 and rng.random() < cond["sm"]:
            out.add("sm")
        p_rx = knobs.p_rx_given_sm if "sm" in out else (
            (cond["pcie_rx"] - cond["sm"] * knobs.p_rx_given_sm) / max(1.0 - cond["sm"], 1e-9)
        )
        if rng.random() < max(p_rx, 0.0):
            out.add("pcie_rx")
        p_tx = knobs.p_tx_given_rx if "pcie_rx" in out else (
            (cond["pcie_tx"] - cond["pcie_rx"] * knobs.p_tx_given_rx)
            / max(1.0 - cond["pcie_rx"], 1e-9)
        )
        if rng.random() < max(p_tx, 0.0):
            out.add("pcie_tx")
        if size_mean > 5.0 and rng.random() < cond["mem_size"]:
            out.add("mem_size")
        if rng.random() < cond["mem_bw"]:
            out.add("mem_bw")
        return out

    def _gpu_scales(self, num_gpus: int) -> np.ndarray:
        """Per-GPU activity scale; multi-GPU jobs may strand GPUs idle."""
        knobs = self.config.knobs
        rng = self._rng
        scales = np.abs(rng.normal(1.0, knobs.per_gpu_jitter_cov, num_gpus))
        if num_gpus > 1 and rng.random() < knobs.multi_gpu_idle_prob:
            # Half or more of the GPUs sit idle (mis-configured data
            # parallelism, single-process jobs on multi-GPU requests).
            num_idle = int(rng.integers(num_gpus // 2 + num_gpus % 2, num_gpus))
            num_idle = max(1, min(num_idle, num_gpus - 1))
            idle = rng.choice(num_gpus, size=num_idle, replace=False)
            scales[idle] = 0.0
        return scales

    # ------------------------------------------------------------------
    # CPU jobs
    # ------------------------------------------------------------------
    def _generate_cpu_jobs(self) -> list[JobRequest]:
        knobs = self.config.knobs
        rng = self._rng
        cohorts = max(self.config.resolved_cohorts, 1)
        total = self.config.scaled_cpu_jobs
        campaign_total = int(total * knobs.cpu_campaign_share)
        requests: list[JobRequest] = []

        log_median_size = np.log(max(knobs.cpu_campaign_size_median * self.config.scale, 20.0))
        produced = 0
        while produced < campaign_total:
            draw = rng.lognormal(log_median_size, knobs.cpu_campaign_size_sigma)
            size = int(min(max(draw, 5), max(campaign_total - produced, 5)))
            start = self._sample_time()
            user_index = int(rng.integers(len(self.population)))
            user = self.population.profiles[user_index]
            # Jobs of one campaign share a mild common factor, but each
            # job's runtime is its own draw from the calibrated anchors
            # so the pooled CPU runtime CDF matches Fig 3(a).
            campaign_factor = float(rng.lognormal(0.0, 0.3))
            for i in range(size):
                runtime = float(min(max(self._cpu_runtime.sample(rng) * campaign_factor, 3.0), 9e4))
                request = self._cpu_request(
                    user, start + i * knobs.cpu_campaign_spacing_s, runtime
                )
                request.tags["cohort"] = user_index % cohorts
                requests.append(request)
            produced += size

        singles = max(total - produced, 0)
        times = self._sample_times(singles)
        for submit_time in times:
            user_index = int(rng.integers(len(self.population)))
            user = self.population.profiles[user_index]
            runtime = float(self._cpu_runtime.sample(rng))
            request = self._cpu_request(user, float(submit_time), runtime)
            request.tags["cohort"] = user_index % cohorts
            requests.append(request)
        return requests

    def _cpu_request(self, profile: UserProfile, submit_time: float, runtime: float) -> JobRequest:
        knobs = self.config.knobs
        interface = "map-reduce" if self._rng.random() < 0.05 else "batch"
        return JobRequest(
            job_id=-1,
            user=profile.name,
            submit_time_s=float(min(max(submit_time, 0.0), self.config.duration_s)),
            runtime_s=runtime,
            num_gpus=0,
            cores=knobs.cpu_job_cores,
            memory_gb=knobs.cpu_job_memory_gb,
            interface=interface,
            intended_class="mature",
            time_limit_s=96.0 * 3600.0,
        )
