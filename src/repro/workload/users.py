"""The user population model.

Users differ along every axis the paper measures (Sec. IV):

* **activity weight** — bounded-Pareto, so a few "expert" users submit
  most jobs (top 5 % of users submit 44 % of jobs);
* **runtime scale** — anti-correlated with weight (heavy submitters
  run shorter jobs), reconciling the pooled 30-minute median (Fig 3a)
  with the 392-minute median of per-user averages (Fig 10);
* **life-cycle / interface mixes** — Dirichlet draws around the global
  shares, giving the user-to-user spread of Fig 17;
* **utilization multiplier** — positively correlated with weight
  (expert users use GPUs more efficiently, Fig 12);
* **GPU-size category** — bounds the largest job a user submits
  (Sec. V: 60 % of users run at least one multi-GPU job).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions import BoundedPareto, Categorical, choice_cdf
from repro.errors import WorkloadError
from repro.workload.calibration import GeneratorKnobs


@dataclass
class UserProfile:
    """Static behavioral parameters of one user."""

    name: str
    weight: float
    runtime_scale_s: float
    runtime_cov: float
    class_probs: dict[str, float]
    interface_probs: dict[str, float]
    util_multiplier: float
    gpu_category: str
    gpu_count_dist: Categorical
    #: Memory-bound workloads cluster in a few users (graph analytics,
    #: embedding-table jobs); most users never submit one.
    memory_intensive_user: bool = False

    def __post_init__(self) -> None:
        # Each draw inverts a CDF built once, where its probabilities
        # become fixed: the draw ``rng.choice(len(p), p=p)`` makes.
        labels = list(self.interface_probs)
        probs = np.asarray([self.interface_probs[k] for k in labels])
        self._interface_draw = (labels, choice_cdf(len(labels), probs / probs.sum()))
        #: Per interface: the knobs, labels and CDF of :meth:`sample_class`.
        self._class_draws: dict[str, tuple] = {}

    def sample_interface(self, rng: np.random.Generator) -> str:
        labels, cdf = self._interface_draw
        return labels[int(cdf.searchsorted(rng.random(), side="right"))]

    def sample_class(self, rng: np.random.Generator, interface: str, knobs: GeneratorKnobs) -> str:
        """Life-cycle class: interface-conditional base, tilted by the
        user's own propensities.

        ``class_probs`` is a *tilt* centered on uniform (mean 1/4 per
        class), so the population-average class mix stays at the base
        probabilities while individual users deviate widely (Fig 17).
        """
        draw = self._class_draws.get(interface)
        if draw is None or draw[0] is not knobs:
            base = knobs.class_given_interface[interface]
            labels = list(base)
            weights = np.asarray(
                [base[k] * max(self.class_probs.get(k, 0.0), 1e-4) for k in labels]
            )
            if weights.sum() <= 0:
                weights = np.asarray([base[k] for k in labels])
            weights = weights / weights.sum()
            draw = self._class_draws[interface] = (knobs, labels, choice_cdf(len(labels), weights))
        _, labels, cdf = draw
        return labels[int(cdf.searchsorted(rng.random(), side="right"))]

    def sample_gpu_count(self, rng: np.random.Generator) -> int:
        return int(self.gpu_count_dist.sample(rng))


class UserPopulation:
    """Builds and holds the full set of user profiles."""

    def __init__(
        self,
        num_users: int,
        knobs: GeneratorKnobs,
        rng: np.random.Generator,
    ) -> None:
        if num_users < 2:
            raise WorkloadError("need at least two users")
        self.knobs = knobs
        weight_dist = BoundedPareto(
            knobs.user_weight_alpha, knobs.user_weight_range[0], knobs.user_weight_range[1]
        )
        weights = np.sort(np.asarray(weight_dist.sample(rng, num_users)))[::-1]
        median_weight = float(np.median(weights))
        self.profiles = [
            self._build_profile(i, float(w), float(w) / median_weight, rng)
            for i, w in enumerate(weights)
        ]
        self._assign_gpu_categories()
        for profile in self.profiles:
            rel = profile.weight / median_weight
            # Heavy submitters run shorter jobs...
            profile.runtime_scale_s *= rel ** (-knobs.runtime_weight_exponent)
            # ...and use the GPUs they get more efficiently (Fig 12).
            profile.util_multiplier = float(
                np.clip(profile.util_multiplier * rel**knobs.util_weight_exponent, 0.2, 2.2)
            )

    def _build_profile(
        self, index: int, weight: float, rel_weight: float, rng: np.random.Generator
    ) -> UserProfile:
        knobs = self.knobs
        # Heavy users submit many workflows, so their class/interface
        # mixes sit near the population average; light users can be
        # extreme.  Concentration grows with relative weight, which
        # pins the pooled mixes (Fig 5, Fig 15a) without flattening the
        # user-level spread (Fig 17 is dominated by the many light
        # users).
        concentration_boost = 1.0 + 2.5 * np.log1p(max(rel_weight - 1.0, 0.0))
        class_labels = ("mature", "exploratory", "development", "ide")
        class_tilt = rng.dirichlet(
            np.full(len(class_labels), knobs.class_mix_concentration * concentration_boost)
        )
        interface_labels = ("map-reduce", "batch", "interactive", "other")
        global_interface = np.asarray(knobs.global_interface_shares)
        interface_draw = rng.dirichlet(
            global_interface
            * len(interface_labels)
            * knobs.interface_mix_concentration
            * concentration_boost
        )
        runtime_scale = float(
            rng.lognormal(np.log(knobs.user_runtime_scale_median_s), knobs.user_runtime_scale_sigma)
        )
        runtime_cov = float(
            rng.lognormal(np.log(knobs.user_runtime_cov_median), knobs.user_runtime_cov_spread)
        )
        placeholder = Categorical([1], [1.0])
        return UserProfile(
            name=f"user_{index:04d}",
            weight=weight,
            runtime_scale_s=runtime_scale,
            runtime_cov=runtime_cov,
            class_probs=dict(zip(class_labels, class_tilt)),
            interface_probs=dict(zip(interface_labels, interface_draw)),
            util_multiplier=float(rng.lognormal(-0.25, knobs.util_user_noise_sigma)),
            gpu_category="single",
            gpu_count_dist=placeholder,
            memory_intensive_user=bool(rng.random() < knobs.memory_intensive_user_fraction),
        )

    def _assign_gpu_categories(self) -> None:
        """Deterministic weight-ranked category assignment.

        The heaviest 5.2% of users are "large" (run 9+ GPU jobs), the
        next 7.8% "medium" (3-8 GPUs), the next 47% "dual", the rest
        single-GPU only.  Ranking by weight pins the pooled job-size
        mix (Fig 13) and the user fractions (Sec. V) simultaneously,
        without sampling noise from which users happen to be heavy.
        """
        knobs = self.knobs
        order = sorted(range(len(self.profiles)), key=lambda i: -self.profiles[i].weight)
        n = len(self.profiles)
        # user_gpu_categories is ordered smallest-capability first; the
        # probs vector gives (single, dual, medium, large) fractions.
        ordered_categories = list(reversed(knobs.user_gpu_categories))  # large first
        ordered_sizes = list(reversed(list(knobs.user_gpu_category_probs)))
        start = 0
        for category, frac in zip(ordered_categories, ordered_sizes):
            count = int(round(frac * n))
            for rank in range(start, min(start + count, n)):
                profile = self.profiles[order[rank]]
                profile.gpu_category = category
            start += count
        for rank in range(start, n):  # rounding remainder -> single
            self.profiles[order[rank]].gpu_category = "single"
        for profile in self.profiles:
            count_map = knobs.gpu_count_by_category[profile.gpu_category]
            profile.gpu_count_dist = Categorical(list(count_map), list(count_map.values()))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.profiles)

    def job_allocation(self, total_jobs: int, rng: np.random.Generator) -> np.ndarray:
        """Number of jobs per user: multinomial over activity weights,
        with every user guaranteed at least one job."""
        weights = np.asarray([p.weight for p in self.profiles])
        counts = rng.multinomial(max(total_jobs - len(self.profiles), 0), weights / weights.sum())
        return counts + 1
