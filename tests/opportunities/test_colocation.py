"""Tests for the co-location simulator."""

import math

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.monitor.timeseries import METRIC_NAMES
from repro.opportunities.colocation import ColocationSimulator, colocation_study


class ConstantDemand:
    """A pseudo activity model with fixed SM demand."""

    num_gpus = 1

    def __init__(self, demand):
        self.demand = demand

    def metrics_at(self, times_s, gpu_index):
        out = {name: np.zeros(len(times_s)) for name in METRIC_NAMES}
        out["sm"] = np.full(len(times_s), self.demand)
        return out


class AlternatingDemand(ConstantDemand):
    """Active (at `demand`) during even 100-second windows only."""

    def __init__(self, demand, phase=0):
        super().__init__(demand)
        self.phase = phase

    def metrics_at(self, times_s, gpu_index):
        out = {name: np.zeros(len(times_s)) for name in METRIC_NAMES}
        window = (times_s // 100.0 + self.phase) % 2 == 0
        out["sm"] = np.where(window, self.demand, 0.0)
        return out


class TestEvaluatePair:
    def test_disjoint_phases_no_slowdown(self):
        sim = ColocationSimulator(resolution_s=1.0)
        result = sim.evaluate_pair(
            AlternatingDemand(80.0, phase=0), AlternatingDemand(80.0, phase=1), 1000.0
        )
        assert result.worst_slowdown == pytest.approx(1.0, abs=0.05)

    def test_overlapping_heavy_jobs_slow_down(self):
        sim = ColocationSimulator(resolution_s=1.0)
        result = sim.evaluate_pair(ConstantDemand(80.0), ConstantDemand(80.0), 100.0)
        assert result.slowdown_a == pytest.approx(1.6)
        assert result.contention_fraction == 1.0

    def test_light_jobs_fit_together(self):
        sim = ColocationSimulator(resolution_s=1.0)
        result = sim.evaluate_pair(ConstantDemand(30.0), ConstantDemand(30.0), 100.0)
        assert result.worst_slowdown == 1.0
        assert result.combined_mean_demand == pytest.approx(60.0)

    def test_idle_job_never_slows(self):
        sim = ColocationSimulator(resolution_s=1.0)
        result = sim.evaluate_pair(ConstantDemand(0.0), ConstantDemand(100.0), 100.0)
        assert result.slowdown_a == 1.0


class TestPack:
    def test_pairs_low_with_low(self):
        sim = ColocationSimulator(resolution_s=1.0)
        jobs = [(ConstantDemand(d), 100.0) for d in (10.0, 20.0, 90.0, 95.0)]
        report = sim.pack(jobs, headroom=60.0)
        assert report.num_pairs == 1  # only 10+20 fit under 60
        assert report.gpus_after == 3
        assert report.gpu_savings_fraction == pytest.approx(0.25)

    def test_everything_hot_packs_nothing(self):
        sim = ColocationSimulator(resolution_s=1.0)
        jobs = [(ConstantDemand(90.0), 100.0)] * 4
        report = sim.pack(jobs, headroom=60.0)
        assert report.num_pairs == 0
        assert report.mean_slowdown == 1.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            ColocationSimulator().pack([])

    def test_invalid_resolution_rejected(self):
        for resolution in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(AnalysisError, match=f"got {resolution}"):
                ColocationSimulator(resolution_s=resolution)


class TestStudyOnDataset:
    def test_saves_gpus_with_mild_slowdown(self, medium_dataset):
        report = colocation_study(medium_dataset, max_jobs=200)
        # the paper's qualitative claim: plenty of sharing headroom
        assert report.gpu_savings_fraction > 0.15
        assert report.mean_slowdown < 1.2
        assert report.p95_slowdown < 2.0
