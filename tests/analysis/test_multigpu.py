"""Tests for multi-GPU job analysis."""

import numpy as np
import pytest

from repro.analysis.multigpu import (
    MultiGpuCovResult,
    gpu_count_breakdown,
    idle_gpu_fraction,
    multi_gpu_cov,
    user_gpu_breadth,
    wait_by_size,
)
from repro.analysis.stats import coefficient_of_variation
from repro.analysis.streaming import iter_sorted_groups
from repro.errors import AnalysisError
from repro.frame import Table


def jobs(rows):
    defaults = {"user": "u", "gpu_hours": 1.0, "wait_time_s": 1.0}
    return Table.from_rows([{**defaults, **r} for r in rows])


class TestBreakdown:
    def test_buckets(self):
        table = gpu_count_breakdown(
            jobs([{"num_gpus": 1}, {"num_gpus": 1}, {"num_gpus": 2}, {"num_gpus": 16}])
        )
        by_label = {r["gpus"]: r for r in table.iter_rows()}
        assert by_label["1"]["job_fraction"] == 0.5
        assert by_label["2"]["job_fraction"] == 0.25
        assert by_label[">=9"]["num_jobs"] == 1

    def test_gpu_hour_fraction_sums_to_one(self):
        table = gpu_count_breakdown(
            jobs([{"num_gpus": 1, "gpu_hours": 3.0}, {"num_gpus": 4, "gpu_hours": 9.0}])
        )
        assert sum(table["gpu_hour_fraction"]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            gpu_count_breakdown(jobs([]))


class TestUserBreadth:
    def test_fractions(self):
        table = jobs(
            [
                {"user": "a", "num_gpus": 1},
                {"user": "a", "num_gpus": 2},
                {"user": "b", "num_gpus": 1},
                {"user": "c", "num_gpus": 16},
            ]
        )
        breadth = user_gpu_breadth(table)
        assert breadth["any_multi_gpu"] == pytest.approx(2.0 / 3.0)
        assert breadth["nine_plus"] == pytest.approx(1.0 / 3.0)


class TestWaitBySize:
    def test_median_per_bucket(self):
        table = jobs(
            [
                {"num_gpus": 1, "wait_time_s": 3.0},
                {"num_gpus": 1, "wait_time_s": 5.0},
                {"num_gpus": 2, "wait_time_s": 1.0},
            ]
        )
        waits = wait_by_size(table)
        by_label = {r["gpus"]: r for r in waits.iter_rows()}
        assert by_label["1"]["median_wait_s"] == 4.0
        assert by_label["2"]["median_wait_s"] == 1.0
        assert np.isnan(by_label[">=9"]["median_wait_s"])


def per_gpu_rows(spec):
    """spec: {job_id: [sm per gpu]}"""
    rows = []
    for job_id, sms in spec.items():
        for gpu_index, sm in enumerate(sms):
            rows.append(
                {
                    "job_id": job_id,
                    "gpu_index": gpu_index,
                    "sm_mean": sm,
                    "mem_bw_mean": sm / 10.0,
                    "mem_size_mean": sm / 2.0,
                }
            )
    return Table.from_rows(rows)


class TestMultiGpuCov:
    def test_single_gpu_jobs_skipped(self):
        assert multi_gpu_cov(per_gpu_rows({1: [50.0]})) == []

    def test_uniform_gpus_zero_cov(self):
        results = multi_gpu_cov(per_gpu_rows({1: [40.0, 40.0]}))
        assert results[0].cov_all["sm_mean"] == pytest.approx(0.0)
        assert results[0].num_idle_gpus == 0

    def test_idle_gpu_detected_and_excluded(self):
        results = multi_gpu_cov(per_gpu_rows({1: [40.0, 42.0, 0.0, 0.0]}))
        result = results[0]
        assert result.num_idle_gpus == 2
        assert result.cov_all["sm_mean"] > 0.5
        assert result.cov_active["sm_mean"] < 0.1

    def test_all_idle_gives_nan_active_cov(self):
        results = multi_gpu_cov(per_gpu_rows({1: [0.0, 0.0]}))
        assert np.isnan(results[0].cov_active["sm_mean"])

    def test_idle_fraction(self):
        results = multi_gpu_cov(
            per_gpu_rows({1: [40.0, 0.0], 2: [40.0, 41.0], 3: [10.0, 0.0]})
        )
        assert idle_gpu_fraction(results) == pytest.approx(2.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            multi_gpu_cov(Table.empty(["job_id"]))
        with pytest.raises(AnalysisError):
            idle_gpu_fraction([])


def materialize_every_group(per_gpu, metrics=("sm_mean", "mem_bw_mean", "mem_size_mean")):
    """The fold before one-GPU groups were skipped: every job's rows
    become a table, and groups of one row are dropped afterwards."""
    results = []
    for job_key, group in iter_sorted_groups(per_gpu, "job_id"):
        if group.num_rows < 2:
            continue
        sm = np.asarray(group["sm_mean"], dtype=float)
        mem = np.asarray(group["mem_bw_mean"], dtype=float)
        active = (sm > 0.5) | (mem > 0.5)
        columns = {m: np.asarray(group[m], dtype=float) for m in metrics}
        results.append(
            MultiGpuCovResult(
                job_id=int(job_key),
                num_gpus=group.num_rows,
                num_idle_gpus=int((~active).sum()),
                cov_all={m: coefficient_of_variation(v) for m, v in columns.items()},
                cov_active={
                    m: coefficient_of_variation(v[active]) if active.sum() >= 2 else float("nan")
                    for m, v in columns.items()
                },
            )
        )
    return results


def comparable(results):
    """Results with every float as its repr, so NaN equals NaN."""
    return [
        (r.job_id, r.num_gpus, r.num_idle_gpus,
         {m: repr(v) for m, v in r.cov_all.items()},
         {m: repr(v) for m, v in r.cov_active.items()})
        for r in results
    ]


class TestSkipsOneGpuGroups:
    """Skipping one-GPU jobs before they are materialized changes no
    result, on the table and on chunked views whose boundaries split
    multi-GPU jobs."""

    @pytest.fixture(scope="class")
    def per_gpu(self):
        rng = np.random.default_rng(14)
        sizes = [1, 1, 3, 1, 2, 4, 1, 1, 1, 8, 2, 1, 5, 1, 2]
        spec = {}
        for job_id, size in enumerate(sizes, start=10):
            sms = rng.uniform(0.0, 90.0, size)
            sms[rng.random(size) < 0.3] = 0.0  # some idle GPUs
            spec[job_id] = sms.tolist()
        return per_gpu_rows(spec)

    @pytest.mark.parametrize("chunk_rows", [None, 1, 3, 7])
    def test_matches_materializing_every_group(self, per_gpu, chunk_rows):
        source = per_gpu if chunk_rows is None else per_gpu.to_chunked(chunk_rows)
        got = multi_gpu_cov(source)
        assert comparable(got) == comparable(materialize_every_group(source))
        assert [r.num_gpus for r in got] == [3, 2, 4, 8, 2, 5, 2]

    def test_one_chunk_of_all_rows(self, per_gpu):
        source = per_gpu.to_chunked(per_gpu.num_rows)
        assert comparable(multi_gpu_cov(source)) == comparable(materialize_every_group(per_gpu))

    def test_a_job_straddling_chunks_is_stitched(self, per_gpu):
        """With 3-row chunks the 8-GPU job (rows 15-22) spans three
        chunks and still yields one result over its eight rows."""
        results = {r.job_id: r for r in multi_gpu_cov(per_gpu.to_chunked(3))}
        assert results[19].num_gpus == 8

    def test_only_one_gpu_jobs(self):
        table = per_gpu_rows({1: [50.0], 2: [0.0], 3: [10.0]})
        assert multi_gpu_cov(table) == multi_gpu_cov(table.to_chunked(1)) == []


class TestOnGeneratedData:
    def test_active_only_cov_much_lower(self, medium_dataset):
        results = multi_gpu_cov(medium_dataset.per_gpu)
        assert len(results) > 20
        all_cov = np.asarray([r.cov_all["sm_mean"] for r in results])
        active_cov = np.asarray([r.cov_active["sm_mean"] for r in results])
        all_cov = all_cov[np.isfinite(all_cov)]
        active_cov = active_cov[np.isfinite(active_cov)]
        assert np.median(active_cov) < 0.5 * max(np.median(all_cov), 0.05) + 0.05

    def test_idle_pathology_present(self, medium_dataset):
        results = multi_gpu_cov(medium_dataset.per_gpu)
        fraction = idle_gpu_fraction(results)
        assert 0.2 <= fraction <= 0.6  # paper: 0.40
